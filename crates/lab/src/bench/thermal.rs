//! Thermal-kernel suite: integrator and steady-state solver rates.

use crate::{LabError, Scale};
use diskthermal::{DriveThermalSpec, Integrator, OperatingPoint, ThermalModel, TransientSim};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use units::{Rpm, Seconds};

use super::{experiment_wall_ms, Provenance};

/// Step size shared by every integrator benchmark; small enough that
/// forward Euler is stable for the air node's tiny heat capacity.
const DT: f64 = 0.1;

/// What the thermal suite measured. A full run writes this to
/// `BENCH_thermal.json` at the workspace root.
#[derive(Debug, Serialize)]
pub struct ThermalBenchReport {
    /// True when the quick (smoke-test) iteration counts were used.
    pub quick: bool,
    /// Where and when these numbers were taken.
    pub provenance: Provenance,
    /// Backward-Euler steps/sec on stack arrays, factoring every step.
    pub be_naive_steps_per_sec: f64,
    /// Backward-Euler steps/sec with the cached factorization.
    pub be_cached_steps_per_sec: f64,
    /// Forward-Euler steps/sec.
    pub fe_steps_per_sec: f64,
    /// Steady-state solves/sec when every solve is a new operating point.
    pub steady_cold_solves_per_sec: f64,
    /// Steady-state solves/sec when the memo absorbs repeat solves.
    pub steady_memoized_solves_per_sec: f64,
    /// End-to-end wall time of the `figure5` experiment, in ms.
    pub figure5_wall_ms: f64,
    /// End-to-end wall time of the `figure7` experiment, in ms.
    pub figure7_wall_ms: f64,
}

/// Times `steps` backward-Euler steps over a constant operating point.
pub(super) fn be_steps_per_sec(
    model: &ThermalModel,
    op: OperatingPoint,
    steps: usize,
    cached: bool,
) -> f64 {
    let mut sim = TransientSim::from_ambient(model)
        .with_step(Seconds::new(DT))
        .expect("constant step is positive")
        .with_step_cache(cached);
    let start = Instant::now();
    sim.advance(model, op, Seconds::new(steps as f64 * DT));
    let elapsed = start.elapsed().as_secs_f64();
    black_box(sim.temps());
    steps as f64 / elapsed
}

/// Times `steps` forward-Euler steps over a constant operating point.
pub(super) fn fe_steps_per_sec(model: &ThermalModel, op: OperatingPoint, steps: usize) -> f64 {
    let mut sim = TransientSim::from_ambient(model)
        .with_step(Seconds::new(DT))
        .expect("constant step is positive")
        .with_integrator(Integrator::ForwardEuler);
    let start = Instant::now();
    sim.advance(model, op, Seconds::new(steps as f64 * DT));
    let elapsed = start.elapsed().as_secs_f64();
    black_box(sim.temps());
    steps as f64 / elapsed
}

/// Times `n` steady-state solves. With `distinct_ops` every solve uses a
/// slightly different spindle speed (all cache misses); without, the
/// same operating point repeats (all hits after the first).
pub(super) fn steady_solves_per_sec(model: &ThermalModel, n: usize, distinct_ops: bool) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        let rpm = if distinct_ops {
            10_000.0 + i as f64 * 0.01
        } else {
            15_000.0
        };
        black_box(model.steady_state(OperatingPoint::seeking(Rpm::new(rpm))));
    }
    let elapsed = start.elapsed().as_secs_f64();
    n as f64 / elapsed
}

/// Times the thermal kernel: the integrators at a constant operating
/// point, steady-state solves cold and memoized, and the end-to-end
/// `figure5` and `figure7` experiments.
pub fn thermal_bench(quick: bool) -> Result<ThermalBenchReport, LabError> {
    let (kernel_steps, cold_solves, memo_solves) = if quick {
        (20_000, 2_000, 20_000)
    } else {
        (200_000, 20_000, 200_000)
    };

    let model = ThermalModel::new(DriveThermalSpec::cheetah_15k3());
    let op = OperatingPoint::seeking(Rpm::new(15_000.0));
    Ok(ThermalBenchReport {
        quick,
        provenance: Provenance::collect(),
        be_naive_steps_per_sec: be_steps_per_sec(&model, op, kernel_steps, false),
        be_cached_steps_per_sec: be_steps_per_sec(&model, op, kernel_steps, true),
        fe_steps_per_sec: fe_steps_per_sec(&model, op, kernel_steps),
        steady_cold_solves_per_sec: steady_solves_per_sec(&model, cold_solves, true),
        steady_memoized_solves_per_sec: steady_solves_per_sec(&model, memo_solves, false),
        figure5_wall_ms: experiment_wall_ms("figure5", Scale::Full)?,
        figure7_wall_ms: experiment_wall_ms("figure7", Scale::Full)?,
    })
}

