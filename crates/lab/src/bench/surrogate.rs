//! Surrogate suite: capacity-plan screening cost against full simulation.

use crate::LabError;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

use super::Provenance;

/// What the surrogate-screening benchmark measured: the per-candidate
/// wall cost of the capacity planner's stage one (a fitted
/// [`disksurrogate::GridSurrogate`] screen) against its stage two (a
/// full fleet simulation), both timed on this host. `lab bench
/// surrogate` writes this to `BENCH_surrogate.json` at the workspace
/// root.
#[derive(Debug, Serialize)]
pub struct SurrogateBenchReport {
    /// True when the quick (smoke-test) iteration counts were used.
    pub quick: bool,
    /// Where/when this run happened.
    pub provenance: Provenance,
    /// Grid points in the training sweep (one full fleet sim each).
    pub training_points: usize,
    /// Wall time of the parallel training sweep, ms.
    pub train_sweep_ms: f64,
    /// Wall time of the one-off grid fit, ms.
    pub fit_ms: f64,
    /// Full fleet simulations timed for the per-candidate baseline.
    pub full_sims_timed: usize,
    /// Measured mean wall time of one full fleet simulation — what
    /// verifying a candidate without the surrogate costs, ms.
    pub full_sim_ms_per_candidate: f64,
    /// Candidate screenings in the timing loop (slate size times laps).
    pub candidates_screened: usize,
    /// Measured mean cost of screening one candidate — predicting
    /// every output and checking envelope/latency feasibility — ns.
    pub screen_ns_per_candidate: f64,
    /// `full_sim_ms_per_candidate` over the per-candidate screening
    /// cost. Measured on this host, never projected; a full (non
    /// `--quick`) run fails below 100x.
    pub screening_speedup: f64,
}

/// Times the two stages of the surrogate-accelerated capacity planner
/// against each other on the same candidate shapes the `capacity_plan`
/// experiment walks.
pub fn surrogate_bench(quick: bool) -> Result<SurrogateBenchReport, LabError> {
    use crate::experiments::capacity_plan::P95_LIMIT_MS;
    use crate::sweep::SweepSpec;
    use disksurrogate::{screen, Constraint, GridSurrogate};
    let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("surrogate bench: {e}"));
    let (requests, sims_timed, screen_laps) = if quick { (300, 2, 50) } else { (2_000, 8, 500) };

    // The training sweep: the quick-scale capacity-plan grid for one
    // preset, every point a full fleet simulation.
    let spec = SweepSpec {
        preset: "oltp".into(),
        rows: 1,
        requests,
        seed: 23,
        rates: vec![200.0, 400.0],
        per_rack: vec![4.0, 16.0],
        racks_per_row: vec![2.0],
        inlets_c: vec![28.0, 32.0],
        dtm: vec![0.0, 1.0],
    };
    let grid = spec.grid();
    let axes = spec.axes()?;
    let start = Instant::now();
    let samples = spec.run(&grid, crate::default_parallelism())?;
    let train_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let model = GridSurrogate::fit(axes, &samples).map_err(|e| fail(&e))?;
    let fit_s = start.elapsed().as_secs_f64();

    // Stage-two baseline: serial full sims at points spread across the
    // grid, so the mean covers cool/hot and DTM-on/off costs alike.
    let step = (grid.len() / sims_timed).max(1);
    let timed: Vec<&Vec<f64>> = grid.iter().step_by(step).take(sims_timed).collect();
    let start = Instant::now();
    for coords in &timed {
        black_box(spec.evaluate(coords)?);
    }
    let sim_s = start.elapsed().as_secs_f64();

    // Stage-one cost: screen the dense slate the planner builds —
    // every integral bay count between the sweep's per-rack nodes —
    // against the same envelope and latency constraints it applies.
    let constraints = [
        Constraint {
            output: "peak_air_c".into(),
            max: diskthermal::THERMAL_ENVELOPE.get(),
        },
        Constraint {
            output: "p95_ms".into(),
            max: P95_LIMIT_MS,
        },
    ];
    let mut candidates = Vec::new();
    for &rate in &spec.rates {
        for bays in 4..=16u32 {
            for &inlet in &spec.inlets_c {
                for &dtm in &spec.dtm {
                    candidates.push(vec![rate, f64::from(bays), 2.0, inlet, dtm]);
                }
            }
        }
    }
    let start = Instant::now();
    let mut feasible = 0usize;
    for _ in 0..screen_laps {
        let screened = screen(&model, &candidates, &constraints).map_err(|e| fail(&e))?;
        feasible += screened.iter().filter(|s| s.feasible).count();
    }
    let screen_s = start.elapsed().as_secs_f64().max(1e-9);
    black_box(feasible);

    let candidates_screened = candidates.len() * screen_laps;
    let full_sim_ms = sim_s * 1e3 / timed.len() as f64;
    let screen_ns = screen_s * 1e9 / candidates_screened as f64;
    let speedup = full_sim_ms * 1e6 / screen_ns;
    // Quick mode shrinks the sims to smoke-test size, which shrinks
    // the ratio with them; the floor is enforced where the artifact is
    // produced.
    if !quick && speedup < 100.0 {
        return Err(fail(&format!(
            "measured screening speedup {speedup:.1}x is below the 100x floor"
        )));
    }

    Ok(SurrogateBenchReport {
        quick,
        provenance: Provenance::collect(),
        training_points: grid.len(),
        train_sweep_ms: train_s * 1e3,
        fit_ms: fit_s * 1e3,
        full_sims_timed: timed.len(),
        full_sim_ms_per_candidate: full_sim_ms,
        candidates_screened,
        screen_ns_per_candidate: screen_ns,
        screening_speedup: speedup,
    })
}
