//! Scenario suite: replay-source draw throughput and the epoch cost of
//! a rebuild storm.

use crate::LabError;
use diskfleet::Fleet;
use disksim::{Request, RequestKind};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use units::Seconds;

use super::fleet::{rack_config, FLEET_BENCH_ENCLOSURES};
use super::Provenance;

/// What the scenario suite measured. A full run writes this to
/// `BENCH_scenario.json` at the workspace root.
#[derive(Debug, Serialize)]
pub struct ScenarioBenchReport {
    /// True when the quick (smoke-test) iteration counts were used.
    pub quick: bool,
    /// Where/when this run happened.
    pub provenance: Provenance,
    /// Raw draws/sec through a wrapping [`diskscenario::ReplaySource`]
    /// (the per-request cost of trace replay before the fleet sees it).
    pub replay_draws_per_sec: f64,
    /// Mean epoch wall time of an unperturbed fleet run through the
    /// scenario driver, ms.
    pub baseline_epoch_ms: f64,
    /// Mean epoch wall time with a RAID-5 rebuild storm in flight, ms.
    pub storm_epoch_ms: f64,
    /// `storm_epoch_ms` over `baseline_epoch_ms`, percent above 100.
    pub storm_overhead_pct: f64,
}

/// Builds the 8-enclosure RAID-5 fleet the scenario bench steps.
fn scenario_bench_fleet() -> Result<Fleet, LabError> {
    let mut config = rack_config(FLEET_BENCH_ENCLOSURES)?;
    config.array = Some(diskfleet::EnclosureArray {
        disks: 4,
        stripe_sectors: 65_536,
    });
    Fleet::new(config).map_err(|e| LabError::Experiment(format!("scenario bench: {e}")))
}

/// Times the scenario subsystem: replay-source draw throughput and the
/// per-epoch cost a rebuild storm adds to the fleet's event loop.
pub fn scenario_bench(quick: bool) -> Result<ScenarioBenchReport, LabError> {
    use diskscenario::{run_scenario, ArrivalSource, Injection, Scenario, ScenarioEngine};
    let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("scenario bench: {e}"));
    let (draws, epochs) = if quick { (50_000u64, 6u64) } else { (2_000_000, 24) };

    // Replay-source draw throughput: a short recorded trace wrapped
    // endlessly, so the lap arithmetic is on the measured path.
    let trace: Vec<Request> = (0..512u64)
        .map(|i| {
            Request::new(
                i,
                Seconds::new(i as f64 * 1e-3),
                0,
                i.wrapping_mul(7_919) % (1 << 22),
                8,
                if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
            )
        })
        .collect();
    let mut source = ArrivalSource::replay(trace).map_err(|e| fail(&e))?;
    let start = Instant::now();
    for _ in 0..draws {
        black_box(source.next_request());
    }
    let draw_s = start.elapsed().as_secs_f64().max(1e-9);

    // Epoch cost with and without a rebuild storm, same arrival stream.
    let arrivals = || -> Result<ArrivalSource, LabError> {
        let preset = workloads::oltp();
        let generator = workloads::TraceGenerator::new(
            preset.profile.clone(),
            preset.arrivals.with_mean_rate(400.0),
            1,
            1 << 24,
        )
        .map_err(|e| fail(&e))?;
        Ok(ArrivalSource::Synthetic(generator.stream(11)))
    };
    let run = |scenario: Scenario| -> Result<f64, LabError> {
        let mut fleet = scenario_bench_fleet()?;
        let mut source = arrivals()?;
        let mut engine = ScenarioEngine::new(scenario);
        let mut samples = Vec::new();
        let start = Instant::now();
        run_scenario(
            &mut fleet,
            &mut source,
            &mut engine,
            epochs,
            &mut diskobs::Sink::null(),
            &mut samples,
        )
        .map_err(|e| fail(&e))?;
        Ok(start.elapsed().as_secs_f64() * 1e3 / epochs as f64)
    };
    let baseline_ms = run(Scenario::new())?;
    let storm_ms = run(Scenario::new().with(Injection::DriveFailure {
        at_epoch: 0,
        enclosure: 2,
        disk: 1,
        rebuild: diskfleet::RebuildSpec {
            rate_sectors_per_sec: 2_000_000.0,
            chunk_sectors: 16_384,
        },
    }))?;

    Ok(ScenarioBenchReport {
        quick,
        provenance: Provenance::collect(),
        replay_draws_per_sec: draws as f64 / draw_s,
        baseline_epoch_ms: baseline_ms,
        storm_epoch_ms: storm_ms,
        storm_overhead_pct: (storm_ms / baseline_ms - 1.0) * 100.0,
    })
}
