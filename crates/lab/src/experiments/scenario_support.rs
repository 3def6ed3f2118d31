//! Shared plumbing for the scenario experiments: the OLTP arrival
//! source they all replay, the driver wrapper, and per-epoch CSV
//! rendering.

use crate::LabError;
use diskfleet::{Fleet, FleetReport};
use diskscenario::{run_scenario, ArrivalSource, EpochSample, Scenario, ScenarioEngine};
use disksim::DiskSpec;
use workloads::{oltp, search_engine, TraceGenerator, WorkloadPreset};

/// An endless OLTP-shaped Poisson stream at `rate` requests/s over the
/// logical capacity of one `spec` drive.
pub(crate) fn oltp_source(
    spec: &DiskSpec,
    rate: f64,
    seed: u64,
) -> Result<ArrivalSource, LabError> {
    preset_source(oltp(), spec, rate, seed)
}

/// A read-heavy (98 % read) Poisson stream at `rate` requests/s. The
/// rebuild-storm experiment uses this so degraded-read fan-out is not
/// offset by the cheaper degraded writes (RAID-5 reconstruct-writes
/// skip the read-modify-write parity ops a healthy array pays).
pub(crate) fn read_mostly_source(
    spec: &DiskSpec,
    rate: f64,
    seed: u64,
) -> Result<ArrivalSource, LabError> {
    preset_source(search_engine(), spec, rate, seed)
}

fn preset_source(
    preset: WorkloadPreset,
    spec: &DiskSpec,
    rate: f64,
    seed: u64,
) -> Result<ArrivalSource, LabError> {
    let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("scenario source: {e}"));
    let capacity = spec.geometry().total_sectors().get();
    let generator = TraceGenerator::new(
        preset.profile.clone(),
        preset.arrivals.with_mean_rate(rate),
        1,
        capacity,
    )
    .map_err(|e| fail(&e))?;
    Ok(ArrivalSource::Synthetic(generator.stream(seed)))
}

/// Steps `fleet` through `epochs` boundaries under `scenario`, returning
/// the per-epoch samples and the final fleet report.
pub(crate) fn drive(
    fleet: &mut Fleet,
    source: &mut ArrivalSource,
    scenario: Scenario,
    epochs: u64,
) -> Result<(Vec<EpochSample>, FleetReport), LabError> {
    let mut engine = ScenarioEngine::new(scenario);
    let mut samples = Vec::new();
    run_scenario(
        fleet,
        source,
        &mut engine,
        epochs,
        &mut diskobs::Sink::null(),
        &mut samples,
    )
    .map_err(|e| LabError::Experiment(format!("scenario run: {e}")))?;
    let report = fleet.report();
    Ok((samples, report))
}

/// Renders samples as the committed CSV timeseries (header + one row
/// per epoch, fixed-precision floats for deterministic bytes).
pub(crate) fn csv_of(samples: &[EpochSample]) -> String {
    let mut out = String::from(EpochSample::csv_header());
    out.push('\n');
    for s in samples {
        out.push_str(&s.to_csv_row());
        out.push('\n');
    }
    out
}
