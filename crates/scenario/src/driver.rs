//! Epoch-stepping scenario driver. [`advance_epoch`] is the one epoch
//! step every stepped fleet shares — apply the schedule, draw arrivals
//! up to the boundary, step the fleet — and [`run_scenario`] is the
//! loop the lab experiments run over it, sampling after each epoch.

use crate::scenario::ScenarioEngine;
use crate::source::ArrivalSource;
use diskfleet::{Fleet, FleetError, FleetPhaseProfile};
use disksim::Request;

/// One per-epoch observation row, shaped for the experiments' CSVs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// Sync epochs completed after this step.
    pub epoch: u64,
    /// Simulated time after this step, seconds.
    pub time_s: f64,
    /// Hottest internal air across the fleet, °C.
    pub peak_air_c: f64,
    /// Hottest preheated local ambient across the fleet, °C.
    pub peak_ambient_c: f64,
    /// Drives currently under DTM control action.
    pub engaged: usize,
    /// Cumulative foreground completions (rebuild I/O excluded).
    pub completed: u64,
    /// Rebuild sectors reconstructed so far, summed over active
    /// rebuilds (sticks at the final total once a rebuild finishes).
    pub rebuild_done: u64,
    /// Total sectors the active rebuilds must reconstruct.
    pub rebuild_total: u64,
    /// Traffic multiplier in force during this epoch.
    pub traffic_factor: f64,
}

impl EpochSample {
    /// Header matching [`Self::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "epoch,time_s,peak_air_c,peak_ambient_c,engaged,completed,rebuild_done,rebuild_total,traffic_factor"
    }

    /// One CSV row with fixed-precision floats (deterministic bytes).
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{:.3},{:.4},{:.4},{},{},{},{},{:.6}",
            self.epoch,
            self.time_s,
            self.peak_air_c,
            self.peak_ambient_c,
            self.engaged,
            self.completed,
            self.rebuild_done,
            self.rebuild_total,
            self.traffic_factor,
        )
    }
}

/// Advances `fleet` exactly one sync epoch: applies `engine`'s
/// injections due at this boundary (when a schedule is installed),
/// draws from `source` until the first arrival past the epoch's end —
/// offering every earlier one to the fleet and holding that one in
/// `lookahead` for the next epoch — then steps the fleet's epoch loop.
///
/// Both [`run_scenario`] and the `disktwin` twin step through here, so
/// a fleet and a twin driven from identical sources and schedules
/// produce identical event streams, and a stream is consumed exactly
/// once however the caller splits its epochs.
///
/// # Errors
///
/// Propagates injection failures ([`FleetError`]) from the schedule.
pub fn advance_epoch(
    fleet: &mut Fleet,
    source: &mut ArrivalSource,
    engine: Option<&mut ScenarioEngine>,
    lookahead: &mut Option<Request>,
    sink: &mut diskobs::Sink,
    profile: &mut FleetPhaseProfile,
) -> Result<(), FleetError> {
    if let Some(engine) = engine {
        engine.apply_epoch(fleet, source)?;
    }
    let epoch_end = fleet.now() + fleet.epoch_len();
    loop {
        let r = match lookahead.take() {
            Some(r) => r,
            None => source.next_request(),
        };
        if r.arrival > epoch_end {
            *lookahead = Some(r);
            break;
        }
        fleet.offer(std::iter::once(r));
    }
    fleet.step_epoch(sink, profile);
    Ok(())
}

/// Runs `epochs` sync epochs of `fleet` under `engine`'s schedule, fed
/// by `source`, pushing one [`EpochSample`] per epoch. Each epoch is
/// one [`advance_epoch`].
///
/// # Errors
///
/// Propagates injection failures ([`FleetError`]) from the schedule.
pub fn run_scenario(
    fleet: &mut Fleet,
    source: &mut ArrivalSource,
    engine: &mut ScenarioEngine,
    epochs: u64,
    sink: &mut diskobs::Sink,
    samples: &mut Vec<EpochSample>,
) -> Result<FleetPhaseProfile, FleetError> {
    let mut profile = FleetPhaseProfile::default();
    if sink.is_enabled() {
        fleet.enable_drive_sinks();
    }
    let mut lookahead: Option<Request> = None;
    let mut last_total = 0;
    for _ in 0..epochs {
        advance_epoch(fleet, source, Some(engine), &mut lookahead, sink, &mut profile)?;
        let (mut done, mut total) = (0, 0);
        for rb in fleet.rebuilds() {
            done += rb.done();
            total += rb.total();
        }
        // A finished rebuild leaves the list; keep reporting its final
        // figures so the CSV doesn't snap back to zero mid-plot.
        if total == 0 && last_total > 0 {
            done = last_total;
            total = last_total;
        }
        last_total = total;
        samples.push(EpochSample {
            epoch: fleet.epochs(),
            time_s: fleet.now().get(),
            peak_air_c: fleet.peak_air().get(),
            peak_ambient_c: fleet.peak_local_ambient().get(),
            engaged: fleet.engaged_count(),
            completed: fleet.stats_count(),
            rebuild_done: done,
            rebuild_total: total,
            traffic_factor: engine.traffic_factor(),
        });
    }
    Ok(profile)
}
