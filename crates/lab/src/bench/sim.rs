//! Storage event-core suite: the single-shard window loop.

use crate::LabError;
use disksim::{DiskSpec, Request, StorageSystem, SystemConfig};
use serde::Serialize;
use std::time::Instant;
use units::{Rpm, Seconds};

use super::fleet::{fleet_bench_trace, FLEET_BENCH_ENCLOSURES};
use super::Provenance;

/// What `lab bench` measured about the storage event core. A full run
/// writes this to `BENCH_sim.json` at the workspace root.
///
/// `windows_per_sec` is the same figure-scale trace the fleet benchmark
/// drives, advanced window by window through a single-shard
/// [`StorageSystem`] with persistent scratch — the loop every DTM and
/// fleet shard runs, minus the thermal model and fleet coordination.
#[derive(Debug, Serialize)]
pub struct SimBenchReport {
    /// True when the quick (smoke-test) request counts were used.
    pub quick: bool,
    /// Where and when these numbers were taken.
    pub provenance: Provenance,
    /// Windows/sec through the single-shard window-advancement loop on
    /// the figure-scale trace (best of several passes after a warm-up
    /// pass, so page faults and one-time scratch growth are not
    /// charged to the steady state being measured).
    pub windows_per_sec: f64,
    /// Arrival + completion events/sec through the same loop.
    pub events_per_sec: f64,
}

/// One timed pass of the figure-scale trace through a single-shard
/// window loop, returning `(windows/sec, events/sec)`.
fn sim_pass(
    sys: &mut StorageSystem,
    trace: &[Request],
    out: &mut Vec<disksim::Completion>,
) -> (f64, f64) {
    /// The fleet control-window width (`FleetConfig::serial`).
    const WINDOW: f64 = 0.25;
    let mut next = 0usize;
    let mut windows = 0u64;
    let mut events = 0u64;
    let start = Instant::now();
    let mut w = 0u64;
    loop {
        w += 1;
        let end = Seconds::new(w as f64 * WINDOW);
        while let Some(r) = trace.get(next) {
            if r.arrival > end {
                break;
            }
            next += 1;
            sys.submit(*r).expect("bench trace is in range");
        }
        out.clear();
        sys.advance_to_into(end, out);
        events += out.len() as u64;
        windows += 1;
        if next == trace.len() && sys.in_flight() == 0 {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    // Each request is one arrival event plus one completion event.
    (windows as f64 / elapsed, 2.0 * events as f64 / elapsed)
}

/// Windows/sec and events/sec through the single-shard window loop:
/// one discarded warm-up pass, then the best of `reps` timed passes
/// (the steady state is the quantity of interest; a preempted pass
/// measures the host, not the simulator). Every pass replays the
/// trace from `t = 0` against a fresh system — the event clock only
/// moves forward, so reusing one system would turn later passes into
/// replays of the past.
pub(super) fn sim_windows_per_sec(requests: u64, reps: usize) -> Result<(f64, f64), LabError> {
    let spec = DiskSpec::era(2002, 1, Rpm::new(15_020.0));
    let fresh = || {
        StorageSystem::new(SystemConfig::single_disk(spec.clone()))
            .map_err(|e| LabError::Experiment(format!("sim bench: {e}")))
    };
    let cap = spec.geometry().total_sectors().get();
    // The fleet benchmark's trace, folded into one drive's address
    // space at that rack's per-drive arrival rate.
    let rate = 400.0 / FLEET_BENCH_ENCLOSURES as f64;
    let mut trace = fleet_bench_trace(requests, rate);
    for r in &mut trace {
        r.lba %= cap - 64;
    }
    let mut out = Vec::new();
    let _ = sim_pass(&mut fresh()?, &trace, &mut out);
    let mut best = (0.0_f64, 0.0_f64);
    for _ in 0..reps {
        let (wps, eps) = sim_pass(&mut fresh()?, &trace, &mut out);
        if wps > best.0 {
            best = (wps, eps);
        }
    }
    Ok(best)
}

/// Benchmarks the storage event core: the window loop on the
/// figure-scale trace.
pub fn sim_bench(quick: bool) -> Result<SimBenchReport, LabError> {
    let (requests, reps) = if quick { (800, 2) } else { (48_000, 7) };
    let (windows_per_sec, events_per_sec) = sim_windows_per_sec(requests, reps)?;
    Ok(SimBenchReport {
        quick,
        provenance: Provenance::collect(),
        windows_per_sec,
        events_per_sec,
    })
}
