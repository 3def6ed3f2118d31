//! Storage event-core suite: the single-shard window loop and the
//! calendar queue against the heap it replaced.

use crate::LabError;
use disksim::{CalendarQueue, DiskSpec, Request, StorageSystem, SystemConfig, TimeKey};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;
use units::{Rpm, Seconds};

use super::fleet::{fleet_bench_trace, FLEET_BENCH_ENCLOSURES};
use super::{baseline_field, Provenance};

/// What `lab bench` measured about the storage event core. A full run
/// writes this to `BENCH_sim.json` at the workspace root.
///
/// `windows_per_sec` is the acceptance metric for the allocation-free
/// event-core rewrite: the same figure-scale trace the fleet benchmark
/// drives, advanced window by window through a single-shard
/// [`StorageSystem`] with persistent scratch — the loop every DTM and
/// fleet shard runs, minus the thermal model and fleet coordination.
/// It is compared against `serial_windows_per_sec` in the *committed*
/// `BENCH_fleet.json` (read before this run overwrites it), the
/// pre-rewrite whole-stack number the issue baselines against.
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
    /// `serial_windows_per_sec` from the committed `BENCH_fleet.json`.
    pub baseline_fleet_serial_windows_per_sec: Option<f64>,
    /// `windows_per_sec / baseline` — the event-core rewrite's payoff.
    pub windows_speedup: Option<f64>,
    /// Calendar-queue hold operations (one pop + one push)/sec under a
    /// deterministic pseudo-random churn with occasional far-future
    /// (overflow-bucket) keys.
    pub calendar_hold_ops_per_sec: f64,
    /// The same churn through the `BinaryHeap<Reverse<TimeKey>>` the
    /// calendar queue replaced.
    pub heap_hold_ops_per_sec: f64,
    /// `calendar / heap` — the queue swap's isolated payoff.
    pub calendar_vs_heap_speedup: f64,
}

/// `splitmix64` — a tiny deterministic PRNG step (the workspace links
/// no rand crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the splitmix stream.
fn u01(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
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
    let cap = fresh()?.logical_sectors();
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

/// Hold-model churn (seed the queue, then pop-one/push-one `n` times)
/// through either the calendar queue or the `BinaryHeap` it replaced.
/// Every 64th push lands far in the future, exercising the calendar's
/// overflow bucket the way RAID rebuilds and idle gaps do.
pub(super) fn queue_hold_ops_per_sec(n: usize, use_calendar: bool) -> f64 {
    const SEEDED: usize = 4_096;
    let mut state = 0x853c_49e6_748f_ea9b_u64;
    let mut seq = 0u64;
    let draw = |now: f64, state: &mut u64, seq: &mut u64| {
        let far = (*seq).is_multiple_of(64);
        let dt = if far { u01(state) * 100.0 } else { u01(state) * 0.01 };
        let key = TimeKey::new(now + dt, *seq);
        *seq += 1;
        key
    };
    if use_calendar {
        let mut q = CalendarQueue::new();
        for _ in 0..SEEDED {
            let key = draw(0.0, &mut state, &mut seq);
            q.push(key, ());
        }
        let start = Instant::now();
        for _ in 0..n {
            let (key, ()) = q.pop().expect("queue stays seeded");
            let next = draw(key.time(), &mut state, &mut seq);
            q.push(next, ());
        }
        let elapsed = start.elapsed().as_secs_f64();
        black_box(q.len());
        n as f64 / elapsed
    } else {
        let mut q = BinaryHeap::new();
        for _ in 0..SEEDED {
            q.push(Reverse(draw(0.0, &mut state, &mut seq)));
        }
        let start = Instant::now();
        for _ in 0..n {
            let Reverse(key) = q.pop().expect("queue stays seeded");
            q.push(Reverse(draw(key.time(), &mut state, &mut seq)));
        }
        let elapsed = start.elapsed().as_secs_f64();
        black_box(q.len());
        n as f64 / elapsed
    }
}

/// Benchmarks the storage event core: the window loop on the
/// figure-scale trace, and the calendar queue against the heap it
/// replaced.
///
/// Call this *before* overwriting `BENCH_fleet.json`: the speedup is
/// computed against the committed serial baseline.
pub fn sim_bench(quick: bool) -> Result<SimBenchReport, LabError> {
    let baseline = baseline_field("BENCH_fleet.json", "serial_windows_per_sec");
    let (requests, reps, holds) = if quick {
        (800, 2, 50_000)
    } else {
        (48_000, 7, 2_000_000)
    };
    let (windows_per_sec, events_per_sec) = sim_windows_per_sec(requests, reps)?;
    let calendar = queue_hold_ops_per_sec(holds, true);
    let heap = queue_hold_ops_per_sec(holds, false);
    Ok(SimBenchReport {
        quick,
        provenance: Provenance::collect(),
        windows_per_sec,
        events_per_sec,
        baseline_fleet_serial_windows_per_sec: baseline,
        windows_speedup: baseline.map(|b| windows_per_sec / b),
        calendar_hold_ops_per_sec: calendar,
        heap_hold_ops_per_sec: heap,
        calendar_vs_heap_speedup: calendar / heap,
    })
}
