//! `lab bench` — a timed baseline for the thermal kernel and the
//! experiments that lean on it.
//!
//! Measures, in order:
//!
//! - backward-Euler steps/sec through the pre-rewrite kernel (heap
//!   `Vec<Vec<f64>>` matrices, one-shot Gaussian elimination every
//!   step), reproduced verbatim by `diskthermal::bench_support`;
//! - backward-Euler steps/sec with the cached step factorization
//!   disabled (stack arrays, but still assemble + factor + solve every
//!   step);
//! - backward-Euler steps/sec with the cache on (the default path:
//!   factor once per operating point, back-substitute per step);
//! - forward-Euler steps/sec (no linear solve at all);
//! - steady-state solves/sec cold (every solve a distinct operating
//!   point, defeating the memo) and memoized (the same operating point
//!   over and over, the envelope-bisection access pattern);
//! - end-to-end wall time of the `figure5` and `figure7` experiments;
//! - the storage event core alone: windows/sec and completion
//!   events/sec through a single-shard `StorageSystem` window loop on
//!   the figure-scale trace, plus the calendar arrival queue against
//!   the `BinaryHeap` it replaced under a hold-model churn;
//! - drive-windows/sec through the fleet's sharded epoch loop: the
//!   8-drive rack at one shard and at the machine's parallelism, and a
//!   64-drive hierarchical hall swept across shard counts 1/2/4/8, each
//!   split into parallel-sweep and serial-reduce phase times (the
//!   measured serial fraction is the Amdahl input behind the reported
//!   shard speedup), plus the end-to-end `fleet_routing` experiment;
//! - the observability tax: the fleet kernel under a null sink (twice,
//!   interleaved, bounding the noise floor) and under a recording sink,
//!   plus this tree's kernel numbers diffed against the committed
//!   baselines.
//!
//! - the digital twin: checkpoint encode/restore throughput, in-memory
//!   fork latency, and one end-to-end what-if query.
//!
//! A full run writes the numbers (stamped with [`Provenance`]) to
//! `BENCH_thermal.json`, `BENCH_sim.json`, `BENCH_fleet.json`,
//! `BENCH_obs.json`, and `BENCH_twin.json` at the workspace root so
//! regressions have
//! checked-in baselines to diff against; `--quick` shrinks the
//! iteration counts, skips the writes, and instead *asserts* the
//! instrumentation-overhead bound in-process.
//!
//! `lab bench scenario` runs the scenario-subsystem suite on its own —
//! replay-source draw throughput and the per-epoch cost of a rebuild
//! storm — and writes `BENCH_scenario.json` in full mode.
//!
//! `lab bench surrogate` times the two-stage capacity planner's stages
//! against each other: the measured wall cost of screening one
//! candidate configuration through a fitted [`disksurrogate`] grid
//! versus simulating it in full, and writes `BENCH_surrogate.json` in
//! full mode. The run fails if the measured speedup falls below the
//! 100x floor the planner's design assumes.

use crate::registry;
use crate::text::results_dir;
use crate::{LabError, Scale};
use diskfleet::{AirflowGraph, Fleet, FleetConfig, FleetPhaseProfile};
use disksim::{
    CalendarQueue, DiskSpec, Request, RequestKind, StorageSystem, SystemConfig, TimeKey,
};
use diskthermal::{
    DriveThermalSpec, Integrator, OperatingPoint, ThermalModel, TransientSim,
};
use disktwin::{decode, encode, whatif, Twin, TwinConfig, WhatIf};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;
use units::{Inches, Rpm, Seconds};

/// Step size shared by every integrator benchmark; small enough that
/// forward Euler is stable for the air node's tiny heat capacity.
const DT: f64 = 0.1;

/// Where a committed `BENCH_*.json` baseline came from, so a diff
/// against it can be judged (same host? same commit? how stale?).
#[derive(Debug, Clone, Serialize)]
pub struct Provenance {
    /// Short git commit hash of the working tree, `"unknown"` outside a
    /// git checkout.
    pub git_commit: String,
    /// UTC calendar date the benchmark ran, `YYYY-MM-DD`.
    pub date_utc: String,
    /// `std::thread::available_parallelism` on the benchmarking host.
    pub host_parallelism: usize,
}

/// Converts days since the Unix epoch to a civil (y, m, d) date —
/// Howard Hinnant's `civil_from_days` algorithm.
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// The workspace root (parent of `results/`).
fn workspace_root() -> Result<PathBuf, LabError> {
    results_dir()?
        .parent()
        .map(std::path::Path::to_path_buf)
        .ok_or_else(|| LabError::Experiment("results dir has no parent".into()))
}

impl Provenance {
    /// Stamps the current run: git commit (if any), today's UTC date,
    /// and the host's parallelism.
    pub fn collect() -> Self {
        let git_commit = workspace_root()
            .ok()
            .and_then(|root| {
                std::process::Command::new("git")
                    .args(["rev-parse", "--short", "HEAD"])
                    .current_dir(root)
                    .output()
                    .ok()
            })
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs() as i64)
            .unwrap_or(0);
        let (y, m, d) = civil_from_days(secs.div_euclid(86_400));
        Provenance {
            git_commit,
            date_utc: format!("{y:04}-{m:02}-{d:02}"),
            host_parallelism: crate::default_parallelism(),
        }
    }
}

/// Everything one `lab bench` run measured.
#[derive(Debug, Serialize)]
pub struct BenchReport {
    /// True when the quick (smoke-test) iteration counts were used.
    pub quick: bool,
    /// Where and when these numbers were taken.
    pub provenance: Provenance,
    /// Backward-Euler steps/sec through the pre-rewrite heap kernel.
    pub be_prepr_steps_per_sec: f64,
    /// Backward-Euler steps/sec on stack arrays, factoring every step.
    pub be_naive_steps_per_sec: f64,
    /// Backward-Euler steps/sec with the cached factorization.
    pub be_cached_steps_per_sec: f64,
    /// `be_cached / be_prepr` — the whole PR's payoff on the kernel.
    pub cached_speedup: f64,
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

/// Times `steps` backward-Euler steps through the pre-rewrite kernel:
/// heap matrices assembled and eliminated from scratch on every step.
fn be_prepr_steps_per_sec(model: &ThermalModel, op: OperatingPoint, steps: usize) -> f64 {
    let ambient = model.spec().ambient().get();
    let mut temps = [ambient; 4];
    let start = Instant::now();
    for _ in 0..steps {
        temps = diskthermal::bench_support::heap_backward_euler_step(model, op, DT, temps);
    }
    let elapsed = start.elapsed().as_secs_f64();
    black_box(temps);
    steps as f64 / elapsed
}

/// Times `steps` backward-Euler steps over a constant operating point.
fn be_steps_per_sec(model: &ThermalModel, op: OperatingPoint, steps: usize, cached: bool) -> f64 {
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
fn fe_steps_per_sec(model: &ThermalModel, op: OperatingPoint, steps: usize) -> f64 {
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
fn steady_solves_per_sec(model: &ThermalModel, n: usize, distinct_ops: bool) -> f64 {
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

/// Times one full in-process run of a registered experiment, in ms.
fn experiment_wall_ms(name: &str) -> Result<f64, LabError> {
    experiment_wall_ms_at(name, Scale::Full)
}

/// Like [`experiment_wall_ms`] at a caller-chosen scale.
fn experiment_wall_ms_at(name: &str, scale: Scale) -> Result<f64, LabError> {
    let exp = registry::by_name(name, scale)
        .ok_or_else(|| LabError::Experiment(format!("unknown experiment {name:?}")))?;
    let start = Instant::now();
    black_box(exp.run()?);
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

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
fn sim_windows_per_sec(requests: u64, reps: usize) -> Result<(f64, f64), LabError> {
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
fn queue_hold_ops_per_sec(n: usize, use_calendar: bool) -> f64 {
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

/// Drives in the fleet-kernel benchmark rack.
const FLEET_BENCH_ENCLOSURES: usize = 8;
/// Control windows per sync epoch (the `FleetConfig::serial` default).
const FLEET_BENCH_WINDOWS_PER_EPOCH: usize = 4;
/// Drives in the shard-sweep hall (8 rows of 8 racks of 16 bays) — big
/// enough that the parallel window sweeps dominate the epoch boundary.
const FLEET_HALL_BENCH_ENCLOSURES: usize = 1_024;
/// Bays per rack in the shard-sweep hall.
const FLEET_HALL_PER_RACK: usize = 16;
/// Racks per row in the shard-sweep hall.
const FLEET_HALL_RACKS_PER_ROW: usize = 8;
/// Fleet-wide arrival rate for the shard-sweep hall, requests/s. Low
/// per drive on purpose: each request is routed in the serial phase but
/// simulated in the parallel one, so a light per-drive load is the
/// regime where the epoch boundary itself — not the disks — is on
/// trial.
const FLEET_HALL_RATE: f64 = 800.0;
/// Shard counts the sweep measures.
const FLEET_SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One shard count's measurement in the hall shard sweep.
#[derive(Debug, Serialize)]
pub struct FleetShardRow {
    /// Shards this row ran on.
    pub shards: usize,
    /// Drive-windows/sec through the epoch loop.
    pub windows_per_sec: f64,
    /// Wall-clock spent in the parallel phases (window sweeps, airflow
    /// folds, event merge), ms.
    pub parallel_phase_ms: f64,
    /// Wall-clock spent in the serial reduces (routing commit, airflow
    /// coupling, coordinator commit), ms.
    pub serial_phase_ms: f64,
    /// This row's wall-clock speedup over the one-shard row. On a host
    /// with fewer cores than shards this hovers near 1.0 — the honest
    /// number; see `shard_speedup_basis` on the report.
    pub wall_speedup_vs_serial: f64,
}

/// What `lab bench` measured about the fleet event loop. A full run
/// writes this to `BENCH_fleet.json` at the workspace root.
///
/// Two workloads: the historical 8-drive *rack* (whose one-shard
/// `serial_windows_per_sec` is the baseline `BENCH_sim.json` diffs
/// against), and a 64-drive hierarchical *hall* swept across shard
/// counts. The phase fields split each run's wall-clock into the
/// parallel per-enclosure work versus the serial epoch-boundary
/// reduces. By Amdahl's law the serial fraction caps the shard payoff
/// at `1 / (serial_fraction + (1 - serial_fraction) / shards)`; the
/// split-phase epoch boundary exists to keep that fraction small, and
/// `shard_speedup_basis` records whether `shard_speedup` is a wall-clock
/// measurement (host has >= 8 cores) or the Amdahl projection from the
/// measured serial fraction (fewer cores — extra shards cannot beat
/// physics, so the wall clock says nothing about scaling).
#[derive(Debug, Serialize)]
pub struct FleetBenchReport {
    /// True when the quick (smoke-test) request counts were used.
    pub quick: bool,
    /// Where and when these numbers were taken.
    pub provenance: Provenance,
    /// Shard count actually used by the sharded rack measurement
    /// (`disksim::par::default_parallelism()` on the benchmarking
    /// host).
    pub shards: usize,
    /// Drive-windows/sec through the rack epoch loop on one shard.
    pub serial_windows_per_sec: f64,
    /// Wall-clock the one-shard rack run spent in the (nominally
    /// parallel) window sweeps, ms.
    pub serial_run_parallel_phase_ms: f64,
    /// Wall-clock the one-shard rack run spent in serial epoch-boundary
    /// synchronization, ms.
    pub serial_run_serial_phase_ms: f64,
    /// Drive-windows/sec through the rack with the sharded loop.
    pub sharded_windows_per_sec: f64,
    /// Wall-clock the sharded rack run spent in the parallel window
    /// sweeps, ms.
    pub sharded_run_parallel_phase_ms: f64,
    /// Wall-clock the sharded rack run spent in serial epoch-boundary
    /// synchronization, ms.
    pub sharded_run_serial_phase_ms: f64,
    /// Drives in the shard-sweep hall.
    pub hall_enclosures: usize,
    /// The hall workload at each sweep shard count, in sweep order.
    pub shard_sweep: Vec<FleetShardRow>,
    /// Fraction of the one-shard hall run's wall-clock in the serial
    /// reduces — the Amdahl input that bounds every shard payoff.
    pub serial_fraction: f64,
    /// `1 / (serial_fraction + (1 - serial_fraction) / 8)` — what
    /// Amdahl's law permits at 8 shards given the measured serial
    /// fraction.
    pub amdahl_speedup_at_8: f64,
    /// The 8-shard payoff: measured wall-clock ratio when the host has
    /// at least 8 cores, otherwise the Amdahl projection above.
    pub shard_speedup: f64,
    /// `"measured"`, or `"amdahl-projected (host_parallelism=N)"` when
    /// the host cannot exercise 8 shards in parallel.
    pub shard_speedup_basis: String,
    /// End-to-end wall time of the `fleet_routing` experiment, in ms
    /// (quick scale under `--quick`, full scale otherwise).
    pub fleet_routing_wall_ms: f64,
}

/// A deterministic synthetic fleet trace: fixed-rate arrivals striding
/// the address space.
fn fleet_bench_trace(requests: u64, rate: f64) -> Vec<Request> {
    (0..requests)
        .map(|i| {
            Request::new(
                i,
                Seconds::new(i as f64 / rate),
                0,
                i.wrapping_mul(7_777_777),
                8,
                if i % 4 == 0 { RequestKind::Write } else { RequestKind::Read },
            )
        })
        .collect()
}

/// Times one fleet run, returning drive-windows advanced per second
/// and where the wall-clock went.
fn fleet_windows_per_sec(
    threads: usize,
    requests: u64,
) -> Result<(f64, FleetPhaseProfile), LabError> {
    let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("fleet bench: {e}"));
    let mut config = FleetConfig::serial(
        FLEET_BENCH_ENCLOSURES,
        DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
        DriveThermalSpec::new(Inches::new(2.6), 1),
        12.0,
    )
    .map_err(|e| fail(&e))?;
    config.threads = threads;
    let fleet = Fleet::new(config).map_err(|e| fail(&e))?;
    let trace = fleet_bench_trace(requests, 400.0);
    let mut sink = diskobs::Sink::null();
    let start = Instant::now();
    let (report, profile) = fleet.run_profiled(trace, &mut sink).map_err(|e| fail(&e))?;
    let elapsed = start.elapsed().as_secs_f64();
    let windows =
        report.epochs * (FLEET_BENCH_WINDOWS_PER_EPOCH * FLEET_BENCH_ENCLOSURES) as u64;
    Ok((windows as f64 / elapsed, profile))
}

/// Times one hall-workload fleet run (hierarchical airflow,
/// thermal-aware routing) at the given shard count, returning
/// drive-windows advanced per second and where the wall-clock went.
fn fleet_hall_windows_per_sec(
    threads: usize,
    requests: u64,
) -> Result<(f64, FleetPhaseProfile), LabError> {
    let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("fleet hall bench: {e}"));
    let thermal = DriveThermalSpec::new(Inches::new(2.6), 1);
    let mut config = FleetConfig::serial(
        FLEET_HALL_BENCH_ENCLOSURES,
        DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
        thermal,
        12.0,
    )
    .map_err(|e| fail(&e))?;
    config.airflow = AirflowGraph::hall(
        FLEET_HALL_BENCH_ENCLOSURES,
        FLEET_HALL_PER_RACK,
        FLEET_HALL_RACKS_PER_ROW,
        thermal.ambient(),
        4.0e-3,
        1.2e-4,
        7.0e-5,
    )
    .map_err(|e| fail(&e))?;
    config.routing = diskfleet::RoutingPolicy::ThermalAware {
        envelope: diskthermal::THERMAL_ENVELOPE,
    };
    config.threads = threads;
    let fleet = Fleet::new(config).map_err(|e| fail(&e))?;
    let trace = fleet_bench_trace(requests, FLEET_HALL_RATE);
    let mut sink = diskobs::Sink::null();
    let start = Instant::now();
    let (report, profile) = fleet.run_profiled(trace, &mut sink).map_err(|e| fail(&e))?;
    let elapsed = start.elapsed().as_secs_f64();
    let windows =
        report.epochs * (FLEET_BENCH_WINDOWS_PER_EPOCH * FLEET_HALL_BENCH_ENCLOSURES) as u64;
    Ok((windows as f64 / elapsed, profile))
}

/// Benchmarks the fleet event loop: the 8-drive rack at one shard and
/// at the machine's parallelism, the 64-drive hall across the shard
/// sweep, plus the end-to-end `fleet_routing` experiment.
///
/// The first fleet run in a process pays one-time costs (page faults,
/// lazy thread-pool and scratch initialization) worth ~25% of this
/// workload; a discarded warm-up run keeps them out of the steady
/// state, and each configuration keeps its best of several passes.
/// The hall sweep does not shrink under `--quick`: the measured serial
/// fraction is the number `scripts/verify.sh` gates on, and a smaller
/// workload would only add noise to it.
pub fn fleet_bench(quick: bool) -> Result<FleetBenchReport, LabError> {
    let (requests, reps) = if quick { (800, 1) } else { (6_000, 3) };
    let shards = disksim::par::default_parallelism();
    let _ = fleet_windows_per_sec(1, requests.min(800))?;
    let best = |threads: usize| -> Result<(f64, FleetPhaseProfile), LabError> {
        let mut best = fleet_windows_per_sec(threads, requests)?;
        for _ in 1..reps {
            let run = fleet_windows_per_sec(threads, requests)?;
            if run.0 > best.0 {
                best = run;
            }
        }
        Ok(best)
    };
    let (serial, serial_profile) = best(1)?;
    let (sharded, sharded_profile) = best(shards)?;

    let (hall_requests, hall_reps) = if quick { (12_000, 1) } else { (12_000, 2) };
    let _ = fleet_hall_windows_per_sec(1, 2_000)?;
    let mut sweep = Vec::new();
    let mut base_wps = 0.0;
    let mut base_profile = FleetPhaseProfile::default();
    for count in FLEET_SHARD_SWEEP {
        let mut best = fleet_hall_windows_per_sec(count, hall_requests)?;
        for _ in 1..hall_reps {
            let run = fleet_hall_windows_per_sec(count, hall_requests)?;
            if run.0 > best.0 {
                best = run;
            }
        }
        if count == 1 {
            base_wps = best.0;
            base_profile = best.1;
        }
        sweep.push(FleetShardRow {
            shards: count,
            windows_per_sec: best.0,
            parallel_phase_ms: best.1.parallel_ms,
            serial_phase_ms: best.1.serial_ms,
            wall_speedup_vs_serial: best.0 / base_wps,
        });
    }
    let serial_fraction = base_profile.serial_fraction();
    let amdahl_speedup_at_8 = 1.0 / (serial_fraction + (1.0 - serial_fraction) / 8.0);
    let provenance = Provenance::collect();
    let measured_at_8 = sweep
        .iter()
        .find(|r| r.shards == 8)
        .map_or(1.0, |r| r.wall_speedup_vs_serial);
    let (shard_speedup, shard_speedup_basis) = if provenance.host_parallelism >= 8 {
        (measured_at_8, "measured".to_string())
    } else {
        (
            amdahl_speedup_at_8,
            format!(
                "amdahl-projected (host_parallelism={})",
                provenance.host_parallelism
            ),
        )
    };

    let scale = if quick { Scale::Quick } else { Scale::Full };
    let routing_ms = experiment_wall_ms_at("fleet_routing", scale)?;
    Ok(FleetBenchReport {
        quick,
        provenance,
        shards,
        serial_windows_per_sec: serial,
        serial_run_parallel_phase_ms: serial_profile.parallel_ms,
        serial_run_serial_phase_ms: serial_profile.serial_ms,
        sharded_windows_per_sec: sharded,
        sharded_run_parallel_phase_ms: sharded_profile.parallel_ms,
        sharded_run_serial_phase_ms: sharded_profile.serial_ms,
        hall_enclosures: FLEET_HALL_BENCH_ENCLOSURES,
        shard_sweep: sweep,
        serial_fraction,
        amdahl_speedup_at_8,
        shard_speedup,
        shard_speedup_basis,
        fleet_routing_wall_ms: routing_ms,
    })
}

/// What `lab bench` measured about instrumentation overhead. A full run
/// writes this to `BENCH_obs.json` at the workspace root.
///
/// The `baseline_*` / `*_delta_pct` fields compare against the numbers
/// in the *committed* `BENCH_thermal.json` / `BENCH_fleet.json` (read
/// before this run overwrites them), so a committed `BENCH_obs.json`
/// records the genuine before/after cost of threading the recorder
/// through the hot loops. The `fleet_null_*` fields are an in-process
/// control: two interleaved null-sink measurements whose spread bounds
/// the benchmark's own noise floor.
#[derive(Debug, Serialize)]
pub struct ObsBenchReport {
    /// True when the quick (smoke-test) request counts were used.
    pub quick: bool,
    /// Where and when these numbers were taken.
    pub provenance: Provenance,
    /// Backward-Euler steps/sec with the cached factorization, measured
    /// at the full iteration count even under `--quick` (it is cheap).
    pub be_cached_steps_per_sec: f64,
    /// `be_cached_steps_per_sec` from the committed `BENCH_thermal.json`.
    pub baseline_be_cached_steps_per_sec: Option<f64>,
    /// Kernel slowdown vs the committed baseline, percent (positive =
    /// this tree is slower).
    pub be_cached_delta_pct: Option<f64>,
    /// Fleet kernel wall time with the null sink, ms (mean over the
    /// interleaved rounds).
    pub fleet_null_wall_ms: f64,
    /// Second, independent null-sink measurement, ms (mean over the
    /// same rounds, bracket order alternating so drift cancels).
    pub fleet_null_repeat_wall_ms: f64,
    /// Median paired deviation between the two null runs of each
    /// round, percent — the noise floor any overhead claim must clear.
    /// Paired within rounds so low-frequency host drift cancels.
    pub null_noise_pct: f64,
    /// Fleet kernel wall time with a recording (buffer) sink, ms.
    pub fleet_recording_wall_ms: f64,
    /// Recording-sink slowdown vs the faster null run, percent.
    pub recording_overhead_pct: f64,
    /// Events the recording run captured.
    pub recorded_events: u64,
    /// End-to-end `fleet_routing` wall time, ms (full mode only;
    /// best of 2).
    pub fleet_routing_wall_ms: Option<f64>,
    /// `fleet_routing_wall_ms` from the committed `BENCH_fleet.json`.
    pub baseline_fleet_routing_wall_ms: Option<f64>,
    /// `fleet_routing` slowdown vs the committed baseline, percent.
    pub fleet_routing_delta_pct: Option<f64>,
    /// Provenance notes on the recording path: what moved the committed
    /// numbers, with the before/after pair.
    pub notes: String,
}

/// What moved the committed recording numbers, with the same-host
/// parent pair a speedup claim needs. The sink measured here is a
/// buffer, which renders nothing, so of the two recording-path changes
/// only the merge reaches it; the tree-free encoder shows on NDJSON
/// recorders (`lab trace`, the end-to-end recorded-storm benchmark).
const OBS_RECORDING_NOTES: &str = "recording into a buffer sink: per-bay event runs now stream \
    through a serial borrowing heap merge instead of a pairwise merge that copied every \
    event into a fresh vector per level; rendering is untouched here (NDJSON recorders \
    gain the tree-free encoder). Parent abd843f on the same host, full run just before \
    this one: fleet_recording_wall_ms 52.8, recording_overhead_pct +105.6 (null 25.7 ms). \
    Three interleaved --quick pairs, recording minus null-sink time, parent vs this tree: \
    25.8/30.8/21.2 ms vs 19.9/17.7/18.2 ms.";

/// Reads one numeric field out of a committed `BENCH_*.json`, if the
/// file exists and has it.
fn baseline_field(file: &str, field: &str) -> Option<f64> {
    let path = workspace_root().ok()?.join(file);
    let text = std::fs::read_to_string(path).ok()?;
    let value: serde_json::Value = serde_json::from_str(&text).ok()?;
    value.get(field)?.as_f64()
}

/// Reads one string field out of a committed `BENCH_*.json`, if the
/// file exists and has it.
fn baseline_str_field(file: &str, field: &str) -> Option<String> {
    let path = workspace_root().ok()?.join(file);
    let text = std::fs::read_to_string(path).ok()?;
    let value: serde_json::Value = serde_json::from_str(&text).ok()?;
    value.get(field)?.as_str().map(str::to_string)
}

/// Fractional regression the `--quick` gate tolerates when diffing this
/// run's re-measured numbers against the committed full-run
/// `BENCH_*.json` baselines: a rate may fall to half its baseline, a
/// wall time may grow to 1.5x. Quick iteration counts are smoke-test
/// sized and CI hosts are noisy, so the gate is deliberately loose —
/// it exists to catch structural regressions (a lost cache, an
/// accidentally quadratic loop), not percent-level drift. A genuine
/// host change that trips it calls for regenerating the baselines with
/// a full `lab bench` run, not for widening the tolerance.
pub const REGRESSION_TOLERANCE: f64 = 0.5;

/// One quick-gate comparison: a metric this run re-measured against
/// the same field in a committed baseline file.
struct GateCheck {
    /// Baseline file name at the workspace root.
    file: &'static str,
    /// Field inside it (and the display name of the metric).
    field: &'static str,
    /// This run's measurement.
    now: f64,
    /// Whether the metric is a rate (bigger = faster) or a wall/latency
    /// number (smaller = faster).
    higher_is_better: bool,
}

/// Diffs quick-run measurements against the committed `BENCH_*.json`
/// baselines and fails past [`REGRESSION_TOLERANCE`], so `lab bench
/// --quick` (and `scripts/verify.sh` through it) exits non-zero when a
/// change costs a kernel its committed performance. Checks whose
/// baseline file or field is missing are skipped — a fresh checkout
/// without baselines still benches cleanly. Skipped entirely (with a
/// note) in unoptimized builds, where every number is an artifact of
/// the missing optimizer, not of the code under test.
fn gate_against_baselines(checks: &[GateCheck]) -> Result<(), LabError> {
    if cfg!(debug_assertions) {
        println!(
            "regression gate: skipped (unoptimized build; baselines are release numbers)"
        );
        return Ok(());
    }
    let mut compared = 0usize;
    let mut failures = Vec::new();
    for check in checks {
        let Some(base) = baseline_field(check.file, check.field) else {
            continue;
        };
        if !(base.is_finite() && base > 0.0) {
            continue;
        }
        compared += 1;
        let regression = if check.higher_is_better {
            (base - check.now) / base
        } else {
            (check.now - base) / base
        };
        if regression > REGRESSION_TOLERANCE {
            failures.push(format!(
                "{}:{} regressed {:.0}%: {:.3e} now vs {:.3e} committed",
                check.file,
                check.field,
                regression * 100.0,
                check.now,
                base
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "regression gate: {compared} baseline metric(s) within {:.0}% of committed",
            REGRESSION_TOLERANCE * 100.0
        );
        Ok(())
    } else {
        Err(LabError::Experiment(format!(
            "quick-bench regression gate failed ({} of {} checks):\n  {}",
            failures.len(),
            compared,
            failures.join("\n  ")
        )))
    }
}

/// CPU nanoseconds this process has consumed.
///
/// On Linux/x86_64, `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` by raw
/// syscall (the workspace links no libc-wrapping crate): full
/// nanosecond resolution, immune to scheduler preemption. Elsewhere,
/// falls back to the scheduler's `/proc/self/schedstat` accounting
/// (tick-quantized), or `None` off Linux entirely.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn cpu_ns() -> Option<u64> {
    let mut ts = [0i64; 2]; // (tv_sec, tv_nsec)
    let ret: i64;
    unsafe {
        std::arch::asm!(
            "syscall",
            in("rax") 228i64, // SYS_clock_gettime
            in("rdi") 2i64,   // CLOCK_PROCESS_CPUTIME_ID
            in("rsi") ts.as_mut_ptr(),
            out("rcx") _,
            out("r11") _,
            lateout("rax") ret,
        );
    }
    (ret == 0).then(|| ts[0] as u64 * 1_000_000_000 + ts[1] as u64)
}

/// See the x86_64 variant: tick-quantized scheduler accounting.
#[cfg(all(target_os = "linux", not(target_arch = "x86_64")))]
fn cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// No portable CPU clock here; callers fall back to wall time.
#[cfg(not(target_os = "linux"))]
fn cpu_ns() -> Option<u64> {
    None
}

/// Times one single-shard fleet-kernel run against the given sink, ms.
///
/// Prefers CPU time over wall time: the overhead comparison needs to
/// resolve fractions of a percent, and on a busy host wall clocks
/// charge scheduler preemption to whichever run it lands on. Falls
/// back to wall time where the scheduler stats are unavailable.
fn fleet_wall_ms_with(requests: u64, sink: &mut diskobs::Sink) -> Result<f64, LabError> {
    let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("obs bench: {e}"));
    let mut config = FleetConfig::serial(
        FLEET_BENCH_ENCLOSURES,
        DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
        DriveThermalSpec::new(Inches::new(2.6), 1),
        12.0,
    )
    .map_err(|e| fail(&e))?;
    config.threads = 1;
    let fleet = Fleet::new(config).map_err(|e| fail(&e))?;
    let trace = fleet_bench_trace(requests, 400.0);
    let cpu_start = cpu_ns();
    let start = Instant::now();
    fleet.run_with_sink(trace, sink).map_err(|e| fail(&e))?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(match (cpu_start, cpu_ns()) {
        (Some(a), Some(b)) if b > a => (b - a) as f64 / 1e6,
        _ => wall_ms,
    })
}

/// Measures the observability tax: the fleet kernel with a null sink
/// (twice, interleaved, to expose the noise floor) against the same
/// kernel with a recording sink, plus this tree's thermal-kernel and
/// `fleet_routing` numbers diffed against the committed baselines.
///
/// Call this *before* overwriting the `BENCH_*.json` baselines.
pub fn obs_bench(quick: bool) -> Result<ObsBenchReport, LabError> {
    let baseline_be = baseline_field("BENCH_thermal.json", "be_cached_steps_per_sec");
    let baseline_routing = baseline_field("BENCH_fleet.json", "fleet_routing_wall_ms");

    // Full-size kernel measurement even in quick mode: 200k cached
    // steps run in ~10 ms, and keeping the count fixed keeps the
    // number comparable to the committed baseline.
    let model = ThermalModel::new(DriveThermalSpec::cheetah_15k3());
    let op = OperatingPoint::seeking(Rpm::new(15_000.0));
    let be_cached = (0..3)
        .map(|_| be_steps_per_sec(&model, op, 200_000, true))
        .fold(0.0_f64, f64::max);

    // Two independent null-sink measurements bracket every recording
    // run, with the bracket order alternating round to round, so any
    // monotonic drift (cgroup throttling, cache warming) hits both
    // null series equally and cancels in the means. Runs are long
    // enough (tens of ms) that timer jitter cannot fake a
    // percent-level signal; the whole measurement is under a second
    // in either mode, so the count does not shrink under `--quick` —
    // a shorter run would only add noise.
    let requests = 48_000;
    const ROUNDS: usize = 9;
    let (mut null_a, mut rec, mut null_b) = (Vec::new(), Vec::new(), Vec::new());
    let mut ratios = Vec::new();
    let mut recorded_events = 0u64;
    for round in 0..ROUNDS {
        let mut buffer = diskobs::Sink::buffer();
        rec.push(fleet_wall_ms_with(requests, &mut buffer)?);
        recorded_events = buffer.drain().len() as u64;
        drop(buffer);
        // A discarded warmup run absorbs the allocator churn the
        // recording buffer leaves behind, so the paired null runs that
        // follow see identical machine state.
        let mut warmup = diskobs::Sink::null();
        let _ = fleet_wall_ms_with(requests, &mut warmup)?;
        let mut first = diskobs::Sink::null();
        let first_ms = fleet_wall_ms_with(requests, &mut first)?;
        let mut second = diskobs::Sink::null();
        let second_ms = fleet_wall_ms_with(requests, &mut second)?;
        let (a_ms, b_ms) = if round % 2 == 0 {
            (first_ms, second_ms)
        } else {
            (second_ms, first_ms)
        };
        null_a.push(a_ms);
        null_b.push(b_ms);
        // Pair the adjacent null runs of the *same* round: they sit
        // well inside any low-frequency host drift, so their ratio
        // isolates genuine systematic differences.
        ratios.push(a_ms / b_ms);
    }
    // Medians, not means: one pathological round (a scheduler or GC
    // spike on the host) should cost a sample, not skew the verdict.
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (null_a, rec, null_b) = (median(null_a), median(rec), median(null_b));
    let null_best = null_a.min(null_b);
    let noise_pct = (median(ratios) - 1.0).abs() * 100.0;
    let recording_overhead_pct = (rec - null_best) / null_best * 100.0;

    let routing_ms = if quick {
        None
    } else {
        // CPU clock and best-of-3: the end-to-end experiment swings
        // ±10% on wall time under host interference, which would drown
        // the 2% bound this comparison exists to check.
        let mut best = f64::MAX;
        for _ in 0..3 {
            let exp = registry::by_name("fleet_routing", Scale::Full)
                .ok_or_else(|| LabError::Experiment("fleet_routing not registered".into()))?;
            let cpu_start = cpu_ns();
            let start = Instant::now();
            black_box(exp.run()?);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            best = best.min(match (cpu_start, cpu_ns()) {
                (Some(a), Some(b)) if b > a => (b - a) as f64 / 1e6,
                _ => wall_ms,
            });
        }
        Some(best)
    };

    let delta = |now: f64, base: Option<f64>, higher_is_better: bool| {
        base.map(|b| {
            if higher_is_better {
                (b - now) / b * 100.0
            } else {
                (now - b) / b * 100.0
            }
        })
    };
    Ok(ObsBenchReport {
        quick,
        provenance: Provenance::collect(),
        be_cached_steps_per_sec: be_cached,
        baseline_be_cached_steps_per_sec: baseline_be,
        be_cached_delta_pct: delta(be_cached, baseline_be, true),
        fleet_null_wall_ms: null_a,
        fleet_null_repeat_wall_ms: null_b,
        null_noise_pct: noise_pct,
        fleet_recording_wall_ms: rec,
        recording_overhead_pct,
        recorded_events,
        fleet_routing_wall_ms: routing_ms,
        baseline_fleet_routing_wall_ms: baseline_routing,
        fleet_routing_delta_pct: routing_ms
            .and_then(|now| delta(now, baseline_routing, false)),
        notes: OBS_RECORDING_NOTES.to_string(),
    })
}

/// Runs the benchmark suite. Quick mode shrinks the iteration counts to
/// smoke-test territory and does not write `BENCH_thermal.json`.
/// What the digital-twin benchmark measured. A full `lab bench` run
/// writes this to `BENCH_twin.json` at the workspace root.
#[derive(Debug, Serialize)]
pub struct TwinBenchReport {
    /// True when the quick (smoke-test) iteration counts were used.
    pub quick: bool,
    /// Where/when this run happened.
    pub provenance: Provenance,
    /// Serialized checkpoint size for the benchmarked twin, bytes.
    pub state_bytes: u64,
    /// Checkpoint serializations (state → versioned bytes) per second.
    pub checkpoint_encode_per_sec: f64,
    /// Encode throughput in MB/s of checkpoint bytes produced.
    pub checkpoint_encode_mb_per_sec: f64,
    /// Checkpoint restores (bytes → validated state → live twin) per
    /// second.
    pub checkpoint_restore_per_sec: f64,
    /// Mean in-memory fork latency (capture + rebuild), ms.
    pub fork_latency_ms: f64,
    /// One pinned what-if query (two forks over the horizon), ms.
    pub whatif_wall_ms: f64,
    /// Provenance notes on the restore and encode paths: what moved the
    /// committed numbers and why.
    pub notes: String,
}

/// Why restore now sits near encode parity instead of 55x behind it
/// (744/s encode vs 13.6/s restore in the baseline committed at
/// 8d04c84). Profiling split that 73 ms restore into ~62 ms of JSON
/// parsing and ~0.03 ms of actual state rebuild: the vendored parser
/// re-validated UTF-8 over the whole remaining input for every string
/// character (quadratic in body size). Unescaped runs are now
/// bulk-copied and validated once — the framed FNV-1a checksum plus one
/// linear UTF-8 pass is all the byte-level validation a body needs —
/// and `CalendarQueue::from_sorted_entries` preallocates its buckets
/// from the recorded sizes. The structural re-validation in
/// `StorageSystem::restore_state` stays: it guards against states whose
/// JSON parses but whose links are inconsistent, and it measures in the
/// tens of microseconds. Encode later stopped building a value tree:
/// the body streams through `Serialize::write_json`, byte-identical.
/// The encode pair's parent number comes from a run on the same host
/// just before this one.
const TWIN_NOTES: &str = "restore was parser-bound, not validation-bound: \
    quadratic per-char UTF-8 re-validation in the vendored JSON parser cost ~62 ms \
    of the 73 ms restore; unescaped runs are now copied in bulk and validated once, \
    and calendar buckets preallocate from recorded sizes. Structural link validation \
    (~0.03 ms) is kept. Encode renders the body field by field instead of through a \
    value tree, with identical bytes; parent abd843f on the same host, full run just \
    before this one: checkpoint_encode_per_sec 496 (76.3 MB/s).";

/// Times the digital-twin state machinery: checkpoint encode/restore
/// throughput, in-memory fork latency, and one end-to-end what-if.
pub fn twin_bench(quick: bool) -> Result<TwinBenchReport, LabError> {
    let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("twin bench: {e}"));
    let (reps, warm_epochs, horizon) = if quick { (20u32, 2, 2) } else { (200u32, 4, 8) };
    let mut twin =
        Twin::new(TwinConfig::preset(workloads::oltp(), 4)).map_err(|e| fail(&e))?;
    for _ in 0..warm_epochs {
        twin.advance_epoch().map_err(|e| fail(&e))?;
    }
    let state = twin.capture_state();

    let start = Instant::now();
    let mut bytes = 0u64;
    for _ in 0..reps {
        bytes = black_box(encode(&state).map_err(|e| fail(&e))?).len() as u64;
    }
    let encode_s = start.elapsed().as_secs_f64().max(1e-9);

    let encoded = encode(&state).map_err(|e| fail(&e))?;
    let start = Instant::now();
    for _ in 0..reps {
        let restored =
            Twin::restore_state(decode(&encoded).map_err(|e| fail(&e))?).map_err(|e| fail(&e))?;
        black_box(restored.epoch());
    }
    let restore_s = start.elapsed().as_secs_f64().max(1e-9);

    let start = Instant::now();
    for _ in 0..reps {
        let fork = twin.fork().map_err(|e| fail(&e))?;
        black_box(fork.epoch());
    }
    let fork_s = start.elapsed().as_secs_f64().max(1e-9);

    let start = Instant::now();
    let report = whatif(
        &state,
        &WhatIf {
            inlet_delta_c: Some(5.0),
            ..WhatIf::default()
        },
        horizon,
        None,
    )
    .map_err(|e| fail(&e))?;
    black_box(report.baseline.completed);
    let whatif_s = start.elapsed().as_secs_f64();

    Ok(TwinBenchReport {
        quick,
        provenance: Provenance::collect(),
        state_bytes: bytes,
        checkpoint_encode_per_sec: f64::from(reps) / encode_s,
        checkpoint_encode_mb_per_sec: (bytes * u64::from(reps)) as f64 / encode_s / 1e6,
        checkpoint_restore_per_sec: f64::from(reps) / restore_s,
        fork_latency_ms: fork_s * 1e3 / f64::from(reps),
        whatif_wall_ms: whatif_s * 1e3,
        notes: TWIN_NOTES.to_string(),
    })
}

/// What the scenario-subsystem benchmark measured. `lab bench scenario`
/// writes this to `BENCH_scenario.json` at the workspace root.
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
    let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("scenario bench: {e}"));
    let mut config = FleetConfig::serial(
        FLEET_BENCH_ENCLOSURES,
        DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
        DriveThermalSpec::new(Inches::new(2.6), 1),
        12.0,
    )
    .map_err(|e| fail(&e))?;
    config.array = Some(diskfleet::EnclosureArray {
        disks: 4,
        stripe_sectors: 65_536,
    });
    Fleet::new(config).map_err(|e| fail(&e))
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

/// `lab bench scenario` — run only the scenario suite, print it, and
/// (full mode) write `BENCH_scenario.json` at the workspace root.
pub fn run_scenario_bench(quick: bool) -> Result<ScenarioBenchReport, LabError> {
    let report = scenario_bench(quick)?;
    println!(
        "scenario subsystem ({FLEET_BENCH_ENCLOSURES} RAID-5 enclosures, OLTP stream):"
    );
    println!(
        "  replay-source draws:         {:>12.0} requests/s",
        report.replay_draws_per_sec
    );
    println!(
        "  epoch cost, unperturbed:     {:>12.2} ms/epoch",
        report.baseline_epoch_ms
    );
    println!(
        "  epoch cost, rebuild storm:   {:>12.2} ms/epoch  ({:+.1}%)",
        report.storm_epoch_ms, report.storm_overhead_pct
    );
    if quick {
        // Per-epoch and per-draw costs are scale-free, so they diff
        // cleanly against the committed full run.
        gate_against_baselines(&[
            GateCheck {
                file: "BENCH_scenario.json",
                field: "replay_draws_per_sec",
                now: report.replay_draws_per_sec,
                higher_is_better: true,
            },
            GateCheck {
                file: "BENCH_scenario.json",
                field: "baseline_epoch_ms",
                now: report.baseline_epoch_ms,
                higher_is_better: false,
            },
        ])?;
    } else {
        let root = workspace_root()?;
        let path = root.join("BENCH_scenario.json");
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| LabError::Parse(e.to_string()))?;
        std::fs::write(&path, json + "\n")?;
        diskobs::logger::info(&format!("wrote {}", path.display()));
    }
    Ok(report)
}

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

/// `lab bench surrogate` — run only the surrogate suite, print it, and
/// (full mode) write `BENCH_surrogate.json` at the workspace root.
pub fn run_surrogate_bench(quick: bool) -> Result<SurrogateBenchReport, LabError> {
    let report = surrogate_bench(quick)?;
    println!("surrogate screening (capacity-plan knob grid, OLTP preset):");
    println!(
        "  training sweep:              {:>12.1} ms  ({} full sims)",
        report.train_sweep_ms, report.training_points
    );
    println!("  grid fit:                    {:>12.2} ms", report.fit_ms);
    println!(
        "  full sim per candidate:      {:>12.2} ms  (mean of {})",
        report.full_sim_ms_per_candidate, report.full_sims_timed
    );
    println!(
        "  surrogate screen:            {:>12.0} ns/candidate  ({} screenings)",
        report.screen_ns_per_candidate, report.candidates_screened
    );
    println!(
        "  screening speedup:           {:>12.0}x  (measured; floor 100x)",
        report.screening_speedup
    );
    if quick {
        // The speedup ratio itself shrinks with the quick sims, so the
        // gate pins the scale-free side: the per-candidate screening
        // cost against the same slate the committed run timed.
        gate_against_baselines(&[GateCheck {
            file: "BENCH_surrogate.json",
            field: "screen_ns_per_candidate",
            now: report.screen_ns_per_candidate,
            higher_is_better: false,
        }])?;
    } else {
        let root = workspace_root()?;
        let path = root.join("BENCH_surrogate.json");
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| LabError::Parse(e.to_string()))?;
        std::fs::write(&path, json + "\n")?;
        diskobs::logger::info(&format!("wrote {}", path.display()));
    }
    Ok(report)
}

pub fn run_bench(quick: bool) -> Result<BenchReport, LabError> {
    let (kernel_steps, cold_solves, memo_solves) = if quick {
        (20_000, 2_000, 20_000)
    } else {
        (200_000, 20_000, 200_000)
    };

    let model = ThermalModel::new(DriveThermalSpec::cheetah_15k3());
    let op = OperatingPoint::seeking(Rpm::new(15_000.0));

    diskobs::logger::info(&format!(
        "lab bench ({} mode): {} integrator steps, {} cold + {} memoized steady solves",
        if quick { "quick" } else { "full" },
        kernel_steps,
        cold_solves,
        memo_solves
    ));

    let be_prepr = be_prepr_steps_per_sec(&model, op, kernel_steps);
    let be_naive = be_steps_per_sec(&model, op, kernel_steps, false);
    let be_cached = be_steps_per_sec(&model, op, kernel_steps, true);
    let fe = fe_steps_per_sec(&model, op, kernel_steps);
    let steady_cold = steady_solves_per_sec(&model, cold_solves, true);
    let steady_memo = steady_solves_per_sec(&model, memo_solves, false);
    let figure5_ms = experiment_wall_ms("figure5")?;
    let figure7_ms = experiment_wall_ms("figure7")?;

    let report = BenchReport {
        quick,
        provenance: Provenance::collect(),
        be_prepr_steps_per_sec: be_prepr,
        be_naive_steps_per_sec: be_naive,
        be_cached_steps_per_sec: be_cached,
        cached_speedup: be_cached / be_prepr,
        fe_steps_per_sec: fe,
        steady_cold_solves_per_sec: steady_cold,
        steady_memoized_solves_per_sec: steady_memo,
        figure5_wall_ms: figure5_ms,
        figure7_wall_ms: figure7_ms,
    };

    println!("thermal kernel (dt = {DT} s, constant operating point):");
    println!(
        "  backward Euler, pre-rewrite (heap + eliminate): {:>12.0} steps/s",
        report.be_prepr_steps_per_sec
    );
    println!(
        "  backward Euler, stack arrays, factor per step:  {:>12.0} steps/s",
        report.be_naive_steps_per_sec
    );
    println!(
        "  backward Euler, cached factorization:           {:>12.0} steps/s  ({:.1}x vs pre-rewrite)",
        report.be_cached_steps_per_sec, report.cached_speedup
    );
    println!(
        "  forward Euler:                                  {:>12.0} steps/s",
        report.fe_steps_per_sec
    );
    println!("steady-state solves:");
    println!(
        "  cold (distinct operating points):          {:>12.0} solves/s",
        report.steady_cold_solves_per_sec
    );
    println!(
        "  memoized (repeated operating point):       {:>12.0} solves/s",
        report.steady_memoized_solves_per_sec
    );
    println!("end-to-end experiments (single-threaded, no cache):");
    println!("  figure5: {:>8.1} ms", report.figure5_wall_ms);
    println!("  figure7: {:>8.1} ms", report.figure7_wall_ms);

    // The sim and obs benches diff against *committed* baselines, so
    // both run before the write block below refreshes the files.
    let sim = sim_bench(quick)?;
    println!("storage event core (single shard, figure-scale trace):");
    match (sim.windows_speedup, sim.baseline_fleet_serial_windows_per_sec) {
        (Some(speedup), Some(base)) => println!(
            "  window loop:                 {:>12.0} windows/s  ({:.2}x vs committed fleet serial {:.0})",
            sim.windows_per_sec, speedup, base
        ),
        _ => println!(
            "  window loop (no baseline):   {:>12.0} windows/s",
            sim.windows_per_sec
        ),
    }
    println!(
        "  event throughput:            {:>12.0} events/s",
        sim.events_per_sec
    );
    println!(
        "  calendar queue hold churn:   {:>12.0} ops/s  ({:.2}x vs BinaryHeap {:.0})",
        sim.calendar_hold_ops_per_sec,
        sim.calendar_vs_heap_speedup,
        sim.heap_hold_ops_per_sec
    );

    let fleet = fleet_bench(quick)?;
    println!(
        "fleet event loop ({FLEET_BENCH_ENCLOSURES} drives, serial airflow):"
    );
    let rack_total = fleet.serial_run_parallel_phase_ms + fleet.serial_run_serial_phase_ms;
    println!(
        "  1 shard:                     {:>12.0} drive-windows/s  ({:.1} ms sweep + {:.1} ms sync, {:.0}% serial)",
        fleet.serial_windows_per_sec,
        fleet.serial_run_parallel_phase_ms,
        fleet.serial_run_serial_phase_ms,
        if rack_total > 0.0 {
            fleet.serial_run_serial_phase_ms / rack_total * 100.0
        } else {
            0.0
        }
    );
    println!(
        "  {} shards:                    {:>12.0} drive-windows/s  ({:.1}x; {:.1} ms sweep + {:.1} ms sync)",
        fleet.shards,
        fleet.sharded_windows_per_sec,
        fleet.sharded_windows_per_sec / fleet.serial_windows_per_sec,
        fleet.sharded_run_parallel_phase_ms,
        fleet.sharded_run_serial_phase_ms
    );
    println!(
        "fleet shard sweep ({} drives, hierarchical hall airflow, thermal-aware routing):",
        fleet.hall_enclosures
    );
    for row in &fleet.shard_sweep {
        println!(
            "  {} shard(s):                  {:>12.0} drive-windows/s  ({:.2}x wall; {:.1} ms parallel + {:.1} ms serial)",
            row.shards,
            row.windows_per_sec,
            row.wall_speedup_vs_serial,
            row.parallel_phase_ms,
            row.serial_phase_ms
        );
    }
    println!(
        "  serial fraction:             {:>12.2} %  (Amdahl cap at 8 shards: {:.1}x)",
        fleet.serial_fraction * 100.0,
        fleet.amdahl_speedup_at_8
    );
    println!(
        "  shard speedup at 8:          {:>12.1} x  ({})",
        fleet.shard_speedup, fleet.shard_speedup_basis
    );
    println!(
        "  fleet_routing experiment:    {:>12.1} ms",
        fleet.fleet_routing_wall_ms
    );

    // Measure the observability tax *before* refreshing the baselines,
    // so the deltas below compare against the committed numbers.
    let mut obs = obs_bench(quick)?;
    if obs.null_noise_pct >= 2.0 {
        // A burst of host interference can push even the paired
        // statistic past the margin; one remeasure separates transient
        // noise from a genuine regression. Keep the quieter run.
        diskobs::logger::info(&format!(
            "null-sink noise {:.2}% above margin; remeasuring once",
            obs.null_noise_pct
        ));
        let again = obs_bench(quick)?;
        if again.null_noise_pct < obs.null_noise_pct {
            obs = again;
        }
    }
    println!("observability overhead (null sink vs recording, 1 shard):");
    println!(
        "  fleet kernel, null sink:     {:>12.2} ms  (repeat {:.2} ms, noise {:.2}%)",
        obs.fleet_null_wall_ms, obs.fleet_null_repeat_wall_ms, obs.null_noise_pct
    );
    println!(
        "  fleet kernel, recording:     {:>12.2} ms  ({:+.2}%, {} events)",
        obs.fleet_recording_wall_ms, obs.recording_overhead_pct, obs.recorded_events
    );
    match (obs.be_cached_delta_pct, obs.baseline_be_cached_steps_per_sec) {
        (Some(delta), Some(base)) => println!(
            "  be_cached vs baseline:       {:>12.0} steps/s  ({:+.2}% vs {:.0})",
            obs.be_cached_steps_per_sec, delta, base
        ),
        _ => println!(
            "  be_cached (no baseline):     {:>12.0} steps/s",
            obs.be_cached_steps_per_sec
        ),
    }
    if let (Some(now), Some(delta), Some(base)) = (
        obs.fleet_routing_wall_ms,
        obs.fleet_routing_delta_pct,
        obs.baseline_fleet_routing_wall_ms,
    ) {
        println!(
            "  fleet_routing vs baseline:   {:>12.1} ms  ({:+.2}% vs {:.1} ms)",
            now, delta, base
        );
    }

    let twin = twin_bench(quick)?;
    println!("digital twin (4 drives, OLTP stream):");
    println!(
        "  checkpoint encode:           {:>12.0} states/s  ({:.1} MB/s, {} bytes/state)",
        twin.checkpoint_encode_per_sec, twin.checkpoint_encode_mb_per_sec, twin.state_bytes
    );
    println!(
        "  checkpoint restore:          {:>12.0} states/s",
        twin.checkpoint_restore_per_sec
    );
    println!(
        "  fork latency:                {:>12.3} ms",
        twin.fork_latency_ms
    );
    println!(
        "  what-if (2 forks, {} epochs): {:>11.1} ms",
        if quick { 2 } else { 8 },
        twin.whatif_wall_ms
    );

    if quick {
        // The in-process bound `--quick` asserts: two interleaved
        // null-sink measurements of the same kernel must agree to
        // within 4%. Both sides run in this process moments apart, so
        // the check is machine-independent; the margin sits above the
        // paired-CPU-time noise floor observed on shared containers
        // (~2.5%), and the committed BENCH_obs.json pins the tighter
        // <2% before/after deltas on the acceptance metrics.
        if obs.null_noise_pct >= 4.0 {
            return Err(LabError::Experiment(format!(
                "obs overhead bound violated: null-sink noise {:.2}% >= 4% \
                 ({:.2} ms vs {:.2} ms)",
                obs.null_noise_pct, obs.fleet_null_wall_ms, obs.fleet_null_repeat_wall_ms
            )));
        }
        println!("obs overhead bound holds: null-sink noise {:.2}% < 4%", obs.null_noise_pct);
        // The shard-scaling bound `--quick` asserts: the hall workload's
        // epoch boundary must stay almost entirely parallel. The
        // committed BENCH_fleet.json pins the tighter < 3%; the gate
        // doubles it so host noise on a busy CI box costs a rerun, not
        // a false regression.
        if fleet.serial_fraction >= 0.06 {
            return Err(LabError::Experiment(format!(
                "fleet shard-scaling bound violated: serial fraction {:.2}% >= 6% \
                 ({:.1} ms serial vs {:.1} ms parallel on the hall workload)",
                fleet.serial_fraction * 100.0,
                fleet.shard_sweep[0].serial_phase_ms,
                fleet.shard_sweep[0].parallel_phase_ms
            )));
        }
        println!(
            "fleet shard-scaling bound holds: serial fraction {:.2}% < 6%",
            fleet.serial_fraction * 100.0
        );
        // The cross-run gate: this quick run's rates against the
        // committed baselines. Scale-dependent numbers stay out (quick
        // shrinks them by design); the hall shard speedup only enters
        // when both sides are wall-clock measurements — on a small
        // host the committed number may be an Amdahl projection, and a
        // projection diffed against a measurement gates physics, not
        // code.
        let mut checks = vec![
            GateCheck {
                file: "BENCH_thermal.json",
                field: "be_cached_steps_per_sec",
                now: report.be_cached_steps_per_sec,
                higher_is_better: true,
            },
            GateCheck {
                file: "BENCH_thermal.json",
                field: "fe_steps_per_sec",
                now: report.fe_steps_per_sec,
                higher_is_better: true,
            },
            GateCheck {
                file: "BENCH_thermal.json",
                field: "steady_memoized_solves_per_sec",
                now: report.steady_memoized_solves_per_sec,
                higher_is_better: true,
            },
            GateCheck {
                file: "BENCH_thermal.json",
                field: "figure5_wall_ms",
                now: report.figure5_wall_ms,
                higher_is_better: false,
            },
            GateCheck {
                file: "BENCH_sim.json",
                field: "windows_per_sec",
                now: sim.windows_per_sec,
                higher_is_better: true,
            },
            // No calendar-vs-heap check: the calendar queue spends its
            // first few hundred thousand holds in a bucket-resize
            // transient, so quick op counts measure the transient, not
            // the steady state the committed number records (measured
            // ratio climbs 0.15 -> 1.46 between 50k and 2M holds).
            // The window loop above churns the same queue on the real
            // event path and is scale-free per window.
            GateCheck {
                file: "BENCH_fleet.json",
                field: "serial_windows_per_sec",
                now: fleet.serial_windows_per_sec,
                higher_is_better: true,
            },
            GateCheck {
                file: "BENCH_twin.json",
                field: "checkpoint_encode_per_sec",
                now: twin.checkpoint_encode_per_sec,
                higher_is_better: true,
            },
            GateCheck {
                file: "BENCH_twin.json",
                field: "checkpoint_restore_per_sec",
                now: twin.checkpoint_restore_per_sec,
                higher_is_better: true,
            },
        ];
        let committed_basis = baseline_str_field("BENCH_fleet.json", "shard_speedup_basis");
        if fleet.shard_speedup_basis == "measured"
            && committed_basis.as_deref() == Some("measured")
        {
            checks.push(GateCheck {
                file: "BENCH_fleet.json",
                field: "shard_speedup",
                now: fleet.shard_speedup,
                higher_is_better: true,
            });
        }
        gate_against_baselines(&checks)?;
    } else {
        let root = workspace_root()?;
        for (name, json) in [
            ("BENCH_thermal.json", serde_json::to_string_pretty(&report)),
            ("BENCH_sim.json", serde_json::to_string_pretty(&sim)),
            ("BENCH_fleet.json", serde_json::to_string_pretty(&fleet)),
            ("BENCH_obs.json", serde_json::to_string_pretty(&obs)),
            ("BENCH_twin.json", serde_json::to_string_pretty(&twin)),
        ] {
            let path = root.join(name);
            let json = json.map_err(|e| LabError::Parse(e.to_string()))?;
            std::fs::write(&path, json + "\n")?;
            diskobs::logger::info(&format!("wrote {}", path.display()));
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_benchmarks_report_positive_rates() {
        let model = ThermalModel::new(DriveThermalSpec::cheetah_15k3());
        let op = OperatingPoint::seeking(Rpm::new(15_000.0));
        assert!(be_steps_per_sec(&model, op, 500, false) > 0.0);
        assert!(be_steps_per_sec(&model, op, 500, true) > 0.0);
        assert!(fe_steps_per_sec(&model, op, 500) > 0.0);
        assert!(steady_solves_per_sec(&model, 50, true) > 0.0);
        assert!(steady_solves_per_sec(&model, 50, false) > 0.0);
    }

    #[test]
    fn fleet_kernel_benchmark_reports_positive_rates_and_phases() {
        let (serial, profile) = fleet_windows_per_sec(1, 200).unwrap();
        assert!(serial > 0.0);
        assert!(profile.epochs > 0);
        assert!(profile.parallel_ms > 0.0);
        assert!((0.0..=1.0).contains(&profile.serial_fraction()));
        let (sharded, _) = fleet_windows_per_sec(4, 200).unwrap();
        assert!(sharded > 0.0);
    }

    #[test]
    fn sim_window_loop_reports_positive_rates() {
        let (wps, eps) = sim_windows_per_sec(200, 1).unwrap();
        assert!(wps > 0.0);
        assert!(eps > 0.0);
    }

    #[test]
    fn queue_hold_churn_is_deterministic_and_positive() {
        assert!(queue_hold_ops_per_sec(2_000, true) > 0.0);
        assert!(queue_hold_ops_per_sec(2_000, false) > 0.0);
    }

    #[test]
    fn twin_bench_reports_positive_rates() {
        let report = twin_bench(true).unwrap();
        assert!(report.state_bytes > 0);
        assert!(report.checkpoint_encode_per_sec > 0.0);
        assert!(report.checkpoint_encode_mb_per_sec > 0.0);
        assert!(report.checkpoint_restore_per_sec > 0.0);
        assert!(report.fork_latency_ms > 0.0);
        assert!(report.whatif_wall_ms > 0.0);
    }

    #[test]
    fn scenario_bench_reports_positive_rates() {
        let report = scenario_bench(true).unwrap();
        assert!(report.replay_draws_per_sec > 0.0);
        assert!(report.baseline_epoch_ms > 0.0);
        assert!(report.storm_epoch_ms > 0.0);
    }

    #[test]
    fn civil_from_days_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        // 2024 was a leap year: Feb 29 exists, Mar 1 follows.
        assert_eq!(civil_from_days(19_723 + 59), (2024, 2, 29));
        assert_eq!(civil_from_days(19_723 + 60), (2024, 3, 1));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn provenance_is_populated() {
        let p = Provenance::collect();
        assert!(p.host_parallelism >= 1);
        assert_eq!(p.date_utc.len(), 10);
        assert!(!p.git_commit.is_empty());
    }

    #[test]
    fn recording_run_captures_events_and_null_run_is_timed() {
        let mut null = diskobs::Sink::null();
        assert!(fleet_wall_ms_with(150, &mut null).unwrap() > 0.0);
        let mut buffer = diskobs::Sink::buffer();
        assert!(fleet_wall_ms_with(150, &mut buffer).unwrap() > 0.0);
        let events = buffer.drain();
        assert!(events.len() > 150, "expected a rich stream, got {}", events.len());
    }
}

