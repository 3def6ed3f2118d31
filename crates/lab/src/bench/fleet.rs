//! Fleet event-loop suite: the rack at one and many shards, and the
//! hall's shard sweep with its parallel/serial phase split.

use crate::{LabError, Scale};
use diskfleet::{AirflowGraph, Fleet, FleetConfig, FleetPhaseProfile};
use disksim::{DiskSpec, Request, RequestKind};
use diskthermal::DriveThermalSpec;
use serde::Serialize;
use serde_json::Value;
use std::time::Instant;
use units::{Inches, Rpm, Seconds};

use super::{experiment_wall_ms, Provenance};

/// Drives in the fleet-kernel benchmark rack.
pub(super) const FLEET_BENCH_ENCLOSURES: usize = 8;
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
pub(super) fn fleet_bench_trace(requests: u64, rate: f64) -> Vec<Request> {
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

/// The benchmark rack's config: `enclosures` 2002-era 15K drives with
/// 2.6" platters in one serial air stream.
pub(super) fn rack_config(enclosures: usize) -> Result<FleetConfig, LabError> {
    FleetConfig::serial(
        enclosures,
        DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
        DriveThermalSpec::new(Inches::new(2.6), 1),
        12.0,
    )
    .map_err(|e| LabError::Experiment(format!("fleet bench: {e}")))
}

/// Times one run of `config` over `requests` arrivals at `rate` per
/// second, returning drive-windows advanced per second and where the
/// wall-clock went.
fn timed_run(
    config: FleetConfig,
    enclosures: usize,
    rate: f64,
    requests: u64,
) -> Result<(f64, FleetPhaseProfile), LabError> {
    let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("fleet bench: {e}"));
    let fleet = Fleet::new(config).map_err(|e| fail(&e))?;
    let trace = fleet_bench_trace(requests, rate);
    let mut sink = diskobs::Sink::null();
    let start = Instant::now();
    let (report, profile) = fleet.run_profiled(trace, &mut sink).map_err(|e| fail(&e))?;
    let elapsed = start.elapsed().as_secs_f64();
    let windows = report.epochs * (FLEET_BENCH_WINDOWS_PER_EPOCH * enclosures) as u64;
    Ok((windows as f64 / elapsed, profile))
}

/// Times one run of the rack at the given shard count.
pub(super) fn fleet_windows_per_sec(
    threads: usize,
    requests: u64,
) -> Result<(f64, FleetPhaseProfile), LabError> {
    let mut config = rack_config(FLEET_BENCH_ENCLOSURES)?;
    config.threads = threads;
    timed_run(config, FLEET_BENCH_ENCLOSURES, 400.0, requests)
}

/// Times one hall-workload run (hierarchical airflow, thermal-aware
/// routing) at the given shard count.
fn fleet_hall_windows_per_sec(
    threads: usize,
    requests: u64,
) -> Result<(f64, FleetPhaseProfile), LabError> {
    let mut config = rack_config(FLEET_HALL_BENCH_ENCLOSURES)?;
    config.airflow = AirflowGraph::hall(
        FLEET_HALL_BENCH_ENCLOSURES,
        FLEET_HALL_PER_RACK,
        FLEET_HALL_RACKS_PER_ROW,
        config.thermal.ambient(),
        4.0e-3,
        1.2e-4,
        7.0e-5,
    )
    .map_err(|e| LabError::Experiment(format!("fleet hall bench: {e}")))?;
    config.routing = diskfleet::RoutingPolicy::ThermalAware {
        envelope: diskthermal::THERMAL_ENVELOPE,
    };
    config.threads = threads;
    timed_run(
        config,
        FLEET_HALL_BENCH_ENCLOSURES,
        FLEET_HALL_RATE,
        requests,
    )
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
    let routing_ms = experiment_wall_ms("fleet_routing", scale)?;
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

/// The fleet suite's report. Under `--quick` it also asserts the
/// shard-scaling bound: the hall workload's epoch boundary must stay
/// almost entirely parallel. The committed `BENCH_fleet.json` pins the
/// tighter < 3%; the bound doubles it so host noise on a busy CI box
/// costs a rerun, not a false regression.
pub(super) fn measure(quick: bool) -> Result<Value, LabError> {
    let fleet = fleet_bench(quick)?;
    if quick {
        if fleet.serial_fraction >= 0.06 {
            return Err(LabError::Experiment(format!(
                "fleet shard-scaling bound violated: serial fraction {:.2}% >= 6% \
                 ({:.1} ms serial vs {:.1} ms parallel on the hall workload)",
                fleet.serial_fraction * 100.0,
                fleet.shard_sweep[0].serial_phase_ms,
                fleet.shard_sweep[0].parallel_phase_ms
            )));
        }
        diskobs::logger::info(&format!(
            "fleet shard-scaling bound holds: serial fraction {:.2}% < 6%",
            fleet.serial_fraction * 100.0
        ));
    }
    Ok(fleet.to_value())
}
