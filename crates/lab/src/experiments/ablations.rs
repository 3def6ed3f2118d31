//! Model ablations of the design choices DESIGN.md calls out — what
//! changes in the outputs when one choice moves:
//!
//! - ZBR aggressiveness: capacity and peak IDR vs zone count (§4.2).
//! - FD time step: explicit-Euler air temperature after ten minutes
//!   against a 10 ms implicit reference (§3.3's 600 steps/min).
//! - Scheduler: mean response under a 500-request backlog per policy.
//! - Cache size: hit rate and mean response on a TPC-H-like stream.

use crate::experiments::config_object;
use crate::text::{outln, rule};
use crate::{Experiment, LabError, RunOutput};
use disksim::{
    CacheConfig, Completion, DiskSpec, Request, RequestKind, Scheduler, StorageSystem, SystemConfig,
};
use diskthermal::{DriveThermalSpec, Integrator, OperatingPoint, ThermalModel, TransientSim};
use serde::Serialize;
use serde_json::Value;
use thermodisk::prelude::{idr, DriveGeometry, Platter, RecordingTech};
use units::{BitsPerInch, Inches, Rpm, Seconds, TracksPerInch};

/// Simultaneous random reads in the scheduler backlog.
const BACKLOG: u64 = 500;
/// Requests replayed per cache size.
const CACHE_REQUESTS: usize = 5_000;
/// Error past which an explicit-Euler run counts as diverged, °C; the
/// stable steps stay within a few millidegrees of the reference.
const DIVERGED_C: f64 = 1.0;

#[derive(Serialize)]
struct ZoneRow {
    zones: u32,
    capacity_gb: f64,
    peak_idr_mb_s: f64,
}

#[derive(Serialize)]
struct StepRow {
    dt_s: f64,
    air_c: f64,
    abs_error_c: f64,
    diverged: bool,
}

#[derive(Serialize)]
struct SchedulerRow {
    scheduler: String,
    mean_ms: f64,
}

#[derive(Serialize)]
struct CacheRow {
    cache_mb: u64,
    hit_rate: f64,
    mean_ms: f64,
}

#[derive(Serialize)]
struct AblationsReport {
    zone_count: Vec<ZoneRow>,
    reference_air_c: f64,
    euler_step: Vec<StepRow>,
    scheduler: Vec<SchedulerRow>,
    cache: Vec<CacheRow>,
}

/// The four model ablations.
#[derive(Default)]
pub struct Ablations;

fn ablation_error(e: impl std::fmt::Display) -> LabError {
    LabError::Experiment(format!("ablations: {e}"))
}

fn mean_ms(done: &[Completion]) -> f64 {
    done.iter()
        .map(|c| c.response_time().to_millis())
        .sum::<f64>()
        / done.len() as f64
}

impl Experiment for Ablations {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn config(&self) -> Value {
        config_object(vec![("ablations", "default".to_value())])
    }

    fn run(&self) -> Result<RunOutput, LabError> {
        let mut report = String::new();
        outln!(
            report,
            "Ablations: what each modelling choice changes in the outputs"
        );
        outln!(report, "{}", rule(70));

        // 1. ZBR zone count vs capacity/IDR.
        let tech = RecordingTech::new(
            BitsPerInch::from_kbpi(593.19),
            TracksPerInch::from_ktpi(67.5),
        );
        outln!(
            report,
            "zone count -> capacity / peak IDR (2.6\", 2002 densities, 15,000 RPM):"
        );
        let mut zone_count = Vec::new();
        for zones in [5u32, 10, 30, 50, 100, 200] {
            let d = DriveGeometry::new(Platter::new(Inches::new(2.6)), tech, 1, zones)
                .map_err(ablation_error)?;
            let row = ZoneRow {
                zones,
                capacity_gb: d.capacity().gigabytes(),
                peak_idr_mb_s: idr(d.zones(), Rpm::new(15_000.0)).get(),
            };
            outln!(
                report,
                "  {:>4} zones: {:>7.2} GB, {:>6.1} MB/s",
                row.zones,
                row.capacity_gb,
                row.peak_idr_mb_s
            );
            zone_count.push(row);
        }

        // 2. FD time-step sensitivity (paper: 600 steps/min suffices).
        let model = ThermalModel::new(DriveThermalSpec::cheetah_15k3());
        let op = OperatingPoint::seeking(Rpm::new(15_000.0));
        let air_after = |dt: f64, integrator: Integrator| -> Result<f64, LabError> {
            let mut sim = TransientSim::from_ambient(&model)
                .with_step(Seconds::new(dt))
                .map_err(ablation_error)?
                .with_integrator(integrator);
            sim.advance(&model, op, Seconds::new(600.0));
            Ok(sim.temps().air.get())
        };
        let reference_air_c = air_after(0.01, Integrator::BackwardEuler)?;
        outln!(
            report,
            "explicit-Euler error at t = 10 min vs a 10 ms implicit reference ({reference_air_c:.4} C):"
        );
        let mut euler_step = Vec::new();
        for dt_s in [0.05, 0.1, 0.5, 1.0] {
            let air_c = air_after(dt_s, Integrator::ForwardEuler)?;
            let abs_error_c = (air_c - reference_air_c).abs();
            let row = StepRow {
                dt_s,
                air_c,
                abs_error_c,
                diverged: !abs_error_c.is_finite() || abs_error_c >= DIVERGED_C,
            };
            if row.diverged {
                outln!(report, "  dt = {dt_s:>5.2} s: diverged (air {air_c:.3e} C)");
            } else {
                outln!(report, "  dt = {dt_s:>5.2} s: |error| = {abs_error_c:.4} C");
            }
            euler_step.push(row);
        }

        // 3. Scheduler choice under backlog.
        let spec = DiskSpec::era_2001(Rpm::new(10_000.0));
        let capacity = spec.geometry().total_sectors().get();
        outln!(
            report,
            "scheduler -> mean response ({BACKLOG} simultaneous random reads):"
        );
        let mut scheduler = Vec::new();
        for sched in [Scheduler::Fcfs, Scheduler::Sstf, Scheduler::Elevator] {
            let mut sys =
                StorageSystem::new(SystemConfig::single_disk(spec.clone()).with_scheduler(sched))
                    .map_err(ablation_error)?;
            for i in 0..BACKLOG {
                let lba = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (capacity - 8);
                sys.submit(Request::new(i, Seconds::ZERO, 0, lba, 8, RequestKind::Read))
                    .map_err(ablation_error)?;
            }
            let row = SchedulerRow {
                scheduler: format!("{sched:?}"),
                mean_ms: mean_ms(&sys.drain()),
            };
            outln!(report, "  {}: {:.1} ms", row.scheduler, row.mean_ms);
            scheduler.push(row);
        }

        // 4. Cache size sweep on a sequential-leaning workload.
        outln!(
            report,
            "cache size -> hit rate / mean response (TPC-H-like stream, {CACHE_REQUESTS} requests):"
        );
        let preset = workloads::tpch();
        let mut cache = Vec::new();
        for cache_mb in [1u64, 2, 4, 16] {
            let spec = DiskSpec::era(2002, 1, Rpm::new(7_200.0)).with_cache(CacheConfig {
                bytes: cache_mb << 20,
                segments: 16,
            });
            let mut sys =
                StorageSystem::new(SystemConfig::jbod(spec, 15)).map_err(ablation_error)?;
            for r in preset.generate(CACHE_REQUESTS, 3).map_err(ablation_error)? {
                sys.submit(r).map_err(ablation_error)?;
            }
            let mean_ms = mean_ms(&sys.drain());
            let hits: u64 = sys.disks().iter().map(|d| d.cache().hits()).sum();
            let misses: u64 = sys.disks().iter().map(|d| d.cache().misses()).sum();
            let row = CacheRow {
                cache_mb,
                hit_rate: hits as f64 / (hits + misses).max(1) as f64,
                mean_ms,
            };
            outln!(
                report,
                "  {:>3} MB: hit rate {:.2}, mean {:.2} ms",
                row.cache_mb,
                row.hit_rate,
                row.mean_ms
            );
            cache.push(row);
        }

        let payload = AblationsReport {
            zone_count,
            reference_air_c,
            euler_step,
            scheduler,
            cache,
        };
        Ok(RunOutput::single("ablations", payload.to_value(), report))
    }
}
