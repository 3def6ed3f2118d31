//! §5.4 extension: disk shuffling as a DTM enhancer.
//!
//! Co-locating hot data (Ruemmler–Wilkes organ-pipe placement) cuts arm
//! travel, which cuts actuator duty, which lowers the operating
//! temperature — buying thermal headroom that the slack mechanism of
//! §5.2 can spend on RPM.

use crate::experiments::config_object;
use crate::text::{outln, rule};
use crate::{Experiment, LabError, RunOutput, Scale};
use disksim::{AccessHistogram, DiskSpec, ShuffleMap, StorageSystem, SystemConfig};
use diskthermal::{
    max_rpm_within_envelope, DriveThermalSpec, EnvelopeSearch, OperatingPoint, ThermalModel,
    THERMAL_ENVELOPE,
};
use serde::Serialize;
use serde_json::Value;
use units::{Inches, Rpm};
use workloads::oltp;

#[derive(Serialize)]
struct Outcome {
    label: String,
    mean_seek_distance: f64,
    seek_duty: f64,
    steady_temp: f64,
    slack_rpm: f64,
    mean_response_ms: f64,
}

/// The organ-pipe shuffling experiment.
pub struct Shuffle {
    /// Requests in the generated OLTP-like trace.
    pub requests: usize,
    /// Trace-generator seed.
    pub seed: u64,
}

impl Shuffle {
    /// Paper-shaped defaults at the given scale.
    pub fn at_scale(scale: Scale) -> Self {
        Shuffle {
            requests: match scale {
                Scale::Full => 40_000,
                Scale::Quick => 4_000,
            },
            seed: 17,
        }
    }
}

impl Experiment for Shuffle {
    fn name(&self) -> &'static str {
        "shuffle"
    }

    fn config(&self) -> Value {
        config_object(vec![
            ("requests", self.requests.to_value()),
            ("seed", self.seed.to_value()),
        ])
    }

    fn run(&self) -> Result<RunOutput, LabError> {
        let mut report = String::new();
        let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("shuffle: {e}"));

        // A skewed OLTP-like stream on one 2.6" drive at the envelope speed.
        let rpm = Rpm::new(15_020.0);
        let spec = DiskSpec::era(2002, 1, rpm);
        let capacity = spec.geometry().total_sectors().get();
        let mut preset = oltp();
        preset.disks = 1;
        let trace = {
            // Regenerate against this device's capacity.
            let gen = workloads::TraceGenerator::new(
                preset.profile.clone(),
                workloads::ArrivalModel::Poisson { rate: 90.0 },
                1,
                capacity,
            )
            .map_err(|e| fail(&e))?;
            gen.generate(self.requests, self.seed)
        };

        let histogram = AccessHistogram::from_trace(&trace, capacity, 4_096);
        outln!(
            report,
            "access skew: hottest 32 extents carry {:.0}% of accesses",
            histogram.concentration(32) * 100.0
        );

        let run = |label: &str, trace: &[disksim::Request]| -> Result<Outcome, LabError> {
            let mut sys =
                StorageSystem::new(SystemConfig::single_disk(spec.clone())).map_err(|e| fail(&e))?;
            for r in trace {
                sys.submit(*r).map_err(|e| fail(&e))?;
            }
            let done = sys.drain();
            let mean_ms = done
                .iter()
                .map(|c| c.response_time().to_millis())
                .sum::<f64>()
                / done.len() as f64;
            let disk = &sys.disks()[0];
            let duty = (disk.seek_time().get() / sys.clock().get()).clamp(0.0, 1.0);

            // Thermal consequence: the measured duty sets the steady
            // temperature, and the headroom below the envelope converts to
            // extra RPM a multi-speed disk could use.
            let model = ThermalModel::new(DriveThermalSpec::new(Inches::new(2.6), 1));
            let steady = model.steady_air_temp(OperatingPoint::new(rpm, duty));
            let slack_rpm =
                max_rpm_within_envelope(&model, duty, THERMAL_ENVELOPE, EnvelopeSearch::default())
                    .map(|r| r.get())
                    .unwrap_or(0.0);
            Ok(Outcome {
                label: label.into(),
                mean_seek_distance: disk.mean_seek_distance(),
                seek_duty: duty,
                steady_temp: steady.get(),
                slack_rpm,
                mean_response_ms: mean_ms,
            })
        };

        let baseline = run("original placement", &trace)?;
        let shuffled_trace = ShuffleMap::organ_pipe(&histogram).apply(&trace);
        let shuffled = run("organ-pipe shuffled", &shuffled_trace)?;

        outln!(report, "{}", rule(96));
        outln!(
            report,
            "{:<22} {:>14} {:>10} {:>12} {:>12} {:>12}",
            "placement", "mean seek cyl", "VCM duty", "steady C", "slack RPM", "mean resp"
        );
        outln!(report, "{}", rule(96));
        for o in [&baseline, &shuffled] {
            outln!(
                report,
                "{:<22} {:>14.0} {:>10.3} {:>12.2} {:>12.0} {:>9.2} ms",
                o.label, o.mean_seek_distance, o.seek_duty, o.steady_temp, o.slack_rpm, o.mean_response_ms
            );
        }
        outln!(report, "{}", rule(96));
        outln!(
            report,
            "shuffling cut arm travel {:.0}x, freeing {:.0} RPM of thermal headroom",
            baseline.mean_seek_distance / shuffled.mean_seek_distance.max(1.0),
            shuffled.slack_rpm - baseline.slack_rpm
        );

        Ok(RunOutput::single(
            "shuffle",
            vec![baseline, shuffled].to_value(),
            report,
        ))
    }
}
