//! Rack density vs temperature: how many drives can share an air stream.
//!
//! §4.2.2's airflow argument made quantitative at rack scale: every
//! drive added to a serial air stream preheats everything downstream, so
//! peak internal-air temperature climbs with drive count even though
//! per-drive load *falls* (the same fleet-wide offered load spreads over
//! more spindles). The sweep runs each fleet size uncontrolled and under
//! the §5.2 speed-scaling coordinator, showing where the envelope forces
//! DTM and what the control costs in tail latency.

use crate::experiments::config_object;
use crate::text::{outln, rule};
use crate::{Experiment, LabError, RunOutput, Scale};
use diskfleet::{Fleet, FleetConfig, FleetDtmPolicy, FleetReport};
use disksim::DiskSpec;
use diskthermal::{DriveThermalSpec, THERMAL_ENVELOPE};
use serde::Serialize;
use serde_json::Value;
use units::{Inches, Rpm, TempDelta};
use workloads::{oltp, TraceGenerator};

/// Airflow stream capacity rate (W/K) between neighbouring bays.
const STREAM_W_PER_K: f64 = 12.0;
/// Fleet-wide offered load, requests/s, held fixed across sizes.
const FLEET_RATE: f64 = 480.0;
/// Full spindle speed.
const HIGH_RPM: f64 = 15_020.0;
/// The speed-scaling coordinator's fallback speed.
const LOW_RPM: f64 = 12_000.0;

#[derive(Serialize)]
struct PolicyOutcome {
    peak_air: f64,
    peak_local_ambient: f64,
    time_over_envelope_s: f64,
    time_scaled_s: f64,
    mean_response_ms: f64,
    p95_response_ms: f64,
}

#[derive(Serialize)]
struct SizeOutcome {
    enclosures: usize,
    uncontrolled: PolicyOutcome,
    speed_scaled: PolicyOutcome,
}

fn outcome(report: &FleetReport) -> PolicyOutcome {
    PolicyOutcome {
        peak_air: report.max_air.get(),
        peak_local_ambient: report.peak_local_ambient.get(),
        time_over_envelope_s: report.time_over_envelope.get(),
        time_scaled_s: report
            .per_enclosure
            .iter()
            .map(|e| e.time_scaled.get())
            .sum(),
        mean_response_ms: report.stats.mean().to_millis(),
        p95_response_ms: report.stats.percentile(95.0).to_millis(),
    }
}

/// The rack-density sweep.
pub struct FleetScaling {
    /// Requests in the shared trace.
    pub requests: usize,
    /// Fleet sizes to sweep.
    pub sizes: Vec<usize>,
    /// Trace-generator seed.
    pub seed: u64,
}

impl FleetScaling {
    /// Paper-shaped defaults at the given scale.
    pub fn at_scale(scale: Scale) -> Self {
        FleetScaling {
            // Full scale runs ~250 s of simulated time per size. The
            // air nodes relax over minutes (Figure 1's transient), so a
            // shorter run would freeze every rack at its hot-start
            // temperature and hide what the coordinator's downshift
            // actually buys.
            requests: match scale {
                Scale::Full => 120_000,
                Scale::Quick => 600,
            },
            sizes: match scale {
                Scale::Full => vec![2, 4, 6, 8, 12, 16],
                Scale::Quick => vec![2, 4, 8],
            },
            seed: 29,
        }
    }

    fn run_size(
        &self,
        enclosures: usize,
        trace: &[disksim::Request],
        dtm: FleetDtmPolicy,
    ) -> Result<FleetReport, LabError> {
        let fail =
            |e: &dyn std::fmt::Display| LabError::Experiment(format!("{enclosures} drives: {e}"));
        let mut config = FleetConfig::serial(
            enclosures,
            DiskSpec::era(2002, 1, Rpm::new(HIGH_RPM)),
            DriveThermalSpec::new(Inches::new(2.6), 1),
            STREAM_W_PER_K,
        )
        .map_err(|e| fail(&e))?;
        config.dtm = dtm;
        config.threads = disksim::par::default_parallelism();
        let fleet = Fleet::new(config).map_err(|e| fail(&e))?;
        fleet.run(trace.to_vec()).map_err(|e| fail(&e))
    }
}

impl Experiment for FleetScaling {
    fn name(&self) -> &'static str {
        "fleet_scaling"
    }

    fn config(&self) -> Value {
        config_object(vec![
            ("requests", self.requests.to_value()),
            ("sizes", self.sizes.to_value()),
            ("seed", self.seed.to_value()),
            ("stream_w_per_k", STREAM_W_PER_K.to_value()),
            ("fleet_rate", FLEET_RATE.to_value()),
            ("high_rpm", HIGH_RPM.to_value()),
            ("low_rpm", LOW_RPM.to_value()),
        ])
    }

    fn run(&self) -> Result<RunOutput, LabError> {
        let mut report = String::new();
        let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("fleet_scaling: {e}"));

        // One OLTP-shaped trace shared by every size, so the offered
        // load is identical and only the rack density moves.
        let capacity = DiskSpec::era(2002, 1, Rpm::new(HIGH_RPM))
            .geometry()
            .total_sectors()
            .get();
        let preset = oltp();
        let generator = TraceGenerator::new(
            preset.profile.clone(),
            preset.arrivals.with_mean_rate(FLEET_RATE),
            1,
            capacity,
        )
        .map_err(|e| fail(&e))?;
        let trace = generator.generate(self.requests, self.seed);

        outln!(
            report,
            "serial airflow at {STREAM_W_PER_K} W/K, OLTP-shaped load fixed at \
             {FLEET_RATE:.0} req/s fleet-wide, envelope {:.2} C",
            THERMAL_ENVELOPE.get()
        );
        outln!(report, "{}", rule(110));
        outln!(
            report,
            "{:>7} {:>16} {:>16} {:>13} {:>13} {:>16} {:>16}",
            "drives",
            "free peak C",
            "dtm peak C",
            "free p95 ms",
            "dtm p95 ms",
            "over-env s",
            "scaled s"
        );
        outln!(report, "{}", rule(110));

        let mut outcomes = Vec::new();
        for &enclosures in &self.sizes {
            let free = self.run_size(enclosures, &trace, FleetDtmPolicy::None)?;
            let scaled = self.run_size(
                enclosures,
                &trace,
                FleetDtmPolicy::SpeedScale {
                    high: Rpm::new(HIGH_RPM),
                    low: Rpm::new(LOW_RPM),
                    guard: TempDelta::new(0.3),
                    resume_margin: TempDelta::new(0.3),
                },
            )?;
            let (free, scaled) = (outcome(&free), outcome(&scaled));
            outln!(
                report,
                "{:>7} {:>16.2} {:>16.2} {:>13.2} {:>13.2} {:>16.1} {:>16.1}",
                enclosures,
                free.peak_air,
                scaled.peak_air,
                free.p95_response_ms,
                scaled.p95_response_ms,
                free.time_over_envelope_s,
                scaled.time_scaled_s
            );
            outcomes.push(SizeOutcome {
                enclosures,
                uncontrolled: free,
                speed_scaled: scaled,
            });
        }

        outln!(report, "{}", rule(110));
        let first = &outcomes[0];
        let last = &outcomes[outcomes.len() - 1];
        outln!(
            report,
            "densifying {} -> {} drives raises the uncontrolled peak {:.2} C -> {:.2} C; \
             speed scaling holds it to {:.2} C",
            first.enclosures,
            last.enclosures,
            first.uncontrolled.peak_air,
            last.uncontrolled.peak_air,
            last.speed_scaled.peak_air
        );

        Ok(RunOutput::single(
            "fleet_scaling",
            outcomes.to_value(),
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_heats_and_dtm_cools() {
        let out = FleetScaling::at_scale(Scale::Quick).run().unwrap();
        let rows = out.json[0].1.as_array().expect("array payload").clone();
        assert_eq!(rows.len(), 3);
        let peak = |row: &Value, policy: &str| {
            row.get(policy)
                .and_then(|p| p.get("peak_air"))
                .and_then(Value::as_f64)
                .unwrap()
        };
        assert!(
            peak(&rows[2], "uncontrolled") > peak(&rows[0], "uncontrolled"),
            "a denser rack must run hotter: {} vs {}",
            peak(&rows[2], "uncontrolled"),
            peak(&rows[0], "uncontrolled")
        );
        for row in &rows {
            assert!(
                peak(row, "speed_scaled") <= peak(row, "uncontrolled"),
                "speed scaling must never heat the rack"
            );
            let free = row.get("uncontrolled").expect("uncontrolled outcome");
            let ms = |k: &str| free.get(k).and_then(Value::as_f64).unwrap();
            assert!(
                ms("p95_response_ms") >= ms("mean_response_ms"),
                "p95 is a tail, not a near-fastest response"
            );
        }
    }
}
