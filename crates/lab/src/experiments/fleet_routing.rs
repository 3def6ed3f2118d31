//! Rack-scale routing: thermal-aware placement vs round-robin.
//!
//! Extends the paper's §4.2.2 airflow observation — drives sharing an
//! air stream preheat each other — to a request-placement policy. A
//! serial rack of eight drives runs each of the five §5.1 workload
//! presets at one fleet-wide offered load, once with round-robin
//! placement and once with slack-weighted thermal-aware placement. The
//! router cannot change the total heat much (the work still has to run
//! somewhere), but it can put the duty where the airflow graph gives it
//! the most headroom, pulling the hottest bay's peak down.

use crate::experiments::config_object;
use crate::text::{outln, rule};
use crate::{Experiment, LabError, RunOutput, Scale};
use diskfleet::{Fleet, FleetConfig, FleetReport, RoutingPolicy};
use disksim::DiskSpec;
use diskthermal::{DriveThermalSpec, THERMAL_ENVELOPE};
use serde::Serialize;
use serde_json::Value;
use units::{Inches, Rpm};
use workloads::{presets, read_trace, write_trace, TraceGenerator};

/// Drives in the rack, sharing one serial air stream.
const ENCLOSURES: usize = 8;
/// Airflow stream capacity rate (W/K) between neighbouring bays.
const STREAM_W_PER_K: f64 = 6.0;
/// Fleet-wide offered load every preset is rescaled to, requests/s.
const FLEET_RATE: f64 = 480.0;

#[derive(Serialize)]
struct PolicyOutcome {
    peak_air: f64,
    mean_air: f64,
    peak_local_ambient: f64,
    time_over_envelope_s: f64,
    mean_response_ms: f64,
    p95_response_ms: f64,
}

#[derive(Serialize)]
struct WorkloadOutcome {
    workload: String,
    round_robin: PolicyOutcome,
    thermal_aware: PolicyOutcome,
    /// `round_robin.peak_air - thermal_aware.peak_air`, the headroom the
    /// router buys (positive = thermal-aware runs cooler).
    peak_air_reduction: f64,
}

fn outcome(report: &FleetReport) -> PolicyOutcome {
    PolicyOutcome {
        peak_air: report.max_air.get(),
        mean_air: report.mean_air.get(),
        peak_local_ambient: report.peak_local_ambient.get(),
        time_over_envelope_s: report.time_over_envelope.get(),
        mean_response_ms: report.stats.mean().to_millis(),
        p95_response_ms: report.stats.percentile(95.0).to_millis(),
    }
}

/// The routing-policy comparison experiment.
pub struct FleetRouting {
    /// Requests per workload trace.
    pub requests: usize,
    /// Trace-generator seed.
    pub seed: u64,
}

impl FleetRouting {
    /// Paper-shaped defaults at the given scale.
    pub fn at_scale(scale: Scale) -> Self {
        FleetRouting {
            // Full scale runs ~50 s of simulated time per policy —
            // long enough for the air nodes to respond to placement.
            requests: match scale {
                Scale::Full => 24_000,
                Scale::Quick => 500,
            },
            seed: 23,
        }
    }

    fn run_preset(
        &self,
        name: &str,
        trace: &[disksim::Request],
        routing: RoutingPolicy,
    ) -> Result<FleetReport, LabError> {
        let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("{name}: {e}"));
        let mut config = FleetConfig::serial(
            ENCLOSURES,
            DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
            DriveThermalSpec::new(Inches::new(2.6), 1),
            STREAM_W_PER_K,
        )
        .map_err(|e| fail(&e))?;
        config.routing = routing;
        config.threads = disksim::par::default_parallelism();
        let fleet = Fleet::new(config).map_err(|e| fail(&e))?;
        fleet.run(trace.to_vec()).map_err(|e| fail(&e))
    }
}

impl Experiment for FleetRouting {
    fn name(&self) -> &'static str {
        "fleet_routing"
    }

    fn config(&self) -> Value {
        config_object(vec![
            ("requests", self.requests.to_value()),
            ("seed", self.seed.to_value()),
            ("enclosures", ENCLOSURES.to_value()),
            ("stream_w_per_k", STREAM_W_PER_K.to_value()),
            ("fleet_rate", FLEET_RATE.to_value()),
        ])
    }

    fn run(&self) -> Result<RunOutput, LabError> {
        let mut report = String::new();
        let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("fleet_routing: {e}"));

        // One drive's capacity bounds the logical LBA space the traces
        // target; the fleet remaps per placement anyway.
        let capacity = DiskSpec::era(2002, 1, Rpm::new(15_020.0))
            .geometry()
            .total_sectors()
            .get();

        outln!(
            report,
            "rack of {ENCLOSURES} drives, serial airflow at {STREAM_W_PER_K} W/K, \
             every workload rescaled to {FLEET_RATE:.0} req/s fleet-wide"
        );
        outln!(report, "{}", rule(108));
        outln!(
            report,
            "{:<14} {:>21} {:>21} {:>10} {:>18} {:>18}",
            "workload",
            "round-robin peak C",
            "thermal-aware peak C",
            "saved C",
            "rr p95 ms",
            "ta p95 ms"
        );
        outln!(report, "{}", rule(108));

        let mut outcomes = Vec::new();
        for preset in presets() {
            let generator = TraceGenerator::new(
                preset.profile.clone(),
                preset.arrivals.with_mean_rate(FLEET_RATE),
                1,
                capacity,
            )
            .map_err(|e| fail(&e))?;
            let trace = generator.generate(self.requests, self.seed);

            // Persist-and-reload through the newline-JSON trace format,
            // so the experiment exercises the same serialization the
            // standalone trace tools use.
            let mut buf = Vec::new();
            write_trace(&mut buf, &trace).map_err(|e| fail(&e))?;
            let trace = read_trace(buf.as_slice()).map_err(|e| fail(&e))?;

            let rr = self.run_preset(preset.name, &trace, RoutingPolicy::RoundRobin)?;
            let ta = self.run_preset(
                preset.name,
                &trace,
                RoutingPolicy::ThermalAware {
                    envelope: THERMAL_ENVELOPE,
                },
            )?;

            let (rr, ta) = (outcome(&rr), outcome(&ta));
            outln!(
                report,
                "{:<14} {:>21.2} {:>21.2} {:>10.2} {:>18.2} {:>18.2}",
                preset.name,
                rr.peak_air,
                ta.peak_air,
                rr.peak_air - ta.peak_air,
                rr.p95_response_ms,
                ta.p95_response_ms
            );
            outcomes.push(WorkloadOutcome {
                workload: preset.name.to_string(),
                peak_air_reduction: rr.peak_air - ta.peak_air,
                round_robin: rr,
                thermal_aware: ta,
            });
        }

        outln!(report, "{}", rule(108));
        let mean_saving = outcomes.iter().map(|o| o.peak_air_reduction).sum::<f64>()
            / outcomes.len() as f64;
        outln!(
            report,
            "slack-weighted placement cools the hottest bay by {mean_saving:.2} C on average \
             at equal offered load"
        );

        Ok(RunOutput::single(
            "fleet_routing",
            outcomes.to_value(),
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_aware_beats_round_robin_for_every_workload() {
        let out = FleetRouting::at_scale(Scale::Quick).run().unwrap();
        let payload = &out.json[0].1;
        let rows = payload.as_array().expect("array payload");
        assert_eq!(rows.len(), 5, "one row per preset");
        for row in rows {
            let saved = row.get("peak_air_reduction").and_then(Value::as_f64).unwrap();
            let name = row.get("workload").and_then(Value::as_str).unwrap();
            assert!(
                saved > 0.0,
                "{name}: thermal-aware must run cooler, saved {saved}"
            );
            let rr = row.get("round_robin").expect("round-robin outcome");
            let ms = |k: &str| rr.get(k).and_then(Value::as_f64).unwrap();
            assert!(
                ms("p95_response_ms") >= ms("mean_response_ms"),
                "{name}: p95 is a tail, not a near-fastest response"
            );
        }
    }
}
