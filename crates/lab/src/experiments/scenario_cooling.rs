//! A cooling excursion with and without dynamic thermal management.
//!
//! The paper's central claim is that DTM turns worst-case thermal
//! design into average-case design: when the inlet excursions that
//! worst-case provisioning guards against actually happen, the drive
//! sheds speed instead of data. This experiment raises the rack inlet
//! by a configured delta (ramped, then held, then released) at an exact
//! epoch boundary and runs the identical arrival stream twice — once
//! uncontrolled and once under the §5.2 speed-scaling coordinator —
//! quantifying how much over-envelope exposure DTM removes and what it
//! charges in foreground latency.
//!
//! Both runs' per-epoch timeseries are committed
//! (`scenario_cooling_free.csv`, `scenario_cooling_dtm.csv`); the
//! `engaged` column shows the coordinator tracking the excursion.

use crate::experiments::{config_object, scenario_support};
use crate::text::{outln, rule};
use crate::{Experiment, LabError, RunOutput, Scale};
use diskfleet::{Fleet, FleetConfig, FleetDtmPolicy, RoutingPolicy};
use diskscenario::{CoolingScope, EpochSample, Injection, Scenario};
use disksim::DiskSpec;
use diskthermal::{DriveThermalSpec, THERMAL_ENVELOPE};
use serde::Serialize;
use serde_json::Value;
use units::{Inches, Rpm, TempDelta};

/// Full spindle speed.
const HIGH_RPM: f64 = 15_020.0;
/// The speed-scaling coordinator's fallback speed.
const LOW_RPM: f64 = 10_000.0;

#[derive(Serialize)]
struct CoolingOutcome {
    dtm: bool,
    peak_air_c: f64,
    peak_local_ambient_c: f64,
    time_over_envelope_s: f64,
    time_scaled_s: f64,
    epochs_engaged: u64,
    completed: u64,
    mean_response_ms: f64,
    p95_response_ms: f64,
}

#[derive(Serialize)]
struct CoolingPayload {
    uncontrolled: CoolingOutcome,
    speed_scaled: CoolingOutcome,
    over_envelope_cut_pct: f64,
    p95_cost_ms: f64,
}

/// The cooling-excursion scenario experiment.
pub struct ScenarioCooling {
    /// Drives in the rack.
    pub enclosures: usize,
    /// Sync epochs to run (1 s each).
    pub epochs: u64,
    /// Epoch boundary the excursion starts at.
    pub at_epoch: u64,
    /// Epochs the raised inlet holds (including the ramp).
    pub duration_epochs: u64,
    /// Epochs the delta ramps in over.
    pub ramp_epochs: u64,
    /// Inlet rise at full hold, °C.
    pub delta_c: f64,
    /// Serial-stream airflow capacity, W/K. Sized per scale so the
    /// hottest baseline drive idles just below the coordinator's trip
    /// point and the excursion is what pushes it over.
    pub stream_w_per_k: f64,
    /// Foreground offered load, requests/s fleet-wide.
    pub rate: f64,
    /// Arrival-stream seed.
    pub seed: u64,
    /// Epoch-loop shards. Results are byte-identical at any value, so
    /// this is not part of the config digest.
    pub threads: usize,
}

impl ScenarioCooling {
    /// Paper-shaped defaults at the given scale.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => ScenarioCooling {
                enclosures: 16,
                epochs: 600,
                at_epoch: 120,
                duration_epochs: 360,
                ramp_epochs: 60,
                delta_c: 3.0,
                stream_w_per_k: 26.0,
                rate: 800.0,
                seed: 67,
                threads: disksim::par::default_parallelism(),
            },
            Scale::Quick => ScenarioCooling {
                enclosures: 8,
                epochs: 400,
                at_epoch: 60,
                duration_epochs: 240,
                ramp_epochs: 30,
                delta_c: 3.5,
                stream_w_per_k: 12.0,
                rate: 400.0,
                seed: 67,
                threads: disksim::par::default_parallelism(),
            },
        }
    }

    fn spec(&self) -> DiskSpec {
        DiskSpec::era(2002, 1, Rpm::new(HIGH_RPM))
    }

    fn run_one(&self, dtm: FleetDtmPolicy) -> Result<(Vec<EpochSample>, CoolingOutcome), LabError> {
        let fail =
            |e: &dyn std::fmt::Display| LabError::Experiment(format!("scenario_cooling: {e}"));
        let is_dtm = !matches!(dtm, FleetDtmPolicy::None);
        let mut config = FleetConfig::serial(
            self.enclosures,
            self.spec(),
            DriveThermalSpec::new(Inches::new(2.6), 1),
            self.stream_w_per_k,
        )
        .map_err(|e| fail(&e))?;
        // Round-robin, not thermal-aware: the router would steer every
        // request away from exactly the drives the coordinator slows,
        // hiding the latency cost this experiment exists to measure.
        config.routing = RoutingPolicy::RoundRobin;
        config.dtm = dtm;
        config.threads = self.threads;
        let mut fleet = Fleet::new(config).map_err(|e| fail(&e))?;
        let mut source = scenario_support::oltp_source(&self.spec(), self.rate, self.seed)?;
        let scenario = Scenario::new().with(Injection::CoolingEvent {
            at_epoch: self.at_epoch,
            duration_epochs: self.duration_epochs,
            ramp_epochs: self.ramp_epochs,
            delta_c: self.delta_c,
            scope: CoolingScope::All,
        });
        let (samples, report) =
            scenario_support::drive(&mut fleet, &mut source, scenario, self.epochs)?;
        let outcome = CoolingOutcome {
            dtm: is_dtm,
            peak_air_c: report.max_air.get(),
            peak_local_ambient_c: report.peak_local_ambient.get(),
            time_over_envelope_s: report.time_over_envelope.get(),
            time_scaled_s: report
                .per_enclosure
                .iter()
                .map(|b| b.time_scaled.get())
                .sum(),
            epochs_engaged: samples.iter().filter(|s| s.engaged > 0).count() as u64,
            completed: report.stats.count(),
            mean_response_ms: report.stats.mean().to_millis(),
            p95_response_ms: report.stats.percentile(95.0).to_millis(),
        };
        Ok((samples, outcome))
    }
}

impl Experiment for ScenarioCooling {
    fn name(&self) -> &'static str {
        "scenario_cooling"
    }

    fn config(&self) -> Value {
        config_object(vec![
            ("enclosures", self.enclosures.to_value()),
            ("epochs", self.epochs.to_value()),
            ("at_epoch", self.at_epoch.to_value()),
            ("duration_epochs", self.duration_epochs.to_value()),
            ("ramp_epochs", self.ramp_epochs.to_value()),
            ("delta_c", self.delta_c.to_value()),
            ("stream_w_per_k", self.stream_w_per_k.to_value()),
            ("rate", self.rate.to_value()),
            ("seed", self.seed.to_value()),
            ("high_rpm", HIGH_RPM.to_value()),
            ("low_rpm", LOW_RPM.to_value()),
        ])
    }

    fn run(&self) -> Result<RunOutput, LabError> {
        let (free_samples, free) = self.run_one(FleetDtmPolicy::None)?;
        let (dtm_samples, scaled) = self.run_one(FleetDtmPolicy::SpeedScale {
            high: Rpm::new(HIGH_RPM),
            low: Rpm::new(LOW_RPM),
            guard: TempDelta::new(0.3),
            resume_margin: TempDelta::new(0.6),
        })?;

        let cut_pct = if free.time_over_envelope_s > 0.0 {
            (1.0 - scaled.time_over_envelope_s / free.time_over_envelope_s) * 100.0
        } else {
            0.0
        };
        let p95_cost = scaled.p95_response_ms - free.p95_response_ms;

        let mut report = String::new();
        outln!(
            report,
            "{} drives, OLTP at {:.0} req/s; inlet +{:.1} C at epoch {} for {} epochs \
             (ramp {}), envelope {:.2} C",
            self.enclosures,
            self.rate,
            self.delta_c,
            self.at_epoch,
            self.duration_epochs,
            self.ramp_epochs,
            THERMAL_ENVELOPE.get()
        );
        outln!(report, "{}", rule(88));
        outln!(
            report,
            "{:>12} {:>10} {:>10} {:>12} {:>10} {:>10} {:>10}",
            "policy",
            "peak C",
            "amb C",
            "over-env s",
            "scaled s",
            "mean ms",
            "p95 ms"
        );
        outln!(report, "{}", rule(88));
        for o in [&free, &scaled] {
            outln!(
                report,
                "{:>12} {:>10.2} {:>10.2} {:>12.1} {:>10.1} {:>10.3} {:>10.3}",
                if o.dtm { "speed-scale" } else { "none" },
                o.peak_air_c,
                o.peak_local_ambient_c,
                o.time_over_envelope_s,
                o.time_scaled_s,
                o.mean_response_ms,
                o.p95_response_ms
            );
        }
        outln!(report, "{}", rule(88));
        outln!(
            report,
            "DTM cuts over-envelope exposure {:.1}% ({:.1} s -> {:.1} s) at a {:+.3} ms \
             p95 latency cost; coordinator engaged in {} of {} epochs",
            cut_pct,
            free.time_over_envelope_s,
            scaled.time_over_envelope_s,
            p95_cost,
            scaled.epochs_engaged,
            self.epochs
        );

        let payload = CoolingPayload {
            uncontrolled: free,
            speed_scaled: scaled,
            over_envelope_cut_pct: cut_pct,
            p95_cost_ms: p95_cost,
        };
        Ok(
            RunOutput::single("scenario_cooling", payload.to_value(), report)
                .with_file("scenario_cooling_free.csv", scenario_support::csv_of(&free_samples))
                .with_file("scenario_cooling_dtm.csv", scenario_support::csv_of(&dtm_samples)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtm_cuts_over_envelope_exposure_at_a_latency_cost() {
        let out = ScenarioCooling::at_scale(Scale::Quick).run().unwrap();
        let payload = &out.json[0].1;
        let field = |v: &Value, k: &str| v.get(k).cloned().expect("field present");
        let over = |k: &str| {
            field(&field(payload, k), "time_over_envelope_s")
                .as_f64()
                .unwrap()
        };
        assert!(
            over("uncontrolled") > 0.0,
            "the excursion must push the uncontrolled rack past the envelope"
        );
        assert!(
            over("speed_scaled") < over("uncontrolled"),
            "speed scaling must shed over-envelope time"
        );
        let engaged = field(&field(payload, "speed_scaled"), "epochs_engaged")
            .as_u64()
            .unwrap();
        assert!(engaged > 0, "the coordinator actually engaged");
        let ms = |k: &str| field(&field(payload, "uncontrolled"), k).as_f64().unwrap();
        assert!(
            ms("p95_response_ms") >= ms("mean_response_ms"),
            "p95 is a tail, not a near-fastest response"
        );
        assert_eq!(out.files.len(), 2, "both timeseries are attached");
        for (name, csv) in &out.files {
            assert!(csv.starts_with("epoch,"), "{name} has its header");
        }
    }
}
