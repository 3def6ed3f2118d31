//! A compressed diurnal day plus a flash crowd on a machine-room hall.
//!
//! §4.2.2's hall does not see a flat load: real fleets breathe with the
//! day and occasionally absorb a flash crowd. This experiment drives a
//! hall (1,024 drives at full scale) through one compressed 24-"hour"
//! diurnal cycle — each sync epoch standing in for an hour — with a
//! multiplicative flash crowd layered on top near the crest, and traces
//! how the thermal envelope is approached by traffic alone: no failure,
//! no cooling event, just load.
//!
//! The traffic shaping rescales the arrival source at epoch boundaries
//! (future gaps only), so the run stays byte-identical at any shard
//! count. The per-epoch timeseries is committed as
//! `scenario_diurnal.csv`; its `traffic_factor` column is the applied
//! diurnal-times-flash multiplier.

use crate::experiments::{config_object, scenario_support};
use crate::text::{outln, rule};
use crate::{Experiment, LabError, RunOutput, Scale};
use diskfleet::{AirflowGraph, Fleet, FleetConfig, RoutingPolicy};
use diskscenario::{EpochSample, Injection, Scenario};
use disksim::DiskSpec;
use diskthermal::{DriveThermalSpec, THERMAL_ENVELOPE};
use serde::Serialize;
use serde_json::Value;
use units::{Inches, Rpm};

/// Drives per rack.
const PER_RACK: usize = 16;
/// Racks per row.
const RACKS_PER_ROW: usize = 8;
/// Intra-rack preheat, K/W per upstream drive.
const K_DRIVE: f64 = 4.0e-3;
/// Within-row preheat, K/W of each earlier rack's total heat.
const K_RACK: f64 = 1.2e-4;
/// Row-to-row recirculation, K/W of each earlier row's total heat.
const K_ROW: f64 = 2.0e-4;

#[derive(Serialize)]
struct PhaseOutcome {
    label: String,
    epochs: u64,
    peak_air_c: f64,
    peak_traffic_factor: f64,
}

#[derive(Serialize)]
struct DiurnalPayload {
    drives: usize,
    epochs: u64,
    completed: u64,
    mean_response_ms: f64,
    p95_response_ms: f64,
    peak_air_c: f64,
    time_over_envelope_s: f64,
    trough: PhaseOutcome,
    crest: PhaseOutcome,
    flash: PhaseOutcome,
}

/// The diurnal-plus-flash-crowd hall experiment.
pub struct ScenarioDiurnal {
    /// Drives in the hall.
    pub drives: usize,
    /// Sync epochs to run; each stands in for one hour.
    pub epochs: u64,
    /// Epochs per diurnal cycle.
    pub period_epochs: u64,
    /// Diurnal swing around the mean rate (0.5 = ±50%).
    pub amplitude: f64,
    /// Epoch boundary the flash crowd lands on.
    pub flash_at_epoch: u64,
    /// Epochs the flash crowd lasts.
    pub flash_epochs: u64,
    /// Multiplier the flash crowd layers on the diurnal rate.
    pub flash_factor: f64,
    /// Mean offered load, requests/s fleet-wide.
    pub rate: f64,
    /// Arrival-stream seed.
    pub seed: u64,
    /// Epoch-loop shards. Results are byte-identical at any value, so
    /// this is not part of the config digest.
    pub threads: usize,
}

impl ScenarioDiurnal {
    /// Paper-shaped defaults at the given scale: one compressed day on
    /// the 1,024-drive hall, flash crowd near the diurnal crest.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => ScenarioDiurnal {
                drives: 1_024,
                epochs: 48,
                period_epochs: 24,
                amplitude: 0.5,
                flash_at_epoch: 30,
                flash_epochs: 4,
                flash_factor: 3.0,
                rate: 2_000.0,
                seed: 71,
                threads: disksim::par::default_parallelism(),
            },
            Scale::Quick => ScenarioDiurnal {
                drives: 128,
                epochs: 16,
                period_epochs: 8,
                amplitude: 0.5,
                flash_at_epoch: 10,
                flash_epochs: 3,
                flash_factor: 3.0,
                rate: 500.0,
                seed: 71,
                threads: disksim::par::default_parallelism(),
            },
        }
    }

    fn spec(&self) -> DiskSpec {
        DiskSpec::era(2002, 1, Rpm::new(15_020.0))
    }

    fn fleet(&self) -> Result<Fleet, LabError> {
        let fail =
            |e: &dyn std::fmt::Display| LabError::Experiment(format!("scenario_diurnal: {e}"));
        let thermal = DriveThermalSpec::new(Inches::new(2.6), 1);
        let airflow = AirflowGraph::hall(
            self.drives,
            PER_RACK,
            RACKS_PER_ROW,
            thermal.ambient(),
            K_DRIVE,
            K_RACK,
            K_ROW,
        )
        .map_err(|e| fail(&e))?;
        let mut config = FleetConfig::serial(self.drives, self.spec(), thermal, 1.0)
            .map_err(|e| fail(&e))?;
        config.airflow = airflow;
        config.routing = RoutingPolicy::ThermalAware {
            envelope: THERMAL_ENVELOPE,
        };
        config.threads = self.threads;
        Fleet::new(config).map_err(|e| fail(&e))
    }

    /// Summarizes the samples whose epochs `keep` selects.
    fn phase(samples: &[EpochSample], label: &str, keep: impl Fn(u64) -> bool) -> PhaseOutcome {
        let picked: Vec<&EpochSample> = samples.iter().filter(|s| keep(s.epoch)).collect();
        PhaseOutcome {
            label: label.to_string(),
            epochs: picked.len() as u64,
            peak_air_c: picked.iter().map(|s| s.peak_air_c).fold(f64::MIN, f64::max),
            peak_traffic_factor: picked
                .iter()
                .map(|s| s.traffic_factor)
                .fold(f64::MIN, f64::max),
        }
    }
}

impl Experiment for ScenarioDiurnal {
    fn name(&self) -> &'static str {
        "scenario_diurnal"
    }

    fn config(&self) -> Value {
        config_object(vec![
            ("drives", self.drives.to_value()),
            ("epochs", self.epochs.to_value()),
            ("period_epochs", self.period_epochs.to_value()),
            ("amplitude", self.amplitude.to_value()),
            ("flash_at_epoch", self.flash_at_epoch.to_value()),
            ("flash_epochs", self.flash_epochs.to_value()),
            ("flash_factor", self.flash_factor.to_value()),
            ("rate", self.rate.to_value()),
            ("seed", self.seed.to_value()),
            ("per_rack", PER_RACK.to_value()),
            ("racks_per_row", RACKS_PER_ROW.to_value()),
            ("k_drive", K_DRIVE.to_value()),
            ("k_rack", K_RACK.to_value()),
            ("k_row", K_ROW.to_value()),
        ])
    }

    fn run(&self) -> Result<RunOutput, LabError> {
        let mut fleet = self.fleet()?;
        let mut source = scenario_support::oltp_source(&self.spec(), self.rate, self.seed)?;
        let scenario = Scenario::new().with(Injection::TrafficShape {
            diurnal_period_epochs: self.period_epochs,
            diurnal_amplitude: self.amplitude,
            flash_at_epoch: Some(self.flash_at_epoch),
            flash_epochs: self.flash_epochs,
            flash_factor: self.flash_factor,
        });
        let (samples, fleet_report) =
            scenario_support::drive(&mut fleet, &mut source, scenario, self.epochs)?;

        // Phase windows by epoch number (epochs in samples are
        // 1-based completion counts; injections key on the 0-based
        // boundary, so shift by one).
        let flash = |e: u64| {
            e > self.flash_at_epoch && e <= self.flash_at_epoch + self.flash_epochs
        };
        let half = self.period_epochs / 2;
        let crest = |e: u64| !flash(e) && (e - 1) % self.period_epochs < half;
        let trough = |e: u64| !flash(e) && !crest(e);
        let trough_out = Self::phase(&samples, "trough", trough);
        let crest_out = Self::phase(&samples, "crest", crest);
        let flash_out = Self::phase(&samples, "flash", flash);

        let mut report = String::new();
        outln!(
            report,
            "{} drives as rows of {} racks x {} bays; diurnal period {} epochs (swing {:.0}%), \
             flash crowd x{:.1} at epoch {} for {}; mean load {:.0} req/s",
            self.drives,
            RACKS_PER_ROW,
            PER_RACK,
            self.period_epochs,
            self.amplitude * 100.0,
            self.flash_factor,
            self.flash_at_epoch,
            self.flash_epochs,
            self.rate
        );
        outln!(report, "{}", rule(72));
        outln!(
            report,
            "{:>8} {:>8} {:>14} {:>16}",
            "phase",
            "epochs",
            "peak air C",
            "peak traffic x"
        );
        outln!(report, "{}", rule(72));
        for p in [&trough_out, &crest_out, &flash_out] {
            outln!(
                report,
                "{:>8} {:>8} {:>14.2} {:>16.3}",
                p.label,
                p.epochs,
                p.peak_air_c,
                p.peak_traffic_factor
            );
        }
        outln!(report, "{}", rule(72));
        outln!(
            report,
            "hall peak {:.2} C (envelope {:.2} C), over-envelope {:.1} s; {} requests, \
             mean {:.3} ms, p95 {:.3} ms",
            fleet_report.max_air.get(),
            THERMAL_ENVELOPE.get(),
            fleet_report.time_over_envelope.get(),
            fleet_report.stats.count(),
            fleet_report.stats.mean().to_millis(),
            fleet_report.stats.percentile(95.0).to_millis()
        );

        let payload = DiurnalPayload {
            drives: self.drives,
            epochs: self.epochs,
            completed: fleet_report.stats.count(),
            mean_response_ms: fleet_report.stats.mean().to_millis(),
            p95_response_ms: fleet_report.stats.percentile(95.0).to_millis(),
            peak_air_c: fleet_report.max_air.get(),
            time_over_envelope_s: fleet_report.time_over_envelope.get(),
            trough: trough_out,
            crest: crest_out,
            flash: flash_out,
        };
        Ok(
            RunOutput::single("scenario_diurnal", payload.to_value(), report)
                .with_file("scenario_diurnal.csv", scenario_support::csv_of(&samples)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_crowd_outruns_the_diurnal_crest() {
        let out = ScenarioDiurnal::at_scale(Scale::Quick).run().unwrap();
        let payload = &out.json[0].1;
        let field = |v: &Value, k: &str| v.get(k).cloned().expect("field present");
        let peak = |k: &str| field(&field(payload, k), "peak_air_c").as_f64().unwrap();
        let factor = |k: &str| {
            field(&field(payload, k), "peak_traffic_factor")
                .as_f64()
                .unwrap()
        };
        assert!(
            factor("flash") > 2.0,
            "the flash multiplier is in force ({})",
            factor("flash")
        );
        assert!(
            factor("crest") > factor("trough"),
            "the diurnal swing moves the offered load"
        );
        assert!(
            peak("flash") > peak("trough"),
            "flash-crowd heat shows up in the hall ({} vs {})",
            peak("flash"),
            peak("trough")
        );
        let ms = |k: &str| field(payload, k).as_f64().unwrap();
        assert!(
            ms("p95_response_ms") >= ms("mean_response_ms"),
            "p95 is a tail, not a near-fastest response"
        );
        let (_, csv) = &out.files[0];
        assert_eq!(csv.lines().count() as u64, 16 + 1);
    }
}
