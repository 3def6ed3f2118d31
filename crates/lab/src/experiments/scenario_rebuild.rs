//! RAID-5 rebuild storm under foreground load.
//!
//! §6's failure argument in fleet form: when a member of a RAID-5
//! enclosure dies, the array serves reads degraded (every access to the
//! lost disk fans out across the survivors) while the rebuild streams
//! reconstruction I/O at a configured rate. Faster rebuild shortens the
//! exposure window but steals more bandwidth and adds more heat — this
//! experiment sweeps the rebuild rate and quantifies that trade against
//! an unfailed baseline on the identical arrival stream. The foreground
//! load is read-heavy (98 % reads) so the fan-out cost is not offset by
//! degraded writes, which are *cheaper* than healthy read-modify-write.
//!
//! The failure is injected at an exact epoch boundary by the scenario
//! engine, so the whole run is byte-identical at any shard count
//! (pinned by `lab_determinism`). The highest-rate run's per-epoch
//! timeseries is committed as `scenario_rebuild.csv`.

use crate::experiments::{config_object, scenario_support};
use crate::text::{outln, rule};
use crate::{Experiment, LabError, RunOutput, Scale};
use diskfleet::{EnclosureArray, Fleet, FleetConfig, RebuildSpec, RoutingPolicy};
use diskscenario::{EpochSample, Injection, Scenario};
use disksim::DiskSpec;
use diskthermal::DriveThermalSpec;
use serde::Serialize;
use serde_json::Value;
use units::{Inches, Rpm};

/// Disks per RAID-5 enclosure.
const ARRAY_DISKS: u32 = 4;
/// Stripe unit, sectors. Large stripes bound the degraded fan-out cost.
const STRIPE_SECTORS: u32 = 65_536;
/// Reconstruction read size per rebuild request, sectors.
const CHUNK_SECTORS: u32 = 16_384;

#[derive(Serialize)]
struct RebuildOutcome {
    rebuild_rate_sectors_per_sec: f64,
    repaired_at_epoch: Option<u64>,
    rebuilt_fraction: f64,
    completed: u64,
    mean_response_ms: f64,
    p95_response_ms: f64,
    peak_air_c: f64,
    time_over_envelope_s: f64,
}

#[derive(Serialize)]
struct RebuildPayload {
    baseline: RebuildOutcome,
    storms: Vec<RebuildOutcome>,
}

/// The rebuild-storm scenario experiment.
pub struct ScenarioRebuild {
    /// RAID-5 enclosures in the rack.
    pub enclosures: usize,
    /// Sync epochs to run (1 s each).
    pub epochs: u64,
    /// Epoch boundary the member failure fires at.
    pub fail_epoch: u64,
    /// Foreground offered load, requests/s fleet-wide.
    pub rate: f64,
    /// Rebuild rates swept, sectors/s.
    pub rebuild_rates: Vec<f64>,
    /// Serial-stream airflow capacity, W/K. Sized per scale so the
    /// unfailed baseline idles below the thermal envelope and any
    /// over-envelope time is attributable to the storm.
    pub stream_w_per_k: f64,
    /// Arrival-stream seed.
    pub seed: u64,
    /// Epoch-loop shards. Results are byte-identical at any value, so
    /// this is not part of the config digest.
    pub threads: usize,
}

impl ScenarioRebuild {
    /// Paper-shaped defaults at the given scale.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            // Rebuild rates sit below the array's service capacity: one
            // member sustains ~284k sectors/s sequentially, degraded
            // scans amplify 1.5x across 3 survivors, and seek
            // interference with the random foreground stream cuts the
            // sustainable logical scan rate to ~300k sectors/s. The
            // fastest sweep point repairs the 222M-sector volume inside
            // the horizon; open-loop rates beyond capacity just pile up
            // queue and starve the foreground stats of completions.
            Scale::Full => ScenarioRebuild {
                enclosures: 16,
                epochs: 800,
                fail_epoch: 6,
                rate: 800.0,
                rebuild_rates: vec![100_000.0, 200_000.0, 300_000.0],
                stream_w_per_k: 26.0,
                seed: 53,
                threads: disksim::par::default_parallelism(),
            },
            Scale::Quick => ScenarioRebuild {
                enclosures: 6,
                epochs: 12,
                fail_epoch: 2,
                rate: 300.0,
                rebuild_rates: vec![100_000.0, 300_000.0],
                stream_w_per_k: 12.0,
                seed: 53,
                threads: disksim::par::default_parallelism(),
            },
        }
    }

    fn spec(&self) -> DiskSpec {
        DiskSpec::era(2002, 1, Rpm::new(15_020.0))
    }

    fn fleet(&self) -> Result<Fleet, LabError> {
        let fail =
            |e: &dyn std::fmt::Display| LabError::Experiment(format!("scenario_rebuild: {e}"));
        let mut config = FleetConfig::serial(
            self.enclosures,
            self.spec(),
            DriveThermalSpec::new(Inches::new(2.6), 1),
            self.stream_w_per_k,
        )
        .map_err(|e| fail(&e))?;
        config.array = Some(EnclosureArray {
            disks: ARRAY_DISKS,
            stripe_sectors: STRIPE_SECTORS,
        });
        // Round-robin, not thermal-aware: the degraded enclosure sits in
        // the hot half of the serial stream, so a thermal-aware router
        // would starve it of foreground I/O and hide exactly the
        // degraded-read cost this experiment sweeps.
        config.routing = RoutingPolicy::RoundRobin;
        config.threads = self.threads;
        Fleet::new(config).map_err(|e| fail(&e))
    }

    fn run_one(
        &self,
        scenario: Scenario,
        rate: f64,
    ) -> Result<(Vec<EpochSample>, RebuildOutcome), LabError> {
        let mut fleet = self.fleet()?;
        let mut source = scenario_support::read_mostly_source(&self.spec(), self.rate, self.seed)?;
        let (samples, report) = scenario_support::drive(&mut fleet, &mut source, scenario, self.epochs)?;
        let repaired_at = samples
            .iter()
            .find(|s| s.rebuild_total > 0 && s.rebuild_done == s.rebuild_total)
            .map(|s| s.epoch);
        let last = samples.last().expect("at least one epoch ran");
        let rebuilt_fraction = if last.rebuild_total > 0 {
            last.rebuild_done as f64 / last.rebuild_total as f64
        } else {
            0.0
        };
        let outcome = RebuildOutcome {
            rebuild_rate_sectors_per_sec: rate,
            repaired_at_epoch: repaired_at,
            rebuilt_fraction,
            completed: report.stats.count(),
            mean_response_ms: report.stats.mean().to_millis(),
            p95_response_ms: report.stats.percentile(95.0).to_millis(),
            peak_air_c: report.max_air.get(),
            time_over_envelope_s: report.time_over_envelope.get(),
        };
        Ok((samples, outcome))
    }
}

impl Experiment for ScenarioRebuild {
    fn name(&self) -> &'static str {
        "scenario_rebuild"
    }

    fn config(&self) -> Value {
        config_object(vec![
            ("enclosures", self.enclosures.to_value()),
            ("epochs", self.epochs.to_value()),
            ("fail_epoch", self.fail_epoch.to_value()),
            ("rate", self.rate.to_value()),
            ("rebuild_rates", self.rebuild_rates.to_value()),
            ("stream_w_per_k", self.stream_w_per_k.to_value()),
            ("seed", self.seed.to_value()),
            ("array_disks", ARRAY_DISKS.to_value()),
            ("stripe_sectors", STRIPE_SECTORS.to_value()),
            ("chunk_sectors", CHUNK_SECTORS.to_value()),
        ])
    }

    fn run(&self) -> Result<RunOutput, LabError> {
        let (_, baseline) = self.run_one(Scenario::new(), 0.0)?;

        let mut storms = Vec::new();
        let mut storm_csv = String::new();
        for &rebuild_rate in &self.rebuild_rates {
            let scenario = Scenario::new().with(Injection::DriveFailure {
                at_epoch: self.fail_epoch,
                enclosure: self.enclosures / 2,
                disk: 1,
                rebuild: RebuildSpec {
                    rate_sectors_per_sec: rebuild_rate,
                    chunk_sectors: CHUNK_SECTORS,
                },
            });
            let (samples, outcome) = self.run_one(scenario, rebuild_rate)?;
            storm_csv = scenario_support::csv_of(&samples);
            storms.push(outcome);
        }

        let mut report = String::new();
        outln!(
            report,
            "{} RAID-5 enclosures ({} disks, {}-sector stripes), read-heavy load at {:.0} req/s; \
             member fails at epoch {} of {}",
            self.enclosures,
            ARRAY_DISKS,
            STRIPE_SECTORS,
            self.rate,
            self.fail_epoch,
            self.epochs
        );
        outln!(report, "{}", rule(92));
        outln!(
            report,
            "{:>14} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "rebuild sect/s",
            "repaired@",
            "rebuilt",
            "mean ms",
            "p95 ms",
            "peak C",
            "over-env s"
        );
        outln!(report, "{}", rule(92));
        let row = |r: &mut String, label: String, o: &RebuildOutcome| {
            outln!(
                r,
                "{:>14} {:>12} {:>9.1}% {:>10.3} {:>10.3} {:>10.2} {:>10.1}",
                label,
                o.repaired_at_epoch
                    .map_or("-".to_string(), |e| format!("epoch {e}")),
                o.rebuilt_fraction * 100.0,
                o.mean_response_ms,
                o.p95_response_ms,
                o.peak_air_c,
                o.time_over_envelope_s
            );
        };
        row(&mut report, "none".to_string(), &baseline);
        for o in &storms {
            row(
                &mut report,
                format!("{:.0}", o.rebuild_rate_sectors_per_sec),
                o,
            );
        }
        outln!(report, "{}", rule(92));
        if let Some(fast) = storms.last() {
            outln!(
                report,
                "fastest rebuild reaches {:.1}% of the lost member at a {:+.3} ms mean / \
                 {:+.3} ms p95 foreground cost over the unfailed baseline",
                fast.rebuilt_fraction * 100.0,
                fast.mean_response_ms - baseline.mean_response_ms,
                fast.p95_response_ms - baseline.p95_response_ms
            );
        }

        let payload = RebuildPayload { baseline, storms };
        Ok(
            RunOutput::single("scenario_rebuild", payload.to_value(), report)
                .with_file("scenario_rebuild.csv", storm_csv),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuild_progresses_and_degrades_foreground_latency() {
        let out = ScenarioRebuild::at_scale(Scale::Quick).run().unwrap();
        let payload = &out.json[0].1;
        let field = |v: &Value, k: &str| v.get(k).cloned().expect("field present");
        let storms = field(payload, "storms");
        let storms = storms.as_array().expect("storm rows");
        assert_eq!(storms.len(), 2);
        let frac = |s: &Value| field(s, "rebuilt_fraction").as_f64().unwrap();
        assert!(frac(&storms[0]) > 0.0, "the rebuild makes progress");
        assert!(
            frac(&storms[1]) > frac(&storms[0]),
            "a faster rebuild rate reconstructs more of the member"
        );
        let baseline_mean = field(&field(payload, "baseline"), "mean_response_ms")
            .as_f64()
            .unwrap();
        let storm_mean = field(&storms[1], "mean_response_ms").as_f64().unwrap();
        let baseline_p95 = field(&field(payload, "baseline"), "p95_response_ms")
            .as_f64()
            .unwrap();
        assert!(
            baseline_p95 >= baseline_mean,
            "p95 is a tail, not a near-fastest response"
        );
        assert!(
            storm_mean > baseline_mean,
            "degraded service plus rebuild I/O must cost foreground latency \
             ({storm_mean} vs {baseline_mean})"
        );
        let (_, csv) = &out.files[0];
        assert!(csv.starts_with("epoch,"), "csv has its header");
        assert_eq!(csv.lines().count() as u64, 12 + 1);
    }
}
