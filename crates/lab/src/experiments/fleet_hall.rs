//! A machine-room hall at 10k-drive scale: rows of racks of drives.
//!
//! §4.2.2 scales past one rack: a data-center hall recirculates some of
//! every row's exhaust into the rows behind it, so the thermal picture
//! is hierarchical — bay position inside the rack, rack position inside
//! the row, row position inside the hall. The hierarchical
//! [`AirflowGraph::hall`] makes that coupling O(n), and the fleet's
//! split-phase epoch boundary keeps the whole 10,000-drive simulation
//! near-linear in shard count; this experiment is the scale proof. It
//! runs the hall uncontrolled and under the §5.2 speed-scaling
//! coordinator and reports per-row aggregates: the row gradient is the
//! hall-scale analogue of the rack-density sweep's bay gradient.
//!
//! Results are byte-identical at any `threads`, which is pinned by an
//! integration test; the shard-scaling wall-clock claim itself lives in
//! `BENCH_fleet.json`.

use crate::experiments::config_object;
use crate::text::{outln, rule};
use crate::{Experiment, LabError, RunOutput, Scale};
use diskfleet::{AirflowGraph, Fleet, FleetConfig, FleetDtmPolicy, FleetReport, RoutingPolicy};
use disksim::DiskSpec;
use diskthermal::{DriveThermalSpec, THERMAL_ENVELOPE};
use serde::Serialize;
use serde_json::Value;
use units::{Inches, Rpm, TempDelta};
use workloads::{oltp, TraceGenerator};

/// Drives per rack.
const PER_RACK: usize = 20;
/// Racks per row.
const RACKS_PER_ROW: usize = 25;
/// Intra-rack preheat, K/W per upstream drive.
const K_DRIVE: f64 = 4.0e-3;
/// Within-row preheat, K/W of each earlier rack's total heat.
const K_RACK: f64 = 1.2e-4;
/// Row-to-row recirculation, K/W of each earlier row's total heat.
/// Sized so the back third of the full 20-row hall runs past the
/// envelope uncontrolled — the regime where speed scaling engages.
const K_ROW: f64 = 7.0e-5;
/// Full spindle speed.
const HIGH_RPM: f64 = 15_020.0;
/// The speed-scaling coordinator's fallback speed.
const LOW_RPM: f64 = 12_000.0;

#[derive(Serialize)]
struct RowOutcome {
    row: usize,
    racks: usize,
    drives: usize,
    peak_air: f64,
    peak_local_ambient: f64,
    mean_air: f64,
    time_over_envelope_s: f64,
    time_scaled_s: f64,
}

#[derive(Serialize)]
struct HallOutcome {
    drives: usize,
    rows: usize,
    peak_air: f64,
    peak_local_ambient: f64,
    time_over_envelope_s: f64,
    mean_response_ms: f64,
    p95_response_ms: f64,
    epochs: u64,
    rows_detail: Vec<RowOutcome>,
}

#[derive(Serialize)]
struct HallPayload {
    uncontrolled: HallOutcome,
    speed_scaled: HallOutcome,
}

/// Splits a fleet report into per-row aggregates.
fn rows_of(report: &FleetReport) -> Vec<RowOutcome> {
    let per_row = PER_RACK * RACKS_PER_ROW;
    report
        .per_enclosure
        .chunks(per_row)
        .enumerate()
        .map(|(row, bays)| RowOutcome {
            row,
            racks: bays.len().div_ceil(PER_RACK),
            drives: bays.len(),
            peak_air: bays.iter().map(|b| b.max_air.get()).fold(f64::MIN, f64::max),
            peak_local_ambient: bays
                .iter()
                .map(|b| b.max_local_ambient.get())
                .fold(f64::MIN, f64::max),
            mean_air: bays.iter().map(|b| b.mean_air.get()).sum::<f64>() / bays.len() as f64,
            time_over_envelope_s: bays.iter().map(|b| b.time_over_envelope.get()).sum(),
            time_scaled_s: bays.iter().map(|b| b.time_scaled.get()).sum(),
        })
        .collect()
}

fn outcome(report: &FleetReport) -> HallOutcome {
    let rows_detail = rows_of(report);
    HallOutcome {
        drives: report.enclosures,
        rows: rows_detail.len(),
        peak_air: report.max_air.get(),
        peak_local_ambient: report.peak_local_ambient.get(),
        time_over_envelope_s: report.time_over_envelope.get(),
        mean_response_ms: report.stats.mean().to_millis(),
        p95_response_ms: report.stats.percentile(95.0).to_millis(),
        epochs: report.epochs,
        rows_detail,
    }
}

/// The hall-scale fleet experiment.
pub struct FleetHall {
    /// Drives in the hall.
    pub drives: usize,
    /// Requests in the shared trace.
    pub requests: usize,
    /// Fleet-wide offered load, requests/s.
    pub rate: f64,
    /// Trace-generator seed.
    pub seed: u64,
    /// Epoch-loop shards. Results are byte-identical at any value, so
    /// this is not part of the config digest.
    pub threads: usize,
}

impl FleetHall {
    /// Paper-shaped defaults at the given scale: the full hall is
    /// 10,000 drives (20 rows of 25 racks of 20 bays).
    pub fn at_scale(scale: Scale) -> Self {
        let (drives, requests, rate) = match scale {
            Scale::Full => (10_000, 40_000, 2_000.0),
            Scale::Quick => (1_000, 2_400, 600.0),
        };
        FleetHall {
            drives,
            requests,
            rate,
            seed: 31,
            threads: disksim::par::default_parallelism(),
        }
    }

    fn run_hall(
        &self,
        trace: &[disksim::Request],
        dtm: FleetDtmPolicy,
    ) -> Result<FleetReport, LabError> {
        let fail = |e: &dyn std::fmt::Display| {
            LabError::Experiment(format!("fleet_hall ({} drives): {e}", self.drives))
        };
        let airflow = AirflowGraph::hall(
            self.drives,
            PER_RACK,
            RACKS_PER_ROW,
            DriveThermalSpec::new(Inches::new(2.6), 1).ambient(),
            K_DRIVE,
            K_RACK,
            K_ROW,
        )
        .map_err(|e| fail(&e))?;
        let mut config = FleetConfig::serial(
            self.drives,
            DiskSpec::era(2002, 1, Rpm::new(HIGH_RPM)),
            DriveThermalSpec::new(Inches::new(2.6), 1),
            1.0,
        )
        .map_err(|e| fail(&e))?;
        config.airflow = airflow;
        config.routing = RoutingPolicy::ThermalAware {
            envelope: THERMAL_ENVELOPE,
        };
        config.dtm = dtm;
        config.threads = self.threads;
        let fleet = Fleet::new(config).map_err(|e| fail(&e))?;
        fleet.run(trace.to_vec()).map_err(|e| fail(&e))
    }
}

impl Experiment for FleetHall {
    fn name(&self) -> &'static str {
        "fleet_hall"
    }

    fn config(&self) -> Value {
        config_object(vec![
            ("drives", self.drives.to_value()),
            ("requests", self.requests.to_value()),
            ("rate", self.rate.to_value()),
            ("seed", self.seed.to_value()),
            ("per_rack", PER_RACK.to_value()),
            ("racks_per_row", RACKS_PER_ROW.to_value()),
            ("k_drive", K_DRIVE.to_value()),
            ("k_rack", K_RACK.to_value()),
            ("k_row", K_ROW.to_value()),
            ("high_rpm", HIGH_RPM.to_value()),
            ("low_rpm", LOW_RPM.to_value()),
        ])
    }

    fn run(&self) -> Result<RunOutput, LabError> {
        let mut report = String::new();
        let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("fleet_hall: {e}"));

        let capacity = DiskSpec::era(2002, 1, Rpm::new(HIGH_RPM))
            .geometry()
            .total_sectors()
            .get();
        let preset = oltp();
        let generator = TraceGenerator::new(
            preset.profile.clone(),
            preset.arrivals.with_mean_rate(self.rate),
            1,
            capacity,
        )
        .map_err(|e| fail(&e))?;
        let trace = generator.generate(self.requests, self.seed);

        let free = self.run_hall(&trace, FleetDtmPolicy::None)?;
        let scaled = self.run_hall(
            &trace,
            FleetDtmPolicy::SpeedScale {
                high: Rpm::new(HIGH_RPM),
                low: Rpm::new(LOW_RPM),
                guard: TempDelta::new(0.3),
                resume_margin: TempDelta::new(0.3),
            },
        )?;
        let payload = HallPayload {
            uncontrolled: outcome(&free),
            speed_scaled: outcome(&scaled),
        };

        outln!(
            report,
            "{} drives as rows of {} racks x {} bays; thermal-aware routing, \
             OLTP-shaped load at {:.0} req/s fleet-wide, envelope {:.2} C",
            self.drives,
            RACKS_PER_ROW,
            PER_RACK,
            self.rate,
            THERMAL_ENVELOPE.get()
        );
        outln!(report, "{}", rule(96));
        outln!(
            report,
            "{:>4} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}",
            "row",
            "free peak C",
            "dtm peak C",
            "free amb C",
            "free mean C",
            "over-env s",
            "scaled s"
        );
        outln!(report, "{}", rule(96));
        for (f, s) in payload
            .uncontrolled
            .rows_detail
            .iter()
            .zip(&payload.speed_scaled.rows_detail)
        {
            outln!(
                report,
                "{:>4} {:>14.2} {:>14.2} {:>14.2} {:>14.2} {:>14.1} {:>14.1}",
                f.row,
                f.peak_air,
                s.peak_air,
                f.peak_local_ambient,
                f.mean_air,
                f.time_over_envelope_s,
                s.time_scaled_s
            );
        }
        outln!(report, "{}", rule(96));
        outln!(
            report,
            "hall peak {:.2} C uncontrolled vs {:.2} C speed-scaled; \
             over-envelope {:.0} s vs {:.0} s; p95 {:.2} ms vs {:.2} ms over {} epochs",
            payload.uncontrolled.peak_air,
            payload.speed_scaled.peak_air,
            payload.uncontrolled.time_over_envelope_s,
            payload.speed_scaled.time_over_envelope_s,
            payload.uncontrolled.p95_response_ms,
            payload.speed_scaled.p95_response_ms,
            payload.uncontrolled.epochs
        );

        Ok(RunOutput::single("fleet_hall", payload.to_value(), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn later_rows_run_hotter_and_dtm_cools() {
        let out = FleetHall::at_scale(Scale::Quick).run().unwrap();
        let payload = &out.json[0].1;
        let field = |v: &Value, k: &str| v.get(k).cloned().expect("field present");
        let free_hall = field(payload, "uncontrolled");
        let rows = field(&free_hall, "rows_detail");
        let rows = rows.as_array().expect("row details");
        assert!(rows.len() >= 2, "the quick hall still has multiple rows");
        let amb = |r: &Value| field(r, "peak_local_ambient").as_f64().unwrap();
        let (first, last) = (amb(&rows[0]), amb(&rows[rows.len() - 1]));
        assert!(
            last > first,
            "row recirculation must preheat later rows: {last} vs {first}"
        );
        let free = field(&free_hall, "peak_air").as_f64().unwrap();
        let dtm = field(&field(payload, "speed_scaled"), "peak_air")
            .as_f64()
            .unwrap();
        assert!(dtm <= free, "speed scaling must never heat the hall");
        let ms = |k: &str| field(&free_hall, k).as_f64().unwrap();
        assert!(
            ms("p95_response_ms") >= ms("mean_response_ms"),
            "p95 is a tail, not a near-fastest response"
        );
        let over = |v: &Value| field(v, "time_over_envelope_s").as_f64().unwrap();
        assert!(
            over(&field(payload, "speed_scaled")) <= over(&free_hall),
            "speed scaling must not add over-envelope time"
        );
    }
}
