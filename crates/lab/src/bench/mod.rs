//! `lab bench` — seven timed suites run from one table.
//!
//! [`SUITES`] lists them: `thermal` (the thermal kernel), `sim` (the
//! storage event core), `fleet` (the sharded epoch loop), `obs` (the
//! recording tax), `twin` (checkpoints, forks, what-ifs), `scenario`
//! (trace replay, rebuild storms) and `surrogate` (capacity-plan
//! screening); each module's docs say what it times. [`run`] measures
//! the selected suites and prints each report as the JSON a full run
//! writes to the suite's `BENCH_<suite>.json` at the workspace root,
//! stamped with [`Provenance`]. `--quick` shrinks the iteration counts,
//! asserts the in-process bounds and diffs each suite's gated fields
//! against the committed files instead of writing them.

mod fleet;
mod obs;
mod scenario;
mod sim;
mod surrogate;
mod thermal;
mod twin;

use crate::registry;
use crate::text::results_dir;
use crate::{LabError, Scale};
use serde::Serialize;
use serde_json::Value;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// One `lab bench` suite.
pub struct Suite {
    /// Name on the command line (`lab bench <name>`).
    pub name: &'static str,
    /// Baseline file at the workspace root that a full run writes.
    pub file: &'static str,
    /// Measures the suite (`true` = quick), enforcing its in-process
    /// bounds, and returns the report a full run writes to `file`.
    pub measure: fn(bool) -> Result<Value, LabError>,
    /// Report fields the quick gate diffs against the same field of the
    /// committed `file`. A field whose report carries a `<field>_basis`
    /// companion is compared only when that reads `"measured"` in both
    /// the report and the committed file: on a small host the number may
    /// be an Amdahl projection, and a projection diffed against a
    /// measurement gates physics, not code.
    pub gated: &'static [(&'static str, Better)],
}

/// Which way a gated metric improves: a rate (bigger = faster) or a
/// wall/latency number (smaller = faster).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

use Better::{Higher, Lower};

/// Every suite, in run order. Scale-dependent numbers stay out of the
/// gated lists: quick runs shrink them by design.
pub static SUITES: [Suite; 7] = [
    Suite {
        name: "thermal",
        file: "BENCH_thermal.json",
        measure: |quick| Ok(thermal::thermal_bench(quick)?.to_value()),
        gated: &[
            ("be_cached_steps_per_sec", Higher),
            ("fe_steps_per_sec", Higher),
            ("steady_memoized_solves_per_sec", Higher),
            ("figure5_wall_ms", Lower),
        ],
    },
    Suite {
        name: "sim",
        file: "BENCH_sim.json",
        measure: |quick| Ok(sim::sim_bench(quick)?.to_value()),
        gated: &[("windows_per_sec", Higher)],
    },
    Suite {
        name: "fleet",
        file: "BENCH_fleet.json",
        measure: fleet::measure,
        gated: &[
            ("serial_windows_per_sec", Higher),
            ("shard_speedup", Higher),
        ],
    },
    Suite {
        name: "obs",
        file: "BENCH_obs.json",
        measure: obs::measure,
        gated: &[],
    },
    Suite {
        name: "twin",
        file: "BENCH_twin.json",
        measure: |quick| Ok(twin::twin_bench(quick)?.to_value()),
        gated: &[
            ("checkpoint_encode_per_sec", Higher),
            ("checkpoint_restore_per_sec", Higher),
        ],
    },
    Suite {
        name: "scenario",
        file: "BENCH_scenario.json",
        measure: |quick| Ok(scenario::scenario_bench(quick)?.to_value()),
        // Per-epoch and per-draw costs are scale-free, so they diff
        // cleanly against the committed full run.
        gated: &[
            ("replay_draws_per_sec", Higher),
            ("baseline_epoch_ms", Lower),
        ],
    },
    Suite {
        name: "surrogate",
        file: "BENCH_surrogate.json",
        measure: |quick| Ok(surrogate::surrogate_bench(quick)?.to_value()),
        // The speedup ratio shrinks with the quick sims, so the gate
        // pins the scale-free side: the per-candidate screening cost
        // against the same slate the committed run timed.
        gated: &[("screen_ns_per_candidate", Lower)],
    },
];

/// Looks a suite up by its command-line name.
pub fn suite(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.name == name)
}

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

/// Times one full in-process run of a registered experiment, in ms.
fn experiment_wall_ms(name: &str, scale: Scale) -> Result<f64, LabError> {
    let exp = registry::by_name(name, scale)
        .ok_or_else(|| LabError::Experiment(format!("unknown experiment {name:?}")))?;
    let start = Instant::now();
    black_box(exp.run()?);
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

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
    /// Which way the metric improves.
    better: Better,
}

/// Diffs quick-run measurements against the committed `BENCH_*.json`
/// baselines and fails past [`REGRESSION_TOLERANCE`], so `lab bench
/// --quick` (and `scripts/verify.sh` through it) exits non-zero when a
/// change costs a kernel its committed performance. Checks whose
/// baseline file or field is missing are skipped — a fresh checkout
/// without baselines still benches cleanly; a unit test pins every
/// gated field in the committed files. Skipped entirely (with a note)
/// in unoptimized builds, where every number is an artifact of the
/// missing optimizer, not of the code under test.
fn gate_against_baselines(checks: &[GateCheck]) -> Result<(), LabError> {
    if cfg!(debug_assertions) {
        diskobs::logger::info(
            "regression gate: skipped (unoptimized build; baselines are release numbers)",
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
        let regression = match check.better {
            Higher => (base - check.now) / base,
            Lower => (check.now - base) / base,
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
        diskobs::logger::info(&format!(
            "regression gate: {compared} baseline metric(s) within {:.0}% of committed",
            REGRESSION_TOLERANCE * 100.0
        ));
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

impl Suite {
    /// The quick gate's comparisons for this suite's `report`. A gated
    /// field missing from the report is an error, never a skipped check.
    fn gate_checks(&self, report: &Value) -> Result<Vec<GateCheck>, LabError> {
        let mut checks = Vec::new();
        for &(field, better) in self.gated {
            let basis = format!("{field}_basis");
            if let Some(now_basis) = report.get(&basis).and_then(Value::as_str) {
                let committed = baseline_str_field(self.file, &basis);
                if now_basis != "measured" || committed.as_deref() != Some("measured") {
                    continue;
                }
            }
            let now = report.get(field).and_then(Value::as_f64).ok_or_else(|| {
                let name = self.name;
                LabError::Experiment(format!("{name} report has no numeric field {field:?}"))
            })?;
            checks.push(GateCheck {
                file: self.file,
                field,
                now,
                better,
            });
        }
        Ok(checks)
    }
}

/// `lab bench [<suite>...]`: measures each suite in order and prints its
/// report as the JSON a full run writes. A full run writes each report
/// as soon as it is measured; a quick run gates every report against
/// the committed baselines once all are measured.
pub fn run(suites: &[&Suite], quick: bool) -> Result<(), LabError> {
    let mut checks = Vec::new();
    for suite in suites {
        diskobs::logger::info(&format!(
            "bench {} ({})",
            suite.name,
            if quick { "quick" } else { "full" }
        ));
        let report = (suite.measure)(quick)?;
        let json =
            serde_json::to_string_pretty(&report).map_err(|e| LabError::Parse(e.to_string()))?;
        println!("{json}");
        if quick {
            checks.extend(suite.gate_checks(&report)?);
        } else {
            let path = workspace_root()?.join(suite.file);
            std::fs::write(&path, json + "\n")?;
            diskobs::logger::info(&format!("wrote {}", path.display()));
        }
    }
    if quick {
        gate_against_baselines(&checks)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::fleet::fleet_windows_per_sec;
    use super::obs::fleet_wall_ms_with;
    use super::scenario::scenario_bench;
    use super::sim::sim_windows_per_sec;
    use super::thermal::{be_steps_per_sec, fe_steps_per_sec, steady_solves_per_sec};
    use super::twin::twin_bench;
    use super::*;
    use diskthermal::{DriveThermalSpec, OperatingPoint, ThermalModel};
    use units::Rpm;

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
        let mut events = Vec::new();
        buffer.drain_into(&mut events);
        assert!(events.len() > 150, "expected a rich stream, got {}", events.len());
    }

    #[test]
    fn every_gated_field_is_committed_finite_and_positive() {
        // The gate skips a check whose baseline is missing, so a renamed
        // report field would silently switch its check off; pin every
        // gated field to a usable committed value instead.
        for suite in &SUITES {
            for &(field, _) in suite.gated {
                let base = baseline_field(suite.file, field);
                assert!(
                    base.is_some_and(|v| v.is_finite() && v > 0.0),
                    "{}:{field} is {base:?} in the committed baseline",
                    suite.file
                );
            }
        }
    }

    #[test]
    fn suite_names_and_files_are_unique() {
        let names: std::collections::BTreeSet<_> = SUITES.iter().map(|s| s.name).collect();
        let files: std::collections::BTreeSet<_> = SUITES.iter().map(|s| s.file).collect();
        assert_eq!(names.len(), SUITES.len());
        assert_eq!(files.len(), SUITES.len());
        assert!(suite("twin").is_some_and(|s| s.file == "BENCH_twin.json"));
        assert!(suite("all").is_none());
    }

    #[test]
    fn gate_checks_read_reports_and_honor_the_measured_basis() {
        let fleet = suite("fleet").unwrap();
        let report: Value = serde_json::from_str(
            r#"{"serial_windows_per_sec": 5.0, "shard_speedup": 2.0,
                "shard_speedup_basis": "measured"}"#,
        )
        .unwrap();
        let checks = fleet.gate_checks(&report).unwrap();
        let committed_measured =
            baseline_str_field(fleet.file, "shard_speedup_basis").as_deref() == Some("measured");
        assert_eq!(checks.len(), if committed_measured { 2 } else { 1 });
        assert_eq!(checks[0].field, "serial_windows_per_sec");
        assert_eq!(checks[0].now, 5.0);

        let projected: Value = serde_json::from_str(
            r#"{"serial_windows_per_sec": 5.0, "shard_speedup_basis": "amdahl"}"#,
        )
        .unwrap();
        assert_eq!(fleet.gate_checks(&projected).unwrap().len(), 1);

        let renamed: Value = serde_json::from_str(r#"{"windows": 5.0}"#).unwrap();
        assert!(
            fleet.gate_checks(&renamed).is_err(),
            "a missing gated field must fail"
        );
    }
}
