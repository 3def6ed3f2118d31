//! `lab trace <scenario>` — run an instrumented scenario and write its
//! event stream plus derived metrics under `results/`.
//!
//! A trace run produces three files per scenario:
//!
//! - `trace_<name>.ndjson` — the full event stream, one JSON object per
//!   line, stamped with **sim time**. Because every emission site stamps
//!   sim time and all cross-thread merges happen in the serial phases,
//!   the bytes are identical at any `--threads` value (the
//!   `lab_determinism` suite pins this).
//! - `trace_<name>_metrics.json` — a [`diskobs::Registry`] folded from
//!   the stream: per-event-type counters, a response-time histogram, and
//!   peak-temperature gauges.
//! - `trace_<name>_timeseries.csv` — the per-drive snapshot probes
//!   (temperature, queue depth, utilization, duty, RPM, gate state) as a
//!   flat CSV table.

use crate::error::LabError;
use diskfleet::{Fleet, FleetConfig, FleetDtmPolicy, RoutingPolicy};
use diskobs::{Event, NdjsonRecorder, Recorder, Registry, Sink, TimedEvent, Timeseries};
use disksim::{DiskSpec, Request, RequestKind};
use diskthermal::{DriveThermalSpec, NodeTemps, TempSensor, THERMAL_ENVELOPE};
use std::path::{Path, PathBuf};
use units::{Inches, Rpm, Seconds, TempDelta};

/// The registered trace scenarios.
pub fn trace_names() -> &'static [&'static str] {
    &["figure5", "fleet_routing", "scenario_rebuild"]
}

/// What one trace run produced.
#[derive(Debug)]
pub struct TraceOutcome {
    /// Scenario name.
    pub name: String,
    /// Events in the stream.
    pub events: usize,
    /// Files written, in write order.
    pub files: Vec<PathBuf>,
}

/// Runs the named scenario with a recording sink and writes the event
/// stream, metrics registry, and snapshot timeseries into `dir`.
///
/// `threads` shards the fleet scenario's event loop; the emitted bytes
/// are independent of it.
///
/// # Errors
///
/// Fails on an unknown scenario name, a simulation error, or I/O.
pub fn run_trace(name: &str, threads: usize, dir: &Path) -> Result<TraceOutcome, LabError> {
    let mut sink = Sink::buffer();
    match name {
        "figure5" => trace_figure5(&mut sink)?,
        "fleet_routing" => trace_fleet_routing(threads, &mut sink)?,
        "scenario_rebuild" => trace_scenario_rebuild(threads, &mut sink)?,
        other => {
            return Err(LabError::Experiment(format!(
                "unknown trace scenario {other:?} (have: {})",
                trace_names().join(", ")
            )))
        }
    }
    let mut events = Vec::new();
    sink.drain_into(&mut events);
    write_outputs(name, &events, dir)
}

/// The figure5 companion scenario: the 2.6" drive the paper ramps from
/// 15,020 to 26,750 RPM, started cold and run closed-loop — a one-bay
/// fleet deciding after every 250 ms window — under the slack-ramp
/// policy with a SMART-style sensor. The 12.5-s run never nears the
/// envelope, so the trace shows the boost at start (one RPM
/// transition), each request's routing, issue and completion, and the
/// sensor's whole-degree readings against the true air; no boost or
/// unboost action fires.
fn trace_figure5(sink: &mut Sink) -> Result<(), LabError> {
    let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("trace figure5: {e}"));
    let spec = DiskSpec::era(2002, 1, Rpm::new(15_020.0));
    let capacity = spec.geometry().total_sectors().get();
    let thermal = DriveThermalSpec::new(Inches::new(2.6), 1);
    let mut config = FleetConfig::serial(1, spec, thermal, 10.0).map_err(|e| fail(&e))?;
    config.dtm = FleetDtmPolicy::SlackRamp {
        base: Rpm::new(15_020.0),
        high: Rpm::new(26_750.0),
        slack_margin: TempDelta::new(0.5),
    };
    config.windows_per_epoch = 1;
    config.sensor = TempSensor::smart_style();
    config.start = Some(NodeTemps::uniform(thermal.ambient()));
    Fleet::new(config)
        .map_err(|e| fail(&e))?
        .run_with_sink(synthetic_trace(1_500, 120.0, capacity), sink)
        .map_err(|e| fail(&e))?;
    Ok(())
}

/// The fleet_routing companion scenario: a six-bay serial rack under
/// thermal-aware placement and coordinator speed scaling — routing
/// decisions, per-bay snapshots, and coordinator actions in one stream.
fn trace_fleet_routing(threads: usize, sink: &mut Sink) -> Result<(), LabError> {
    let fail =
        |e: &dyn std::fmt::Display| LabError::Experiment(format!("trace fleet_routing: {e}"));
    let mut config = FleetConfig::serial(
        6,
        DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
        DriveThermalSpec::new(Inches::new(2.6), 1),
        10.0,
    )
    .map_err(|e| fail(&e))?;
    config.routing = RoutingPolicy::ThermalAware {
        envelope: THERMAL_ENVELOPE,
    };
    // Guard wide enough that the hottest bays cross the trip point
    // under this load, so the trace carries coordinator downshifts and
    // the RPM transitions they cause, not just routing and snapshots.
    config.dtm = FleetDtmPolicy::SpeedScale {
        high: Rpm::new(15_020.0),
        low: Rpm::new(12_000.0),
        guard: TempDelta::new(1.6),
        resume_margin: TempDelta::new(0.4),
    };
    config.threads = threads;
    let fleet = Fleet::new(config).map_err(|e| fail(&e))?;
    fleet
        .run_with_sink(synthetic_trace(3_000, 350.0, u64::MAX), sink)
        .map_err(|e| fail(&e))?;
    Ok(())
}

/// A rebuild storm through the scenario engine: a RAID-5 member fails
/// at an epoch boundary mid-run, so the stream carries the scenario
/// vocabulary — `drive_failed`, per-epoch `rebuild_progress` — next to
/// the routing, snapshot, and completion events of the fleet loop.
fn trace_scenario_rebuild(threads: usize, sink: &mut Sink) -> Result<(), LabError> {
    use diskfleet::{EnclosureArray, RebuildSpec};
    use diskscenario::{ArrivalSource, Injection, Scenario, ScenarioEngine};

    let fail =
        |e: &dyn std::fmt::Display| LabError::Experiment(format!("trace scenario_rebuild: {e}"));
    let mut config = FleetConfig::serial(
        4,
        DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
        DriveThermalSpec::new(Inches::new(2.6), 1),
        10.0,
    )
    .map_err(|e| fail(&e))?;
    config.array = Some(EnclosureArray {
        disks: 4,
        stripe_sectors: 65_536,
    });
    config.routing = RoutingPolicy::ThermalAware {
        envelope: THERMAL_ENVELOPE,
    };
    config.threads = threads;
    let mut fleet = Fleet::new(config).map_err(|e| fail(&e))?;
    let capacity = DiskSpec::era(2002, 1, Rpm::new(15_020.0))
        .geometry()
        .total_sectors()
        .get();
    let mut source =
        ArrivalSource::replay(synthetic_trace(1_200, 200.0, capacity)).map_err(|e| fail(&e))?;
    let mut engine = ScenarioEngine::new(Scenario::new().with(Injection::DriveFailure {
        at_epoch: 2,
        enclosure: 1,
        disk: 1,
        rebuild: RebuildSpec {
            rate_sectors_per_sec: 4_000_000.0,
            chunk_sectors: 16_384,
        },
    }));
    let mut samples = Vec::new();
    diskscenario::run_scenario(&mut fleet, &mut source, &mut engine, 6, sink, &mut samples)
        .map_err(|e| fail(&e))?;
    Ok(())
}

/// A deterministic seek-heavy request stream (no RNG: arithmetic
/// striding only, so the scenario needs no seed plumbing).
fn synthetic_trace(n: u64, rate: f64, capacity: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let span = capacity.saturating_sub(64).max(1);
            Request::new(
                i,
                Seconds::new(i as f64 / rate),
                0,
                i.wrapping_mul(7_777_777) % span,
                8,
                if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
            )
        })
        .collect()
}

/// Folds an event stream into the metrics registry `lab trace` exports.
pub fn registry_from(events: &[TimedEvent]) -> Registry {
    let mut reg = Registry::new();
    for e in events {
        match &e.event {
            Event::RequestIssue { .. } => reg.count("request_issue", 1),
            Event::RequestComplete { response_ms, .. } => {
                reg.count("request_complete", 1);
                reg.observe("response_ms", *response_ms);
            }
            Event::RpmTransition { .. } => reg.count("rpm_transition", 1),
            Event::CoordinatorAction { .. } => reg.count("coordinator_action", 1),
            Event::RoutingDecision { .. } => reg.count("routing_decision", 1),
            Event::SensorReading {
                sensed_c, actual_c, ..
            } => {
                reg.count("sensor_reading", 1);
                reg.observe("sensor_error_c", (actual_c - sensed_c).abs());
            }
            Event::Snapshot { air_c, queue, .. } => {
                reg.count("snapshot", 1);
                let peak = reg.gauge("peak_air_c").unwrap_or(f64::NEG_INFINITY);
                reg.gauge_set("peak_air_c", peak.max(*air_c));
                reg.observe("queue_depth", *queue as f64);
            }
            Event::DriveFailed { .. } => reg.count("drive_failed", 1),
            Event::RebuildProgress { .. } => reg.count("rebuild_progress", 1),
            Event::CoolingExcursion { .. } => reg.count("cooling_excursion", 1),
            Event::TrafficPhase { .. } => reg.count("traffic_phase", 1),
            Event::Log { .. } => reg.count("log", 1),
        }
    }
    reg.gauge_set("events", events.len() as f64);
    reg.gauge_set("trace_span_s", events.last().map(|e| e.t).unwrap_or(0.0));
    reg
}

/// Extracts the snapshot probes into the CSV timeseries.
pub fn timeseries_from(events: &[TimedEvent]) -> Timeseries {
    let mut ts = Timeseries::new(&[
        "t", "drive", "air_c", "ambient_c", "queue", "util", "duty", "rpm", "gated",
    ]);
    for e in events {
        if let Event::Snapshot {
            drive,
            air_c,
            ambient_c,
            queue,
            util,
            duty,
            rpm,
            gated,
        } = &e.event
        {
            ts.push(vec![
                e.t,
                *drive as f64,
                *air_c,
                *ambient_c,
                *queue as f64,
                *util,
                *duty,
                *rpm,
                f64::from(u8::from(*gated)),
            ]);
        }
    }
    ts
}

/// Writes the three per-scenario files and returns the outcome.
fn write_outputs(name: &str, events: &[TimedEvent], dir: &Path) -> Result<TraceOutcome, LabError> {
    std::fs::create_dir_all(dir)?;
    let mut files = Vec::new();

    let ndjson = dir.join(format!("trace_{name}.ndjson"));
    let mut recorder = NdjsonRecorder::create_atomic(&ndjson)?;
    for e in events {
        recorder.record(e);
    }
    recorder.commit()?;
    files.push(ndjson);

    let metrics = dir.join(format!("trace_{name}_metrics.json"));
    std::fs::write(&metrics, registry_from(events).to_json_pretty() + "\n")?;
    files.push(metrics);

    let csv = dir.join(format!("trace_{name}_timeseries.csv"));
    std::fs::write(&csv, timeseries_from(events).to_csv())?;
    files.push(csv);

    for f in &files {
        diskobs::logger::info(&format!("wrote {}", f.display()));
    }
    Ok(TraceOutcome {
        name: name.to_string(),
        events: events.len(),
        files,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("disklab-trace-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let dir = scratch("unknown");
        let err = run_trace("figure99", 1, &dir).unwrap_err();
        assert!(err.to_string().contains("figure99"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn figure5_trace_writes_all_three_files() {
        let dir = scratch("fig5");
        let outcome = run_trace("figure5", 1, &dir).unwrap();
        assert_eq!(outcome.files.len(), 3);
        assert!(outcome.events > 0);
        for f in &outcome.files {
            assert!(f.is_file(), "{} missing", f.display());
        }
        // The stream carries both request completions and RPM activity.
        let text = std::fs::read_to_string(&outcome.files[0]).unwrap();
        assert!(text.contains("RequestComplete"));
        assert!(text.contains("RpmTransition"));
        assert!(text.contains("SensorReading"));
        let metrics = std::fs::read_to_string(&outcome.files[1]).unwrap();
        assert!(metrics.contains("response_ms"));
        let csv = std::fs::read_to_string(&outcome.files[2]).unwrap();
        assert!(csv.starts_with("t,drive,air_c"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_trace_contains_routing_and_snapshots() {
        let dir = scratch("fleet");
        let outcome = run_trace("fleet_routing", 2, &dir).unwrap();
        let text = std::fs::read_to_string(&outcome.files[0]).unwrap();
        assert!(text.contains("RoutingDecision"));
        assert!(text.contains("Snapshot"));
        // Timestamps are non-decreasing: the stream is a real timeline.
        let mut prev = f64::NEG_INFINITY;
        for line in text.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            let t = v.get("t").and_then(serde_json::Value::as_f64).unwrap();
            assert!(t >= prev, "timestamps regressed: {t} after {prev}");
            prev = t;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
