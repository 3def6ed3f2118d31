//! The typed event vocabulary and its sim-time stamp.
//!
//! Every field is a plain scalar so the crate sits below `disksim` in
//! the dependency graph; producers translate their domain types at the
//! emission site. Timestamps are **simulated seconds** — wall time never
//! enters a trace, which is what keeps traces byte-identical at any
//! thread or shard count.

use serde::Serialize;

/// One thing that happened inside a simulated run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Event {
    /// A logical request entered service consideration at a drive.
    RequestIssue {
        /// Request id (trace-global).
        id: u64,
        /// Target device within the storage system.
        device: u32,
        /// Starting logical block address.
        lba: u64,
        /// Transfer length in sectors.
        sectors: u32,
        /// `"read"` or `"write"`.
        kind: &'static str,
    },
    /// A logical request completed.
    RequestComplete {
        /// Request id (trace-global).
        id: u64,
        /// Sim time service started, seconds.
        start: f64,
        /// Arrival-to-finish response time, milliseconds.
        response_ms: f64,
    },
    /// A drive's spindle speed changed (DTM actuation).
    RpmTransition {
        /// Drive index within the traced scope (0 for a single drive).
        drive: usize,
        /// Speed before the transition, RPM.
        from: f64,
        /// Speed after the transition, RPM.
        to: f64,
    },
    /// The fleet coordinator acted on a drive.
    CoordinatorAction {
        /// Drive index within the traced scope.
        drive: usize,
        /// What it did: `"downshift"`, `"upshift"`, `"boost"`,
        /// `"unboost"`, `"gate"`, or `"ungate"`.
        action: &'static str,
    },
    /// The fleet router placed a request on a drive.
    RoutingDecision {
        /// Request id (trace-global).
        request: u64,
        /// Chosen drive index.
        drive: usize,
    },
    /// A temperature sensor was polled.
    SensorReading {
        /// Drive index within the traced scope.
        drive: usize,
        /// What the sensor reported, Celsius.
        sensed_c: f64,
        /// The model's continuous air temperature, Celsius.
        actual_c: f64,
    },
    /// A periodic per-drive state probe.
    Snapshot {
        /// Drive index within the traced scope.
        drive: usize,
        /// Internal-air temperature, Celsius.
        air_c: f64,
        /// Local ambient (inlet) temperature, Celsius.
        ambient_c: f64,
        /// Requests queued or in flight at the drive.
        queue: u64,
        /// Disk busy fraction over the probe interval.
        util: f64,
        /// Actuator duty over the probe interval.
        duty: f64,
        /// Spindle speed, RPM.
        rpm: f64,
        /// Whether admission is currently gated.
        gated: bool,
    },
    /// A drive in a RAID-5 enclosure failed (scenario injection).
    DriveFailed {
        /// Enclosure index within the fleet.
        enclosure: usize,
        /// Failed member disk within the array.
        disk: u32,
    },
    /// Rebuild progress over a degraded array, sampled once per epoch.
    RebuildProgress {
        /// Enclosure index within the fleet.
        enclosure: usize,
        /// Sectors rebuilt so far.
        done: u64,
        /// Total sectors to rebuild.
        total: u64,
    },
    /// An inlet-temperature excursion started or ended over a range of
    /// enclosures (cooling failure or recovery).
    CoolingExcursion {
        /// First affected enclosure index (inclusive).
        lo: usize,
        /// Last affected enclosure index (exclusive).
        hi: usize,
        /// Inlet bias now in force, Celsius (0.0 on recovery).
        delta_c: f64,
    },
    /// The scenario traffic multiplier changed (diurnal phase or flash
    /// crowd boundary).
    TrafficPhase {
        /// Multiplier now applied over the workload's base rate.
        factor: f64,
    },
    /// A progress line from the leveled logger, captured in the trace.
    Log {
        /// `"info"` or `"verbose"`.
        level: &'static str,
        /// The message as printed.
        message: String,
    },
}

/// An [`Event`] stamped with simulated time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimedEvent {
    /// Simulated time of the event, seconds.
    pub t: f64,
    /// What happened.
    pub event: Event,
}

/// Whether `events` is nondecreasing in `t` under `f64::total_cmp`.
///
/// The k-way merge at the fleet's epoch boundary assumes every
/// per-enclosure event run is already time-sorted (each enclosure emits
/// events as its own clock advances); this is the debug-assert guard
/// for that contract. Returns `true` for empty and single-event runs.
pub fn is_time_sorted(events: &[TimedEvent]) -> bool {
    events
        .windows(2)
        .all(|w| w[0].t.total_cmp(&w[1].t) != std::cmp::Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_time_sorted_accepts_ties_and_rejects_regressions() {
        let at = |t: f64| TimedEvent {
            t,
            event: Event::RoutingDecision { request: 0, drive: 0 },
        };
        assert!(is_time_sorted(&[]));
        assert!(is_time_sorted(&[at(1.0)]));
        assert!(is_time_sorted(&[at(1.0), at(1.0), at(2.0)]));
        assert!(!is_time_sorted(&[at(2.0), at(1.0)]));
    }

    #[test]
    fn events_render_stable_ndjson() {
        let e = TimedEvent {
            t: 1.25,
            event: Event::RequestIssue {
                id: 7,
                device: 0,
                lba: 1024,
                sectors: 8,
                kind: "read",
            },
        };
        let line = serde_json::to_string(&e).unwrap();
        assert!(line.starts_with("{\"t\":1.25,"), "line was {line}");
        assert!(line.contains("\"RequestIssue\""));
        assert!(!line.contains('\n'));
        // Rendering is a pure function of the event.
        assert_eq!(line, serde_json::to_string(&e).unwrap());
    }

    #[test]
    fn every_variant_serializes() {
        let variants = vec![
            Event::RequestComplete { id: 1, start: 0.5, response_ms: 12.0 },
            Event::RpmTransition { drive: 2, from: 15_020.0, to: 12_000.0 },
            Event::CoordinatorAction { drive: 1, action: "downshift" },
            Event::RoutingDecision { request: 9, drive: 3 },
            Event::SensorReading { drive: 0, sensed_c: 44.0, actual_c: 44.7 },
            Event::Snapshot {
                drive: 0,
                air_c: 40.0,
                ambient_c: 28.0,
                queue: 3,
                util: 0.5,
                duty: 0.2,
                rpm: 15_020.0,
                gated: false,
            },
            Event::DriveFailed { enclosure: 2, disk: 1 },
            Event::RebuildProgress { enclosure: 2, done: 512, total: 4096 },
            Event::CoolingExcursion { lo: 0, hi: 8, delta_c: 6.0 },
            Event::TrafficPhase { factor: 1.75 },
            Event::Log { level: "info", message: "hello".into() },
        ];
        for event in variants {
            let line = serde_json::to_string(&TimedEvent { t: 0.0, event }).unwrap();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}
