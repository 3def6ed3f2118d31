//! Thermally-coupled multi-drive fleet simulation (`diskfleet`).
//!
//! The paper designs and manages one drive against its thermal envelope;
//! racks hold dozens, and they share their cooling air. This crate
//! scales the single-drive machinery up:
//!
//! - an **airflow graph** ([`AirflowGraph`]) couples the drives
//!   thermally — each drive's inlet ambient is the rack inlet plus the
//!   preheat of upstream drives' exhaust, the §4.2.2 ambient boundary
//!   condition generalized to rack scale;
//! - pluggable **request routing** ([`RoutingPolicy`]): round-robin,
//!   least-queue, and thermal-aware placement weighted by thermal slack
//!   — the §5.4 idea of steering reads away from a hot drive, across N
//!   drives;
//! - a **DTM coordinator** ([`FleetDtmPolicy`]) applying per-drive
//!   speed scaling or slack-ramp (§5.2) and admission-throttle (§5.3)
//!   decisions under one shared envelope, on each drive's air as a
//!   configurable sensor reads it, through one trip/resume rule;
//! - a **sharded deterministic event loop** ([`Fleet::run`]) advancing
//!   the bays in parallel between thermal-coupling sync epochs,
//!   byte-identical at any thread count, with per-bay temperature,
//!   DTM-time and energy accounting ([`EnclosureReport`]).
//!
//! This is the repository's one closed DTM loop. Each bay serves its
//! requests in fixed control windows, measures the actuator duty they
//! produced and carries the drive's node temperatures across the window
//! by the exact window map at that operating point
//! (`diskthermal::Propagator`, one per spindle speed, shared by every
//! bay); the coordinator acts on the sensed air at each sync epoch. A
//! single drive under per-window control is a one-bay fleet with one
//! window per epoch (`windows_per_epoch = 1`), started where the caller
//! says ([`FleetConfig::start`]).
//!
//! # Examples
//!
//! ```
//! use diskfleet::{Fleet, FleetConfig, RoutingPolicy};
//! use disksim::{DiskSpec, Request, RequestKind};
//! use diskthermal::{DriveThermalSpec, THERMAL_ENVELOPE};
//! use units::{Inches, Rpm, Seconds};
//!
//! let mut config = FleetConfig::serial(
//!     4,
//!     DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
//!     DriveThermalSpec::new(Inches::new(2.6), 1),
//!     12.0, // cooling-stream capacity rate, W/K
//! )?;
//! config.routing = RoutingPolicy::ThermalAware { envelope: THERMAL_ENVELOPE };
//! let trace: Vec<Request> = (0..100)
//!     .map(|i| Request::new(i, Seconds::new(i as f64 / 200.0), 0, i * 100_003, 8, RequestKind::Read))
//!     .collect();
//! let report = Fleet::new(config)?.run(trace)?;
//! assert_eq!(report.stats.count(), 100);
//! assert!(report.max_air > report.per_enclosure[0].max_local_ambient);
//! # Ok::<(), diskfleet::FleetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod airflow;
mod bay;
mod coordinator;
mod error;
mod fleet;
mod hall;
mod routing;

pub use airflow::AirflowGraph;
pub use coordinator::FleetDtmPolicy;
pub use error::FleetError;
pub use hall::HallSpec;
pub use fleet::{
    EnclosureArray, EnclosureReport, Fleet, FleetConfig, FleetPhaseProfile, FleetReport,
    FleetState, Rebuild, RebuildSpec, REBUILD_ID_BASE,
};
pub use routing::{DriveSnapshot, Router, RoutingPolicy};
