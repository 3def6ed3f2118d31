//! `thermodisk` — an integrated capacity / performance / thermal model
//! of hard disk drives, with dynamic thermal management.
//!
//! This crate is the front door to a full reproduction of
//! *"Disk Drive Roadmap from the Thermal Perspective: A Case for Dynamic
//! Thermal Management"* (Gurumurthi, Sivasubramaniam and Natarajan,
//! 2005). It re-exports the subsystem crates and adds the glue the paper
//! itself supplies:
//!
//! - [`DriveDesign`] — one drive described once, queryable for capacity
//!   (§3.1), seek/IDR performance (§3.2) and steady/transient thermal
//!   behaviour (§3.3) in a single object;
//! - [`drives`] — the thirteen real SCSI drives of Table 1 and the
//!   rated-temperature data of Table 2, used to validate the models.
//!
//! The subsystem crates are re-exported under their own names
//! ([`geometry`], [`perf`], [`thermal`], [`roadmap`], [`sim`],
//! [`workloads`], [`dtm`]) and the most-used types through the
//! [`prelude`].
//!
//! # Quickstart
//!
//! ```
//! use thermodisk::prelude::*;
//!
//! // Design a 2002-era drive: one 2.6" platter, 50 zones, 15,000 RPM.
//! let design = DriveDesign::builder()
//!     .platter_diameter(Inches::new(2.6))
//!     .platters(1)
//!     .zones(50)
//!     .rpm(Rpm::new(15_000.0))
//!     .densities_of_year(2002)
//!     .build()?;
//!
//! // The three faces of the model:
//! assert!(design.capacity().gigabytes() > 20.0);
//! assert!(design.max_idr().get() > 100.0);
//! assert!(design.worst_case_temp() < Celsius::new(45.5));
//! assert!(design.fits_envelope(THERMAL_ENVELOPE));
//! # Ok::<(), thermodisk::DesignError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drives;
mod model;

pub use model::{DesignError, DriveDesign, DriveDesignBuilder};

pub use diskgeom as geometry;
pub use diskperf as perf;
pub use disksim as sim;
pub use diskthermal as thermal;
pub use dtm;
pub use roadmap;
pub use units;
pub use workloads;

/// The most commonly used types, importable in one line.
///
/// The closed DTM loop is `diskfleet::Fleet` (one drive is a one-bay
/// fleet, and its `FleetDtmPolicy::Throttle` names its spindle speeds
/// itself); [`ThrottlePolicy`](dtm::ThrottlePolicy) is the throttling
/// mechanism the open-loop Figure 6/7 throttling-ratio analysis
/// studies.
pub mod prelude {
    pub use crate::drives::{self, DriveRecord};
    pub use crate::{DesignError, DriveDesign};
    pub use diskgeom::{DriveGeometry, Platter, RecordingTech, ZoneTable};
    pub use diskperf::{idr, required_rpm, SeekProfile};
    pub use disksim::{
        DiskSpec, Request, RequestKind, ResponseStats, StorageSystem, SystemConfig,
    };
    pub use diskthermal::{
        DriveThermalSpec, OperatingPoint, ThermalModel, ThermalParams, TransientSim,
        THERMAL_ENVELOPE,
    };
    pub use dtm::ThrottlePolicy;
    pub use roadmap::{envelope_roadmap, required_rpm_table, RoadmapConfig, TechnologyTrend};
    pub use units::{
        BitsPerInch, Capacity, Celsius, DataRate, Inches, Power, Rpm, Seconds, TempDelta,
        TracksPerInch,
    };
    pub use workloads::{presets, WorkloadPreset};
}
