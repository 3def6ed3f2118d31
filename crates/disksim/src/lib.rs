//! Trace-driven, event-driven disk and RAID simulator.
//!
//! A substitute for the DiskSim environment the paper drives its §5.1
//! experiments with. The simulator models the mechanical service
//! components that determine how response times react to spindle speed:
//!
//! - **Seeks** through the three-parameter profile of [`diskperf`],
//!   over the cylinder distances implied by the drive's real geometry;
//! - **rotational latency** with the head's angular position tracked in
//!   absolute time, so consecutive sequential requests catch the platter
//!   where the last transfer left it;
//! - **zoned transfer rates** — a sector on an outer track streams
//!   faster than one on an inner track;
//! - a segmented **disk cache** with read-ahead (the paper gives every
//!   simulated disk a 4 MB cache);
//! - **RAID-0/RAID-5** striping with read-modify-write parity updates;
//! - per-request **response-time statistics** with the same CDF buckets
//!   Figure 4 plots.
//!
//! # Examples
//!
//! ```
//! use disksim::{DiskSpec, Request, RequestKind, StorageSystem, SystemConfig};
//! use units::{Rpm, Seconds};
//!
//! let spec = DiskSpec::era_2001(Rpm::new(10_000.0));
//! let mut system = StorageSystem::new(SystemConfig::single_disk(spec))?;
//! system.submit(Request::new(0, Seconds::ZERO, 0, 1_024, 16, RequestKind::Read));
//! let done = system.drain();
//! assert_eq!(done.len(), 1);
//! assert!(done[0].response_time().to_millis() < 50.0);
//! # Ok::<(), disksim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod calendar;
mod disk;
mod energy;
mod error;
pub mod par;
pub mod queueing;
mod raid;
mod request;
mod shuffle;
mod stats;
mod system;

pub use cache::{CacheConfig, CacheOutcome, DiskCache};
pub use calendar::{ArrivalQueue, TimeKey};
pub use disk::{Disk, DiskSpec, ServiceBreakdown};
pub use energy::{EnergyMeter, EnergyModel, EnergyReport};
pub use error::SimError;
pub use raid::{RaidConfig, RaidLevel};
pub use request::{Completion, Request, RequestKind};
pub use shuffle::{AccessHistogram, ShuffleMap};
pub use stats::{ResponseStats, CDF_BUCKETS_MS};
pub use system::{Scheduler, StorageSystem, SystemConfig, SystemState};
