//! Simulator error type.

use units::Seconds;

/// Errors raised when assembling or driving a storage system.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The underlying drive geometry was invalid.
    Geometry(diskgeom::GeometryError),
    /// A request addressed a device index the system does not have.
    NoSuchDevice {
        /// Device index requested.
        device: u32,
        /// Devices available.
        available: u32,
    },
    /// A request ran past the end of the addressed device.
    OutOfRange {
        /// First LBA of the request.
        lba: u64,
        /// Sectors requested.
        sectors: u32,
        /// Total sectors on the device.
        capacity: u64,
    },
    /// The system configuration was inconsistent (e.g. RAID-5 with fewer
    /// than three disks).
    BadConfig(String),
    /// A disk failure was injected into an array that is already running
    /// degraded (RAID-5 survives exactly one member loss).
    AlreadyDegraded {
        /// The member that is already marked failed.
        device: u32,
    },
    /// A run reached 24 hours of sim time with work still pending — a
    /// DTM policy that gates admission forever never drains.
    SimTimeCap {
        /// Sim time when the run stopped.
        at: Seconds,
        /// Requests still awaiting admission or in flight.
        pending: u64,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Geometry(e) => write!(f, "geometry error: {e}"),
            Self::NoSuchDevice { device, available } => {
                write!(f, "device {device} requested but only {available} configured")
            }
            Self::OutOfRange {
                lba,
                sectors,
                capacity,
            } => write!(
                f,
                "request [{lba}, {}) exceeds device capacity {capacity}",
                lba.saturating_add(u64::from(*sectors))
            ),
            Self::BadConfig(msg) => write!(f, "bad system configuration: {msg}"),
            Self::AlreadyDegraded { device } => {
                write!(f, "array already degraded: member {device} is failed")
            }
            Self::SimTimeCap { at, pending } => write!(
                f,
                "run stopped at the 24 h sim-time cap ({at}) with {pending} request(s) pending"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<diskgeom::GeometryError> for SimError {
    fn from(e: diskgeom::GeometryError) -> Self {
        Self::Geometry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SimError::OutOfRange {
            lba: 100,
            sectors: 8,
            capacity: 50,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("108") && s.contains("50"));
    }

    #[test]
    fn geometry_error_chains_as_source() {
        use std::error::Error;
        let e = SimError::from(diskgeom::GeometryError::NoPlatters);
        assert!(e.source().is_some());
    }
}
