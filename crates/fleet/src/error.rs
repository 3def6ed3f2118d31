//! Fleet-level error type.

use disksim::SimError;
use std::fmt;
use units::Seconds;

/// Everything that can go wrong assembling or running a fleet.
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// The underlying event simulator rejected a configuration or
    /// request.
    Sim(SimError),
    /// The fleet configuration itself is inconsistent (mismatched
    /// airflow graph, zero enclosures, bad coupling coefficients, ...).
    Config(String),
    /// An injection addressed an enclosure index the fleet does not
    /// have.
    NoSuchEnclosure {
        /// Enclosure index requested.
        enclosure: usize,
        /// Enclosures in the fleet.
        fleet: usize,
    },
    /// A trace request's arrival is NaN or infinite, so the trace has
    /// no arrival order.
    NonFiniteArrival {
        /// Id of the first such request in trace order.
        id: u64,
    },
    /// A run reached 24 hours of sim time with work still pending — a
    /// DTM policy that gates every drive forever never drains.
    SimTimeCap {
        /// Sim time when the run stopped.
        at: Seconds,
        /// Requests still queued for routing, awaiting admission or in
        /// flight.
        pending: u64,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Sim(e) => write!(f, "simulator error: {e}"),
            FleetError::Config(msg) => write!(f, "fleet configuration error: {msg}"),
            FleetError::NoSuchEnclosure { enclosure, fleet } => {
                write!(f, "enclosure {enclosure} requested but the fleet has {fleet}")
            }
            FleetError::NonFiniteArrival { id } => {
                write!(f, "request {id} has a non-finite arrival time")
            }
            FleetError::SimTimeCap { at, pending } => write!(
                f,
                "run stopped at the 24 h sim-time cap ({at}) with {pending} request(s) pending"
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for FleetError {
    fn from(e: SimError) -> Self {
        FleetError::Sim(e)
    }
}
