//! Arrival sources: one interface over synthetic generator streams and
//! recorded-trace replay, so the fleet and the twin consume real traces
//! exactly as they consume synthetic ones.

use disksim::Request;
use serde::{Deserialize, Serialize};
use std::fmt;
use units::Seconds;
use workloads::{TraceStream, TraceStreamState};

/// Why a recorded trace cannot be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The trace holds no requests: there is no period to loop over.
    Empty,
    /// A request's arrival is NaN or infinite, so the trace has no
    /// arrival order.
    NonFiniteArrival {
        /// Id of the first such request in trace order.
        id: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => f.write_str("cannot replay an empty trace"),
            Self::NonFiniteArrival { id } => {
                write!(f, "cannot replay request {id}: its arrival time is not finite")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Callers that report errors as text keep using `?` on
/// [`ArrivalSource::replay`].
impl From<ReplayError> for String {
    fn from(e: ReplayError) -> Self {
        e.to_string()
    }
}

/// An endless replay of a recorded trace (MSR-Cambridge, DiskSim ASCII,
/// or JSON lines — anything `workloads::read_trace` produces).
///
/// The trace is sorted on construction (arrival by `total_cmp`, then
/// id — the order `Fleet::run` imposes) and replays lap after lap: when the
/// recording runs out, it starts over with arrivals shifted by one
/// recording period and ids shifted by one recording length, so the
/// stream never ends and never repeats an id. Rescaling it through
/// [`ArrivalSource::scale_traffic`] compresses future inter-arrival gaps
/// without ever moving time backwards, matching the synthetic stream's
/// rate-scaling semantics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplaySource {
    trace: Vec<Request>,
    cursor: usize,
    lap: u64,
    /// One lap's arrival span, seconds (last arrival plus one mean gap).
    period: f64,
    /// Cumulative rate multiplier applied to future gaps.
    rate: f64,
    /// Raw (recorded) arrival at the last rate change.
    anchor_raw: f64,
    /// Emitted arrival at the last rate change.
    anchor_out: f64,
}

impl ReplaySource {
    /// Wraps a recorded trace for replay.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Empty`] for an empty trace — there is no period
    /// to loop over — and [`ReplayError::NonFiniteArrival`] naming the
    /// first request whose arrival is NaN or infinite.
    pub fn new(mut trace: Vec<Request>) -> Result<Self, ReplayError> {
        if trace.is_empty() {
            return Err(ReplayError::Empty);
        }
        if let Some(r) = trace.iter().find(|r| !r.arrival.get().is_finite()) {
            return Err(ReplayError::NonFiniteArrival { id: r.id });
        }
        trace.sort_by(|a, b| {
            a.arrival
                .get()
                .total_cmp(&b.arrival.get())
                .then(a.id.cmp(&b.id))
        });
        let last = trace.last().expect("non-empty").arrival.get();
        let mean_gap = (last / trace.len() as f64).max(1e-6);
        Ok(Self {
            trace,
            cursor: 0,
            lap: 0,
            period: last + mean_gap,
            rate: 1.0,
            anchor_raw: 0.0,
            anchor_out: 0.0,
        })
    }

    /// Requests in one recorded lap.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Never true: construction rejects empty traces.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// One lap's arrival span in seconds.
    pub fn period(&self) -> Seconds {
        Seconds::new(self.period)
    }

    fn next_request(&mut self) -> Request {
        let r = self.trace[self.cursor];
        let raw = r.arrival.get() + self.lap as f64 * self.period;
        let out = self.anchor_out + (raw - self.anchor_raw) / self.rate;
        let id = r.id + self.lap * self.trace.len() as u64;
        self.cursor += 1;
        if self.cursor == self.trace.len() {
            self.cursor = 0;
            self.lap += 1;
        }
        Request::new(id, Seconds::new(out), r.device, r.lba, r.sectors, r.kind)
    }

    fn scale_traffic(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "traffic scale factor must be positive and finite, got {factor}"
        );
        // Re-anchor at the current stream position so only future gaps
        // compress; emitted time never regresses.
        let raw_here = if self.cursor == 0 && self.lap == 0 {
            0.0
        } else if self.cursor == 0 {
            self.trace[self.trace.len() - 1].arrival.get() + (self.lap - 1) as f64 * self.period
        } else {
            self.trace[self.cursor - 1].arrival.get() + self.lap as f64 * self.period
        };
        self.anchor_out += (raw_here - self.anchor_raw) / self.rate;
        self.anchor_raw = raw_here;
        self.rate *= factor;
    }
}

/// Where a fleet's (or twin's) arrivals come from: a seeded synthetic
/// generator stream or the replay of a recorded trace. Both are
/// endless, deterministic, rate-scalable, and checkpointable, so every
/// consumer treats them identically.
#[derive(Debug, Clone)]
pub enum ArrivalSource {
    /// A `workloads` generator stream.
    Synthetic(TraceStream),
    /// Recorded-trace replay.
    Replay(ReplaySource),
}

/// Complete dynamic state of an [`ArrivalSource`], captured for
/// checkpointing. Replay states carry the recording itself, so a
/// checkpoint restores without access to the original trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalSourceState {
    /// State of a synthetic generator stream.
    Synthetic(TraceStreamState),
    /// State of a trace replay.
    Replay(ReplaySource),
}

impl ArrivalSource {
    /// Opens a replay source over a recorded trace.
    ///
    /// # Errors
    ///
    /// As [`ReplaySource::new`]: an empty trace or a non-finite
    /// arrival.
    pub fn replay(trace: Vec<Request>) -> Result<Self, ReplayError> {
        Ok(Self::Replay(ReplaySource::new(trace)?))
    }

    /// Draws the next request. Arrivals are nondecreasing.
    pub fn next_request(&mut self) -> Request {
        match self {
            Self::Synthetic(s) => s.next_request(),
            Self::Replay(r) => r.next_request(),
        }
    }

    /// Rescales the long-run arrival rate by `factor`, keeping the
    /// clock (and burst phase, for synthetic streams).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite.
    pub fn scale_traffic(&mut self, factor: f64) {
        match self {
            Self::Synthetic(s) => s.scale_traffic(factor),
            Self::Replay(r) => r.scale_traffic(factor),
        }
    }

    /// Captures the complete source state for checkpointing.
    pub fn capture_state(&self) -> ArrivalSourceState {
        match self {
            Self::Synthetic(s) => ArrivalSourceState::Synthetic(s.capture_state()),
            Self::Replay(r) => ArrivalSourceState::Replay(r.clone()),
        }
    }

    /// Rebuilds a source mid-flight from a captured state.
    ///
    /// # Errors
    ///
    /// Returns a validation message for degenerate states (a corrupted
    /// checkpoint body).
    pub fn restore_state(state: ArrivalSourceState) -> Result<Self, String> {
        Ok(match state {
            ArrivalSourceState::Synthetic(s) => Self::Synthetic(TraceStream::restore_state(s)?),
            ArrivalSourceState::Replay(r) => {
                if r.trace.is_empty() {
                    return Err("cannot replay an empty trace".into());
                }
                if r.cursor >= r.trace.len() {
                    return Err("replay cursor out of range".into());
                }
                if !(r.rate.is_finite() && r.rate > 0.0) {
                    return Err("replay rate must be positive and finite".into());
                }
                Self::Replay(r)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::RequestKind;

    fn record(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::new(
                    i,
                    Seconds::new(i as f64 * 0.01),
                    0,
                    i * 64,
                    8,
                    if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
                )
            })
            .collect()
    }

    #[test]
    fn replay_wraps_with_shifted_arrivals_and_fresh_ids() {
        let mut src = ArrivalSource::replay(record(5)).unwrap();
        let first_lap: Vec<Request> = (0..5).map(|_| src.next_request()).collect();
        let second_lap: Vec<Request> = (0..5).map(|_| src.next_request()).collect();
        for (a, b) in first_lap.iter().zip(&second_lap) {
            assert!(b.arrival > a.arrival, "wrapped arrivals keep increasing");
            assert_eq!(b.id, a.id + 5, "ids never repeat");
            assert_eq!((b.lba, b.sectors, b.kind), (a.lba, a.sectors, a.kind));
        }
    }

    #[test]
    fn scale_traffic_compresses_future_gaps_only() {
        let mut src = ArrivalSource::replay(record(10)).unwrap();
        let a = src.next_request();
        let b = src.next_request();
        src.scale_traffic(2.0);
        let c = src.next_request();
        let d = src.next_request();
        assert!((b.arrival.get() - a.arrival.get() - 0.01).abs() < 1e-12);
        assert!(c.arrival >= b.arrival, "time never regresses");
        assert!(
            (d.arrival.get() - c.arrival.get() - 0.005).abs() < 1e-12,
            "gaps halve at 2x rate"
        );
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let mut src = ArrivalSource::replay(record(7)).unwrap();
        for _ in 0..10 {
            src.next_request();
        }
        src.scale_traffic(1.5);
        let state = src.capture_state();
        let json = serde_json::to_string(&state).unwrap();
        let back: ArrivalSourceState = serde_json::from_str(&json).unwrap();
        let mut restored = ArrivalSource::restore_state(back).unwrap();
        for _ in 0..20 {
            assert_eq!(src.next_request(), restored.next_request());
        }
    }

    #[test]
    fn empty_traces_are_rejected() {
        assert!(matches!(ArrivalSource::replay(Vec::new()), Err(ReplayError::Empty)));
    }

    #[test]
    fn non_finite_arrivals_are_rejected_without_panicking() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut trace = record(64);
            for r in trace.iter_mut().skip(5).step_by(7) {
                r.arrival = Seconds::new(bad);
            }
            assert_eq!(
                ArrivalSource::replay(trace).err(),
                Some(ReplayError::NonFiniteArrival { id: 5 }),
                "arrival {bad}"
            );
        }
    }
}
