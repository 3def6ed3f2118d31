//! I/O requests and completions.

use serde::{Deserialize, Serialize};
use units::Seconds;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestKind {
    /// Data flows from the medium to the host.
    Read,
    /// Data flows from the host to the medium.
    Write,
}

impl RequestKind {
    /// `true` for reads.
    pub fn is_read(self) -> bool {
        matches!(self, Self::Read)
    }
}

/// One I/O request as it appears in a trace.
///
/// # Examples
///
/// ```
/// use disksim::{Request, RequestKind};
/// use units::Seconds;
///
/// let r = Request::new(7, Seconds::from_millis(12.5), 0, 4_096, 16, RequestKind::Read);
/// assert_eq!(r.end_lba(), 4_112);
/// assert_eq!(r.bytes(), 16 * 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Trace-unique identifier.
    pub id: u64,
    /// Arrival (issue) time.
    pub arrival: Seconds,
    /// Target device index (logical volume index when RAID is layered on
    /// top).
    pub device: u32,
    /// First logical block.
    pub lba: u64,
    /// Length in 512-byte sectors.
    pub sectors: u32,
    /// Read or write.
    pub kind: RequestKind,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `sectors == 0`: zero-length I/O is a trace bug.
    pub fn new(
        id: u64,
        arrival: Seconds,
        device: u32,
        lba: u64,
        sectors: u32,
        kind: RequestKind,
    ) -> Self {
        assert!(sectors > 0, "zero-length request {id}");
        Self {
            id,
            arrival,
            device,
            lba,
            sectors,
            kind,
        }
    }

    /// One past the last LBA touched. It saturates at `u64::MAX`, an
    /// end no device reaches, so a request that would run past the LBA
    /// space fails every capacity check instead of wrapping round.
    pub fn end_lba(&self) -> u64 {
        self.lba.saturating_add(u64::from(self.sectors))
    }

    /// Payload size in bytes.
    pub fn bytes(&self) -> u64 {
        self.sectors as u64 * 512
    }
}

/// A finished request with its timing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// The originating request.
    pub request: Request,
    /// When the device began serving it.
    pub start: Seconds,
    /// When the last byte was transferred.
    pub finish: Seconds,
}

impl Completion {
    /// End-to-end response time (queueing + service).
    pub fn response_time(&self) -> Seconds {
        self.finish - self.request.arrival
    }

    /// Pure service time (excludes queueing).
    pub fn service_time(&self) -> Seconds {
        self.finish - self.start
    }

    /// Time spent waiting in the queue.
    pub fn queue_time(&self) -> Seconds {
        self.start - self.request.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_decomposition() {
        let r = Request::new(1, Seconds::from_millis(10.0), 0, 0, 8, RequestKind::Write);
        let c = Completion {
            request: r,
            start: Seconds::from_millis(14.0),
            finish: Seconds::from_millis(20.0),
        };
        assert!((c.response_time().to_millis() - 10.0).abs() < 1e-12);
        assert!((c.queue_time().to_millis() - 4.0).abs() < 1e-12);
        assert!((c.service_time().to_millis() - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_rejected() {
        let _ = Request::new(1, Seconds::ZERO, 0, 0, 0, RequestKind::Read);
    }

    #[test]
    fn round_trips_through_serde() {
        let r = Request::new(3, Seconds::new(1.5), 2, 99, 4, RequestKind::Read);
        let json = serde_json::to_string(&r).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
