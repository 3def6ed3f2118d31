//! DiskSim-compatible ASCII trace format.
//!
//! The original DiskSim environment (which the paper drives its §5.1
//! experiments with) consumes a five-column ASCII default format:
//!
//! ```text
//! <arrival-time-ms> <device> <block-number> <request-size-blocks> <flags>
//! ```
//!
//! with bit 0 of `flags` set for reads. Supporting it means traces can
//! travel between this simulator and DiskSim-era tooling.

use crate::trace::{exactly, int, read_data_lines};
use disksim::{Request, RequestKind};
use std::io::{self, BufRead, Write};
use units::Seconds;

/// Flag bit marking a read in the DiskSim default format.
const READ_FLAG: u32 = 0x1;

/// Writes requests in the DiskSim default ASCII format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_ascii_trace<W: Write>(mut writer: W, trace: &[Request]) -> io::Result<()> {
    for r in trace {
        let flags = if r.kind.is_read() { READ_FLAG } else { 0 };
        writeln!(
            writer,
            "{:.6} {} {} {} {}",
            r.arrival.to_millis(),
            r.device,
            r.lba,
            r.sectors,
            flags
        )?;
    }
    Ok(())
}

/// Reads a DiskSim default ASCII trace. Blank lines and `#` comments are
/// skipped; request ids are assigned in file order. The input streams
/// one line at a time, as in [`crate::read_trace`].
///
/// # Errors
///
/// Returns `InvalidData` naming the 1-based line number of the first
/// malformed line (wrong column count, non-numeric fields, zero-length
/// requests) or non-UTF-8 line.
pub fn read_ascii_trace<R: BufRead>(reader: R) -> io::Result<Vec<Request>> {
    read_data_lines(reader, parse_line)
}

/// Parses one data line (trimmed, neither blank nor a comment) into
/// request `id`.
pub(crate) fn parse_line(line: &str, id: u64) -> Result<Request, &'static str> {
    let [arrival_ms, device, lba, sectors, flags] =
        exactly(line.split_whitespace()).ok_or("expected 5 columns")?;
    let arrival_ms: f64 = arrival_ms.parse().map_err(|_| "bad arrival time")?;
    let device: u32 = int(device.as_bytes()).ok_or("bad device number")?;
    let lba: u64 = int(lba.as_bytes()).ok_or("bad block number")?;
    let sectors: u32 = int(sectors.as_bytes()).ok_or("bad request size")?;
    let flags: u32 = int(flags.as_bytes()).ok_or("bad flags")?;
    if sectors == 0 {
        return Err("zero-length request");
    }
    if !arrival_ms.is_finite() || arrival_ms < 0.0 {
        return Err("negative or non-finite arrival");
    }
    let kind = if flags & READ_FLAG != 0 {
        RequestKind::Read
    } else {
        RequestKind::Write
    };
    Ok(Request::new(
        id,
        Seconds::from_millis(arrival_ms),
        device,
        lba,
        sectors,
        kind,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::search_engine;

    #[test]
    fn round_trip_preserves_semantics() {
        let trace = search_engine().generate(300, 9).unwrap();
        let mut buf = Vec::new();
        write_ascii_trace(&mut buf, &trace).unwrap();
        let back = read_ascii_trace(buf.as_slice()).unwrap();
        assert_eq!(trace.len(), back.len());
        for (a, b) in trace.iter().zip(&back) {
            assert_eq!(a.device, b.device);
            assert_eq!(a.lba, b.lba);
            assert_eq!(a.sectors, b.sectors);
            assert_eq!(a.kind, b.kind);
            // Millisecond text retains microsecond-level fidelity.
            assert!((a.arrival.to_millis() - b.arrival.to_millis()).abs() < 1e-5);
        }
    }

    #[test]
    fn parses_hand_written_lines_with_comments() {
        let text = "# a DiskSim-style trace\n\
                    0.000000 0 1024 8 1\n\
                    \n\
                    5.500000 1 2048 16 0\n";
        let trace = read_ascii_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        assert!(trace[0].kind.is_read());
        assert_eq!(trace[1].kind, RequestKind::Write);
        assert_eq!(trace[1].device, 1);
        assert!((trace[1].arrival.to_millis() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn malformed_lines_are_rejected_with_location() {
        for bad in [
            "1.0 0 10 8",          // 4 columns
            "x 0 10 8 1",          // bad time
            "1.0 0 10 0 1",        // zero length
            "-1.0 0 10 8 1",       // negative time
            "1.0 0 10 8 1 extra",  // 6 columns
        ] {
            let err = read_ascii_trace(bad.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}");
            assert!(err.to_string().contains("line 1"), "{bad}: {err}");
        }
    }

    #[test]
    fn ids_are_assigned_in_file_order() {
        let text = "1.0 0 10 8 1\n2.0 0 20 8 1\n3.0 0 30 8 1\n";
        let trace = read_ascii_trace(text.as_bytes()).unwrap();
        let ids: Vec<u64> = trace.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
