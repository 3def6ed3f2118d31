//! MSR-Cambridge block-trace format.
//!
//! The public MSR-Cambridge production traces (SNIA IOTTA) are CSV with
//! seven columns:
//!
//! ```text
//! timestamp,hostname,diskno,type,offset,size,latency
//! ```
//!
//! where `timestamp` and `latency` are Windows FILETIME values (100 ns
//! ticks), `type` is `Read` or `Write` (case-insensitive), and `offset`
//! / `size` are bytes. Supporting the format lets real production block
//! traces replay through the fleet and the twin exactly like synthetic
//! streams.
//!
//! Absolute FILETIME stamps (ticks since 1601) are rebased to the first
//! record so replays start at sim time zero; already-relative traces
//! (small tick counts, e.g. ones written by [`write_msr_trace`]) are
//! taken as-is. The recorded `latency` column is validated as numeric
//! but otherwise ignored — response times are what the simulator
//! produces, not what it consumes.

use crate::trace::{exactly, int, read_data_lines, trim};
use disksim::{Request, RequestKind};
use std::io::{self, BufRead, Write};
use units::Seconds;

/// Seconds per FILETIME tick.
const TICK_S: f64 = 1e-7;

/// Bytes per logical sector.
const SECTOR_BYTES: u64 = 512;

/// Tick counts at or above this are treated as absolute FILETIME stamps
/// (ticks since 1601) and rebased to the trace's first record. The
/// threshold sits around year 1633 — vastly above any relative trace
/// (1e15 ticks is ~3 years of sim time) and below any real capture date.
const ABSOLUTE_TICKS: u64 = 1_000_000_000_000_000_000 / 100;

/// Writes requests as MSR-Cambridge CSV rows with relative timestamps.
///
/// The `hostname` column is cosmetic in this simulator; every row gets
/// the same label. The `latency` column is written as `0` — it records
/// a measurement, not an input.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_msr_trace<W: Write>(mut writer: W, trace: &[Request], hostname: &str) -> io::Result<()> {
    for r in trace {
        let ticks = (r.arrival.get() / TICK_S).round() as u64;
        writeln!(
            writer,
            "{ticks},{hostname},{},{},{},{},0",
            r.device,
            if r.kind.is_read() { "Read" } else { "Write" },
            r.lba * SECTOR_BYTES,
            r.sectors as u64 * SECTOR_BYTES,
        )?;
    }
    Ok(())
}

/// Reads an MSR-Cambridge CSV trace. Blank lines and `#` comments are
/// skipped; request ids are assigned in file order; `diskno` becomes the
/// request's device. The input streams one line at a time, as in
/// [`crate::read_trace`].
///
/// # Errors
///
/// Returns `InvalidData` naming the 1-based line number of the first
/// malformed row (wrong column count, non-numeric fields, unknown
/// request type, zero-length requests) or non-UTF-8 line.
pub fn read_msr_trace<R: BufRead>(reader: R) -> io::Result<Vec<Request>> {
    let mut rows = MsrRows::default();
    read_data_lines(reader, |line, id| rows.parse(line, id))
}

/// The MSR-Cambridge row parser, carrying the rebase of absolute
/// FILETIME stamps from the first row to the rest.
#[derive(Debug, Default)]
pub(crate) struct MsrRows {
    base_ticks: Option<u64>,
}

impl MsrRows {
    /// Parses one data row (trimmed, neither blank nor a comment) into
    /// request `id`.
    pub(crate) fn parse(&mut self, line: &str, id: u64) -> Result<Request, &'static str> {
        // A comma is one byte in UTF-8, so the fields split as bytes.
        let columns = line.as_bytes().split(|&b| b == b',').map(trim);
        let [ticks, _hostname, device, kind, offset, size, latency] =
            exactly(columns).ok_or("expected 7 comma-separated columns")?;
        let ticks: u64 = int(ticks).ok_or("bad timestamp")?;
        // The hostname is free-form, kept only in the file.
        let device: u32 = int(device).ok_or("bad disk number")?;
        let kind = if kind.eq_ignore_ascii_case(b"read") {
            RequestKind::Read
        } else if kind.eq_ignore_ascii_case(b"write") {
            RequestKind::Write
        } else {
            return Err("request type must be Read or Write");
        };
        let offset: u64 = int(offset).ok_or("bad byte offset")?;
        let size: u64 = int(size).ok_or("bad byte size")?;
        let numeric = |f: &[u8]| std::str::from_utf8(f).is_ok_and(|f| f.parse::<f64>().is_ok());
        if int::<u64>(latency).is_none() && !numeric(latency) {
            return Err("bad latency");
        }
        if size == 0 {
            return Err("zero-length request");
        }
        let sectors = u32::try_from(size.div_ceil(SECTOR_BYTES))
            .map_err(|_| "request size exceeds u32 sectors")?;
        // Rebase absolute captures to their first record; the decision is
        // made once so a trace is interpreted consistently throughout.
        let base = *self
            .base_ticks
            .get_or_insert(if ticks >= ABSOLUTE_TICKS { ticks } else { 0 });
        let rel = ticks
            .checked_sub(base)
            .ok_or("timestamp earlier than the trace's first record")?;
        Ok(Request::new(
            id,
            Seconds::new(rel as f64 * TICK_S),
            device,
            offset / SECTOR_BYTES,
            sectors,
            kind,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_absolute_filetime_rows_rebased_to_first() {
        let text = "# MSR-Cambridge style\n\
                    128166372003061629,src1,0,Read,8192,4096,415\n\
                    128166372013061629,src1,1,write,512,512,210\n";
        let trace = read_msr_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].arrival, Seconds::ZERO);
        assert_eq!(trace[0].lba, 16);
        assert_eq!(trace[0].sectors, 8);
        assert!(trace[0].kind.is_read());
        assert_eq!(trace[1].device, 1);
        assert_eq!(trace[1].kind, RequestKind::Write);
        // One second between the two FILETIME stamps.
        assert!((trace[1].arrival.get() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn relative_timestamps_are_taken_as_is() {
        let text = "5000000,h,0,Read,0,512,0\n";
        let trace = read_msr_trace(text.as_bytes()).unwrap();
        assert!((trace[0].arrival.get() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sub_sector_sizes_round_up() {
        let text = "0,h,0,Write,512,100,0\n";
        let trace = read_msr_trace(text.as_bytes()).unwrap();
        assert_eq!(trace[0].sectors, 1);
        assert_eq!(trace[0].lba, 1);
    }

    #[test]
    fn malformed_rows_are_rejected_with_line_numbers() {
        for (bad, why) in [
            ("1,h,0,Read,0,512", "6 columns"),
            ("1,h,0,Read,0,512,0,9", "8 columns"),
            ("x,h,0,Read,0,512,0", "bad timestamp"),
            ("1,h,x,Read,0,512,0", "bad diskno"),
            ("1,h,0,Erase,0,512,0", "unknown type"),
            ("1,h,0,Read,x,512,0", "bad offset"),
            ("1,h,0,Read,0,x,0", "bad size"),
            ("1,h,0,Read,0,0,0", "zero size"),
            ("1,h,0,Read,0,512,x", "bad latency"),
        ] {
            let text = format!("# header\n\n1000,h,0,Read,0,512,0\n{bad}\n");
            let err = read_msr_trace(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}");
            assert!(
                err.to_string().contains("line 4"),
                "{why}: error should name line 4: {err}"
            );
        }
    }

    #[test]
    fn ids_follow_file_order() {
        let text = "100,h,0,Read,0,512,0\n200,h,0,Read,512,512,0\n";
        let trace = read_msr_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
    }

    mod round_trip_props {
        use super::*;
        use proptest::prelude::*;

        /// Rows whose arrivals sit on exact FILETIME ticks, as any trace
        /// read from MSR CSV does. Ids are assigned by file position.
        fn arb_row() -> impl Strategy<Value = (u64, u32, u64, u32, RequestKind)> {
            (
                0u64..10_000_000_000,
                0u32..64,
                0u64..(1u64 << 50),
                1u32..4_096,
                prop_oneof![Just(RequestKind::Read), Just(RequestKind::Write)],
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn write_then_read_is_identity(rows in prop::collection::vec(arb_row(), 0..48)) {
                let trace: Vec<Request> = rows
                    .iter()
                    .enumerate()
                    .map(|(i, &(ticks, device, lba, sectors, kind))| Request::new(
                        i as u64,
                        Seconds::new(ticks as f64 * TICK_S),
                        device,
                        lba,
                        sectors,
                        kind,
                    ))
                    .collect();
                let mut buf = Vec::new();
                write_msr_trace(&mut buf, &trace, "host").unwrap();
                let back = read_msr_trace(buf.as_slice()).unwrap();
                prop_assert_eq!(back, trace);
            }

            #[test]
            fn comment_and_blank_padding_never_changes_the_result(
                ticks in prop::collection::vec(0u64..1_000_000_000, 1..24),
                pad in prop::collection::vec(0usize..3, 1..24),
            ) {
                let trace: Vec<Request> = ticks
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| Request::new(
                        i as u64,
                        Seconds::new(t as f64 * TICK_S),
                        0,
                        i as u64 * 8,
                        8,
                        RequestKind::Read,
                    ))
                    .collect();
                let mut buf = Vec::new();
                for (i, r) in trace.iter().enumerate() {
                    write_msr_trace(&mut buf, std::slice::from_ref(r), "host").unwrap();
                    for _ in 0..pad[i % pad.len()] {
                        buf.extend_from_slice(if i % 2 == 0 { b"\n" } else { b"# pad\n" });
                    }
                }
                let back = read_msr_trace(buf.as_slice()).unwrap();
                prop_assert_eq!(back, trace);
            }
        }
    }
}
