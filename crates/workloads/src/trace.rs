//! Trace serialization: newline-delimited JSON, one request per line,
//! and the one streaming line loop every trace reader runs.
//!
//! The format keeps multi-million-request traces streamable and
//! diff-friendly, and lets the experiment binaries persist the exact
//! workloads they measured.

use disksim::Request;
use std::borrow::Cow;
use std::io::{self, BufRead, Write};
use std::str::FromStr;

/// Writes a trace as JSON lines.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(mut writer: W, trace: &[Request]) -> io::Result<()> {
    for request in trace {
        let line = serde_json::to_string(request).map_err(io::Error::other)?;
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    Ok(())
}

/// The trace format [`read_trace`] detected from the first data line,
/// holding what its line parser carries from row to row.
enum TraceFormat {
    /// Newline-delimited JSON written by [`write_trace`].
    Json,
    /// Five-column DiskSim default ASCII.
    Ascii,
    /// Seven-column MSR-Cambridge CSV.
    Msr(crate::msr::MsrRows),
}

impl TraceFormat {
    /// `{` starts JSON lines, a comma means MSR-Cambridge CSV, anything
    /// else is DiskSim default ASCII.
    fn detect(first: &str) -> Self {
        if first.starts_with('{') {
            Self::Json
        } else if first.contains(',') {
            Self::Msr(Default::default())
        } else {
            Self::Ascii
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Self::Json => "json-lines",
            Self::Ascii => "disksim-ascii",
            Self::Msr(_) => "msr-csv",
        }
    }

    fn parse(&mut self, line: &str, id: u64) -> Result<Request, Cow<'static, str>> {
        match self {
            Self::Json => json_line(line),
            Self::Ascii => Ok(crate::ascii::parse_line(line, id)?),
            Self::Msr(rows) => Ok(rows.parse(line, id)?),
        }
    }
}

/// Reads a trace in any of the supported formats, auto-detected from the
/// first data line: `{` starts JSON lines (written by [`write_trace`]),
/// a comma means MSR-Cambridge CSV, anything else is DiskSim default
/// ASCII. Blank lines and `#` comments are skipped uniformly in every
/// format.
///
/// The input streams through one reused line buffer: each line is
/// parsed where it lies and appended to the result, so memory holds one
/// line plus the requests, never a copy of the text.
///
/// # Errors
///
/// Propagates I/O errors. Reading stops at the first bad line in file
/// order, which fails with an `InvalidData` error naming its 1-based
/// line number and the detected format (no format when the bad line
/// comes before the first data line). A line that is not UTF-8 is a bad
/// line. In every format a zero-length request or a negative or
/// non-finite arrival is malformed.
pub fn read_trace<R: BufRead>(reader: R) -> io::Result<Vec<Request>> {
    let mut format: Option<TraceFormat> = None;
    let read = read_data_lines(reader, |line, id| {
        format
            .get_or_insert_with(|| TraceFormat::detect(line))
            .parse(line, id)
    });
    read.map_err(|e| match &format {
        Some(f) => io::Error::new(e.kind(), format!("auto-detected {} format: {e}", f.name())),
        None => e,
    })
}

/// One JSON line, with the checks every format's rows get.
fn json_line(line: &str) -> Result<Request, Cow<'static, str>> {
    let request: Request = serde_json::from_str(line).map_err(|e| e.to_string())?;
    if request.sectors == 0 {
        return Err("zero-length request".into());
    }
    if !request.arrival.is_finite() || request.arrival.get() < 0.0 {
        return Err("negative or non-finite arrival".into());
    }
    Ok(request)
}

/// The loop every trace reader runs: reads `reader` one line at a time
/// into one reused buffer, trims each line ([`str::trim`], so CRLF
/// endings and Unicode whitespace go), skips blank lines and `#`
/// comments, and appends what `parse` makes of each data line, given
/// its request's position among them as the id. Line numbers count
/// every line; the first line that is not UTF-8 or that `parse` refuses
/// ends the read with an `InvalidData` error naming it.
pub(crate) fn read_data_lines<R: BufRead, E: AsRef<str>>(
    mut reader: R,
    mut parse: impl FnMut(&str, u64) -> Result<Request, E>,
) -> io::Result<Vec<Request>> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    for lineno in 0.. {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let line = std::str::from_utf8(trim(&buf))
            .map_err(|_| bad_line(lineno, "stream did not contain valid UTF-8"))?;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let request = parse(line, out.len() as u64).map_err(|e| bad_line(lineno, e.as_ref()))?;
        out.push(request);
    }
    Ok(out)
}

/// Splits `fields` into exactly `N`, or `None` for any other count.
pub(crate) fn exactly<T: Copy + Default, const N: usize>(
    mut fields: impl Iterator<Item = T>,
) -> Option<[T; N]> {
    let mut out = [T::default(); N];
    for slot in &mut out {
        *slot = fields.next()?;
    }
    fields.next().is_none().then_some(out)
}

/// What [`str::trim`] leaves of `text`, found byte by byte: ASCII
/// whitespace is stripped directly, and only an end that is not ASCII
/// takes `str::trim`'s Unicode path. Text that is not UTF-8 keeps its
/// non-ASCII ends.
pub(crate) fn trim(text: &[u8]) -> &[u8] {
    if let (Some(a), Some(z)) = (text.first(), text.last()) {
        if a.is_ascii_graphic() && z.is_ascii_graphic() {
            return text;
        }
    }
    let space = |b: &u8| matches!(b, b'\t'..=b'\r' | b' ');
    let start = text.iter().position(|b| !space(b)).unwrap_or(text.len());
    let end = text
        .iter()
        .rposition(|b| !space(b))
        .map_or(start, |i| i + 1);
    let text = &text[start..end];
    match (text.first(), text.last()) {
        (Some(a), Some(z)) if !a.is_ascii() || !z.is_ascii() => {
            std::str::from_utf8(text).map_or(text, |s| s.trim().as_bytes())
        }
        _ => text,
    }
}

/// Parses an integer field exactly as `str::parse` does, reading plain
/// digit strings (what traces hold) directly.
pub(crate) fn int<T: FromStr + TryFrom<u64>>(field: &[u8]) -> Option<T> {
    // Nineteen digits cannot overflow a u64.
    if !field.is_empty() && field.len() <= 19 && field.iter().all(u8::is_ascii_digit) {
        let v = field.iter().fold(0, |v, &d| v * 10 + u64::from(d - b'0'));
        return T::try_from(v).ok();
    }
    std::str::from_utf8(field).ok()?.parse().ok()
}

/// The `InvalidData` error every trace reader raises for a malformed
/// line, naming the 0-based `lineno` by its 1-based line number.
pub(crate) fn bad_line(lineno: usize, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("trace line {}: {what}", lineno + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::openmail;

    #[test]
    fn round_trip_preserves_trace() {
        let trace = openmail().generate(250, 5).unwrap();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let trace = openmail().generate(3, 5).unwrap();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn interior_blank_lines_do_not_shift_parsing() {
        let trace = openmail().generate(4, 5).unwrap();
        let mut buf = Vec::new();
        for (i, r) in trace.iter().enumerate() {
            write_trace(&mut buf, std::slice::from_ref(r)).unwrap();
            // Blank padding between records, with stray whitespace.
            buf.extend_from_slice(if i % 2 == 0 { b"\n" } else { b"   \n" });
        }
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn comment_lines_are_skipped_in_every_format() {
        let trace = openmail().generate(3, 5).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"# generated by the lab\n");
        write_trace(&mut buf, &trace).unwrap();
        buf.extend_from_slice(b"# trailing note\n");
        assert_eq!(read_trace(buf.as_slice()).unwrap(), trace);

        let ascii = "# header\n1.0 0 10 8 1\n# middle\n2.0 0 20 8 0\n";
        assert_eq!(read_trace(ascii.as_bytes()).unwrap().len(), 2);

        let msr = "# header\n1000,h,0,Read,0,512,0\n# middle\n2000,h,0,Write,512,512,0\n";
        assert_eq!(read_trace(msr.as_bytes()).unwrap().len(), 2);
    }

    #[test]
    fn auto_detection_names_the_format_in_errors() {
        let ascii = "1.0 0 10 8 1\n1.0 0 10 0 1\n";
        let err = read_trace(ascii.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("disksim-ascii"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");

        let msr = "1000,h,0,Read,0,512,0\n2000,h,0,Erase,0,512,0\n";
        let err = read_trace(msr.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("msr-csv"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");

        let json = "{\"bad\": true}\n";
        let err = read_trace(json.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("json-lines"), "{err}");

        // The first bad line in file order is the one named, a line that
        // is not UTF-8 included; before the first data line no format
        // has been detected.
        let err = read_trace(&b"1.0 0 10 8 1\n\xff\n1.0 0 10 0 1\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("disksim-ascii") && msg.contains("line 2"),
            "{msg}"
        );
        let err = read_trace(&b"# \xff\n1.0 0 10 8 1\n"[..]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "trace line 1: stream did not contain valid UTF-8"
        );

        // JSON lines get the same request checks as the other formats.
        let valid = r#"{"id":2,"arrival":1.0,"device":0,"lba":100,"sectors":8,"kind":"Read"}"#;
        for (json, line, what) in [
            (
                format!(
                    "{}\n{valid}\n",
                    r#"{"id":1,"arrival":-3.0,"device":0,"lba":100,"sectors":0,"kind":"Read"}"#
                ),
                "line 1",
                "zero-length request",
            ),
            (
                format!(
                    "{valid}\n{}\n",
                    r#"{"id":1,"arrival":-3.0,"device":0,"lba":100,"sectors":8,"kind":"Read"}"#
                ),
                "line 2",
                "negative or non-finite arrival",
            ),
        ] {
            let err = read_trace(json.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains("json-lines") && msg.contains(line) && msg.contains(what),
                "{msg}"
            );
        }
    }

    #[test]
    fn garbage_is_an_error_naming_the_line() {
        let trace = openmail().generate(2, 5).unwrap();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf.extend_from_slice(b"\nnot json\n");
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Two records plus one blank line put the garbage on line 4.
        assert!(
            err.to_string().contains("line 4"),
            "error should name the offending line: {err}"
        );
    }

    #[test]
    fn an_end_past_the_lba_space_is_out_of_range_not_a_panic() {
        use disksim::{DiskSpec, SimError, StorageSystem, SystemConfig};
        // The first request's end lies past u64::MAX.
        let text = "1.0 0 18446744073709551612 8 1\n2.0 0 0 8 1\n";
        let trace = read_trace(text.as_bytes()).unwrap();
        let profile = crate::analyze(&trace).unwrap();
        assert_eq!(profile.requests, 2);
        assert_eq!(profile.mean_jump_sectors, u64::MAX as f64);
        let spec = DiskSpec::era_2001(units::Rpm::new(10_000.0));
        let mut system = StorageSystem::new(SystemConfig::single_disk(spec)).unwrap();
        let err = system.submit(trace[0]).unwrap_err();
        assert!(matches!(err, SimError::OutOfRange { .. }), "{err}");
        system.submit(trace[1]).unwrap();
        assert_eq!(system.drain().len(), 1);
    }

    mod round_trip_props {
        use super::*;
        use disksim::RequestKind;
        use proptest::prelude::*;
        use units::Seconds;

        fn arb_request() -> impl Strategy<Value = Request> {
            (
                any::<u64>(),
                0.0f64..1.0e6,
                0u32..64,
                any::<u64>(),
                1u32..4_096,
                prop_oneof![Just(RequestKind::Read), Just(RequestKind::Write)],
            )
                .prop_map(|(id, arrival, device, lba, sectors, kind)| {
                    Request::new(id, Seconds::new(arrival), device, lba, sectors, kind)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn write_then_read_is_identity(trace in prop::collection::vec(arb_request(), 0..64)) {
                let mut buf = Vec::new();
                write_trace(&mut buf, &trace).unwrap();
                let back = read_trace(buf.as_slice()).unwrap();
                prop_assert_eq!(back, trace);
            }

            #[test]
            fn blank_padding_never_changes_the_result(
                trace in prop::collection::vec(arb_request(), 1..32),
                pad in prop::collection::vec(0usize..3, 1..32),
            ) {
                let mut buf = Vec::new();
                for (i, r) in trace.iter().enumerate() {
                    write_trace(&mut buf, std::slice::from_ref(r)).unwrap();
                    for _ in 0..pad[i % pad.len()] {
                        buf.extend_from_slice(b"\n");
                    }
                }
                let back = read_trace(buf.as_slice()).unwrap();
                prop_assert_eq!(back, trace);
            }
        }
    }
}
