//! Trace serialization: newline-delimited JSON, one request per line.
//!
//! The format keeps multi-million-request traces streamable and
//! diff-friendly, and lets the experiment binaries persist the exact
//! workloads they measured.

use disksim::Request;
use std::io::{self, BufRead, Write};

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

/// The trace format [`read_trace`] detected from the first data line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    /// Newline-delimited JSON written by [`write_trace`].
    Json,
    /// Five-column DiskSim default ASCII.
    Ascii,
    /// Seven-column MSR-Cambridge CSV.
    Msr,
}

impl TraceFormat {
    fn name(self) -> &'static str {
        match self {
            Self::Json => "json-lines",
            Self::Ascii => "disksim-ascii",
            Self::Msr => "msr-csv",
        }
    }
}

/// Reads a trace in any of the supported formats, auto-detected from the
/// first data line: `{` starts JSON lines (written by [`write_trace`]),
/// a comma means MSR-Cambridge CSV, anything else is DiskSim default
/// ASCII. Blank lines and `#` comments are skipped uniformly in every
/// format.
///
/// # Errors
///
/// Propagates I/O errors; a malformed line fails with an `InvalidData`
/// error naming its 1-based line number and the detected format. In
/// every format a zero-length request or a negative or non-finite
/// arrival is malformed.
pub fn read_trace<R: BufRead>(reader: R) -> io::Result<Vec<Request>> {
    let lines: Vec<String> = reader.lines().collect::<io::Result<_>>()?;
    let Some(first) = lines
        .iter()
        .map(|l| l.trim())
        .find(|l| !l.is_empty() && !l.starts_with('#'))
    else {
        return Ok(Vec::new());
    };
    let format = if first.starts_with('{') {
        TraceFormat::Json
    } else if first.contains(',') {
        TraceFormat::Msr
    } else {
        TraceFormat::Ascii
    };
    let text = lines.join("\n");
    let result = match format {
        TraceFormat::Json => read_json_lines(&lines),
        TraceFormat::Ascii => crate::ascii::read_ascii_trace(text.as_bytes()),
        TraceFormat::Msr => crate::msr::read_msr_trace(text.as_bytes()),
    };
    result.map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("auto-detected {} format: {e}", format.name()),
        )
    })
}

fn read_json_lines(lines: &[String]) -> io::Result<Vec<Request>> {
    let mut out = Vec::new();
    for (index, line) in lines.iter().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let request: Request =
            serde_json::from_str(trimmed).map_err(|e| bad_line(index, &e.to_string()))?;
        if request.sectors == 0 {
            return Err(bad_line(index, "zero-length request"));
        }
        if !request.arrival.is_finite() || request.arrival.get() < 0.0 {
            return Err(bad_line(index, "negative or non-finite arrival"));
        }
        out.push(request);
    }
    Ok(out)
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
