//! The streaming trace readers against the reader they replaced.
//!
//! `reference` is that reader, kept verbatim in behaviour: it collects
//! every line, detects the format, joins the lines and re-reads the
//! text with a per-format loop that splits each line into a `Vec`. On
//! any input, `read_trace` (and the per-format readers on their own
//! format) must succeed exactly when the reference does, with the same
//! requests and ids, and otherwise fail with `InvalidData`. The
//! generated inputs cover all three formats with valid rows, CRLF
//! endings, blank and `#` lines, ASCII and Unicode whitespace around
//! lines and fields, a last line without a newline, mixed-case MSR
//! types, `+`-signed numbers, wrong column counts, non-numeric fields,
//! zero sizes, absolute FILETIME stamps that go backwards and invalid
//! UTF-8. A second property feeds arbitrary bytes.
//!
//! The debug run draws 4,000 cases of each; the `#[ignore]`d variants
//! draw 100,000 each and run in release:
//! `cargo test --release -q -p workloads --test reader_oracle -- --ignored`.

use disksim::{Request, RequestKind};
use proptest::prelude::*;
use std::io;
use units::Seconds;

mod reference {
    use disksim::{Request, RequestKind};
    use std::io::{self, BufRead};
    use units::Seconds;

    const TICK_S: f64 = 1e-7;
    const SECTOR_BYTES: u64 = 512;
    const ABSOLUTE_TICKS: u64 = 1_000_000_000_000_000_000 / 100;

    fn bad_line(lineno: usize, what: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace line {}: {what}", lineno + 1),
        )
    }

    pub fn read_trace<R: BufRead>(reader: R) -> io::Result<Vec<Request>> {
        let lines: Vec<String> = reader.lines().collect::<io::Result<_>>()?;
        let Some(first) = lines
            .iter()
            .map(|l| l.trim())
            .find(|l| !l.is_empty() && !l.starts_with('#'))
        else {
            return Ok(Vec::new());
        };
        let text = lines.join("\n");
        if first.starts_with('{') {
            read_json_lines(&lines)
        } else if first.contains(',') {
            read_msr_trace(text.as_bytes())
        } else {
            read_ascii_trace(text.as_bytes())
        }
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

    pub fn read_ascii_trace<R: BufRead>(reader: R) -> io::Result<Vec<Request>> {
        let mut out = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split_whitespace().collect();
            if fields.len() != 5 {
                return Err(bad_line(lineno, "expected 5 columns"));
            }
            let arrival_ms: f64 = fields[0]
                .parse()
                .map_err(|_| bad_line(lineno, "bad arrival time"))?;
            let device: u32 = fields[1]
                .parse()
                .map_err(|_| bad_line(lineno, "bad device number"))?;
            let lba: u64 = fields[2]
                .parse()
                .map_err(|_| bad_line(lineno, "bad block number"))?;
            let sectors: u32 = fields[3]
                .parse()
                .map_err(|_| bad_line(lineno, "bad request size"))?;
            let flags: u32 = fields[4]
                .parse()
                .map_err(|_| bad_line(lineno, "bad flags"))?;
            if sectors == 0 {
                return Err(bad_line(lineno, "zero-length request"));
            }
            if !arrival_ms.is_finite() || arrival_ms < 0.0 {
                return Err(bad_line(lineno, "negative or non-finite arrival"));
            }
            let kind = if flags & 1 != 0 {
                RequestKind::Read
            } else {
                RequestKind::Write
            };
            out.push(Request::new(
                out.len() as u64,
                Seconds::from_millis(arrival_ms),
                device,
                lba,
                sectors,
                kind,
            ));
        }
        Ok(out)
    }

    pub fn read_msr_trace<R: BufRead>(reader: R) -> io::Result<Vec<Request>> {
        let mut out = Vec::new();
        let mut base_ticks: Option<u64> = None;
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
            if fields.len() != 7 {
                return Err(bad_line(lineno, "expected 7 comma-separated columns"));
            }
            let ticks: u64 = fields[0]
                .parse()
                .map_err(|_| bad_line(lineno, "bad timestamp"))?;
            let device: u32 = fields[2]
                .parse()
                .map_err(|_| bad_line(lineno, "bad disk number"))?;
            let kind = match fields[3].to_ascii_lowercase().as_str() {
                "read" => RequestKind::Read,
                "write" => RequestKind::Write,
                _ => return Err(bad_line(lineno, "request type must be Read or Write")),
            };
            let offset: u64 = fields[4]
                .parse()
                .map_err(|_| bad_line(lineno, "bad byte offset"))?;
            let size: u64 = fields[5]
                .parse()
                .map_err(|_| bad_line(lineno, "bad byte size"))?;
            let _latency: f64 = fields[6]
                .parse()
                .map_err(|_| bad_line(lineno, "bad latency"))?;
            if size == 0 {
                return Err(bad_line(lineno, "zero-length request"));
            }
            let sectors = u32::try_from(size.div_ceil(SECTOR_BYTES))
                .map_err(|_| bad_line(lineno, "request size exceeds u32 sectors"))?;
            let base = *base_ticks.get_or_insert(if ticks >= ABSOLUTE_TICKS { ticks } else { 0 });
            let rel = ticks.checked_sub(base).ok_or_else(|| {
                bad_line(lineno, "timestamp earlier than the trace's first record")
            })?;
            out.push(Request::new(
                out.len() as u64,
                Seconds::new(rel as f64 * TICK_S),
                device,
                offset / SECTOR_BYTES,
                sectors,
                kind,
            ));
        }
        Ok(out)
    }
}

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[below(rng, items.len() as u64) as usize]
}

/// Padding around a line or an MSR field: nothing most often, else ASCII
/// or Unicode whitespace (`str::trim` strips all of them).
const PADS: [&str; 11] = [
    "", "", "", " ", "\t", " \t ", "\u{b}", "\u{c}", "\u{a0}", "\u{3000}", "\u{85}",
];
/// Separators between ASCII fields (`split_whitespace` splits on all).
const SEPS: [&str; 8] = [" ", " ", " ", "\t", "  \t", "\u{b}", "\u{a0}", "\u{3000}"];

/// An integer as trace text, now and then with the `+` sign
/// `str::parse` accepts, or with leading zeros past nineteen digits.
fn int(v: u64, rng: &mut TestRng) -> String {
    match below(rng, 12) {
        0 => format!("+{v}"),
        1 => format!("{v:0>21}"),
        _ => v.to_string(),
    }
}

/// A large value now and then, to reach the integer fields' limits.
fn magnitude(rng: &mut TestRng, typical: u64) -> u64 {
    match below(rng, 64) {
        0 => u64::MAX - below(rng, 16),
        1 => u64::from(u32::MAX) + below(rng, 3) - 1,
        _ => below(rng, typical),
    }
}

fn padded(rng: &mut TestRng, field: &str) -> String {
    format!("{}{field}{}", pick(rng, &PADS), pick(rng, &PADS))
}

/// The fields of a valid row in `format`, before they are joined.
/// `clock` is the running stamp of an absolute-FILETIME MSR trace.
fn row_fields(rng: &mut TestRng, format: Format, clock: &mut Option<u64>) -> Vec<String> {
    match format {
        Format::Msr => {
            let ticks = match clock {
                // Steps of up to a second, now and then one backwards.
                Some(t) if below(rng, 32) == 0 => t.saturating_sub(below(rng, 100_000_000)),
                Some(t) => {
                    *t += below(rng, 10_000_000);
                    *t
                }
                None => below(rng, 10_000_000_000),
            };
            let kind = pick(rng, &["Read", "Write", "read", "WRITE", "rEaD", "wRiTe"]);
            vec![
                int(ticks, rng),
                pick(rng, &["h", "src1", "perf bench", ""]).to_string(),
                int(below(rng, 64), rng),
                kind.to_string(),
                int(magnitude(rng, 1 << 40), rng),
                int(magnitude(rng, 1 << 20).max(1), rng),
                pick(rng, &["0", "415", "1.5", "-3", "1e3", "+7", "inf", "NaN"]).to_string(),
            ]
        }
        Format::Ascii => {
            let ms = rng.unit_f64() * 1e6;
            let arrival = match below(rng, 6) {
                0 => "+1.5".to_string(),
                1 => "1e2".to_string(),
                2 => ms.to_string(),
                _ => format!("{ms:.6}"),
            };
            vec![
                arrival,
                int(below(rng, 64), rng),
                int(magnitude(rng, 1 << 40), rng),
                int(1 + below(rng, 4_096), rng),
                int(below(rng, 4), rng),
            ]
        }
        Format::Json => {
            let kind = if below(rng, 2) == 0 {
                RequestKind::Read
            } else {
                RequestKind::Write
            };
            let request = Request::new(
                rng.next_u64(),
                Seconds::new(rng.unit_f64() * 1e4),
                below(rng, 64) as u32,
                magnitude(rng, 1 << 40),
                1 + below(rng, 4_096) as u32,
                kind,
            );
            vec![serde_json::to_string(&request).unwrap()]
        }
    }
}

fn join_row(rng: &mut TestRng, format: Format, fields: &[String]) -> String {
    match format {
        Format::Msr => {
            let padded: Vec<String> = fields.iter().map(|f| padded(rng, f)).collect();
            padded.join(",")
        }
        Format::Ascii => {
            let mut line = fields[0].clone();
            for f in &fields[1..] {
                line.push_str(pick(rng, &SEPS));
                line.push_str(f);
            }
            line
        }
        Format::Json => fields[0].clone(),
    }
}

/// A row that most likely is refused: a column dropped or added, a
/// field replaced with non-numeric text, a zero size, or (JSON) a
/// broken or out-of-range object.
fn bad_row(rng: &mut TestRng, format: Format, clock: &mut Option<u64>) -> String {
    let mut fields = row_fields(rng, format, clock);
    if format == Format::Json {
        return pick(
            rng,
            &[
                r#"{"bad": true}"#,
                r#"{"id":1,"arrival":1.0,"device":0,"lba":8,"sectors":0,"kind":"Read"}"#,
                r#"{"id":1,"arrival":-1.0,"device":0,"lba":8,"sectors":8,"kind":"Read"}"#,
                r#"{"id":1,"arrival":1.0,"device":0,"lba":8,"sectors":8,"kind":"Erase"}"#,
                "{",
                "1.0 0 10 8 1",
            ],
        )
        .to_string();
    }
    match below(rng, 4) {
        0 => {
            fields.pop();
        }
        1 => fields.push("9".into()),
        2 => {
            let at = below(rng, fields.len() as u64) as usize;
            // Past `u64::MAX` too: a digit run `str::parse` refuses.
            let junk = [
                "x",
                "-1",
                "1.5",
                "",
                "0x10",
                "٣",
                "Erase",
                "1e3",
                "18446744073709551616",
                "99999999999999999999",
            ];
            fields[at] = pick(rng, &junk).to_string();
        }
        _ => {
            let size = if format == Format::Msr { 5 } else { 3 };
            fields[size] = "0".into();
        }
    }
    join_row(rng, format, &fields)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Json,
    Ascii,
    Msr,
}

/// A generated trace text in one format, one line in three of cases
/// made bad, and the format.
fn trace_text(rng: &mut TestRng) -> (Vec<u8>, Format) {
    let format = pick(rng, &[Format::Json, Format::Ascii, Format::Msr]);
    let mut clock =
        (format == Format::Msr && below(rng, 2) == 0).then_some(128_166_372_003_061_629);
    let n = below(rng, 24) as usize;
    let bad = (below(rng, 3) == 0).then(|| below(rng, n.max(1) as u64) as usize);
    let mut text = Vec::new();
    for i in 0..n {
        let line = match below(rng, 10) {
            0 => pick(rng, &["", " ", "\t", "\u{a0}", "\u{3000}", "\r"]).to_string(),
            1 => pick(
                rng,
                &[
                    "# comment",
                    "#",
                    "  # indented",
                    "#,comma",
                    "# 1 2 3 4 5",
                    "#{",
                ],
            )
            .to_string(),
            _ if Some(i) == bad => bad_row(rng, format, &mut clock),
            _ => {
                let fields = row_fields(rng, format, &mut clock);
                join_row(rng, format, &fields)
            }
        };
        let mut line = padded(rng, &line).into_bytes();
        if Some(i) == bad && below(rng, 4) == 0 {
            // Invalid UTF-8: a stray continuation byte, a truncated
            // sequence or an encoded surrogate.
            let at = below(rng, line.len() as u64 + 1) as usize;
            let junk: &[u8] = pick(rng, &[&[0x80][..], &[0xC3], &[0xFF], &[0xED, 0xA0, 0x80]]);
            line.splice(at..at, junk.iter().copied());
        }
        text.extend_from_slice(&line);
        if i + 1 < n || below(rng, 3) != 0 {
            text.extend_from_slice(pick(rng, &[&b"\n"[..], b"\n", b"\r\n"]));
        }
    }
    (text, format)
}

/// Bytes with no structure, or trace-shaped characters at random.
fn arbitrary_bytes(rng: &mut TestRng) -> Vec<u8> {
    const ALPHABET: &[u8] = b"0123456789,,, \t\n\n\r{}[]\":#-+.eERWrwai\xc2\xa0\xe3\x80\x80\xff";
    let n = below(rng, 160) as usize;
    let shaped = below(rng, 2) == 0;
    (0..n)
        .map(|_| {
            if shaped {
                pick(rng, ALPHABET)
            } else {
                rng.next_u64() as u8
            }
        })
        .collect()
}

/// The new reader agrees with the reference: `Ok` with equal requests,
/// or both refuse and the new one says `InvalidData`.
fn agrees(new: io::Result<Vec<Request>>, old: io::Result<Vec<Request>>) -> Result<(), String> {
    match (new, old) {
        (Ok(new), Ok(old)) if new == old => Ok(()),
        (Err(new), Err(_)) if new.kind() == io::ErrorKind::InvalidData => Ok(()),
        (new, old) => Err(format!("new {new:?}, reference {old:?}")),
    }
}

fn check_generated(rng: &mut TestRng) -> Result<(), TestCaseError> {
    let (text, format) = trace_text(rng);
    let shown = String::from_utf8_lossy(&text).into_owned();
    let fail = |e| TestCaseError::Fail(format!("{e} on {shown:?}"));
    agrees(
        workloads::read_trace(text.as_slice()),
        reference::read_trace(text.as_slice()),
    )
    .map_err(fail)?;
    match format {
        Format::Ascii => agrees(
            workloads::read_ascii_trace(text.as_slice()),
            reference::read_ascii_trace(text.as_slice()),
        ),
        Format::Msr => agrees(
            workloads::read_msr_trace(text.as_slice()),
            reference::read_msr_trace(text.as_slice()),
        ),
        Format::Json => Ok(()),
    }
    .map_err(fail)
}

fn check_arbitrary(rng: &mut TestRng) -> Result<(), TestCaseError> {
    let bytes = arbitrary_bytes(rng);
    let fail = |e| TestCaseError::Fail(format!("{e} on {bytes:?}"));
    for read in [
        workloads::read_trace::<&[u8]>,
        workloads::read_ascii_trace::<&[u8]>,
        workloads::read_msr_trace::<&[u8]>,
    ] {
        if let Err(e) = read(bytes.as_slice()) {
            if e.kind() != io::ErrorKind::InvalidData {
                return Err(fail(format!("{e:?}")));
            }
        }
    }
    agrees(
        workloads::read_trace(bytes.as_slice()),
        reference::read_trace(bytes.as_slice()),
    )
    .map_err(fail)
}

#[test]
fn generated_traces_read_as_the_reference_reads_them() {
    proptest::run_cases(
        "generated",
        &ProptestConfig::with_cases(4_000),
        check_generated,
    );
}

#[test]
fn arbitrary_bytes_never_panic() {
    proptest::run_cases(
        "arbitrary",
        &ProptestConfig::with_cases(4_000),
        check_arbitrary,
    );
}

#[test]
#[ignore = "100,000 cases; run in release"]
fn generated_traces_read_as_the_reference_reads_them_100k() {
    let cases = ProptestConfig::with_cases(100_000);
    proptest::run_cases("generated 100k", &cases, check_generated);
}

#[test]
#[ignore = "100,000 cases; run in release"]
fn arbitrary_bytes_never_panic_100k() {
    let cases = ProptestConfig::with_cases(100_000);
    proptest::run_cases("arbitrary 100k", &cases, check_arbitrary);
}
