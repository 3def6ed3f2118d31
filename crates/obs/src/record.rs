//! Recorders and the [`Sink`] every instrumented component owns.
//!
//! The hot-path contract: an emission site calls
//! [`Sink::emit`] with a closure that *builds* the event. A null sink
//! returns after one discriminant branch without running the closure,
//! so disabled instrumentation costs neither allocation nor field
//! marshalling — `lab bench obs` bounds the gap between two interleaved
//! null-sink runs of one kernel below 4% (`BENCH_obs.json` reads 1.02%).
//!
//! Components that run inside the fleet's parallel phase use
//! [`Sink::buffer`]: events accumulate locally (tagged with the
//! component's [`Sink::scope`] drive index) and the fleet drains them in
//! enclosure order at the serial epoch boundary, which is what keeps a
//! trace byte-identical at any shard count.

use crate::event::{Event, TimedEvent};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use units::Seconds;

/// A crash-safe file writer: bytes land in a `.tmp` sibling, and
/// [`AtomicFile::commit`] fsyncs them and renames the file into place.
/// A reader therefore sees either the previous complete file or the new
/// complete file, never a torn write — the contract checkpoint and
/// trace artifacts need. Dropping without committing discards the
/// temporary.
pub struct AtomicFile {
    out: Option<BufWriter<File>>,
    tmp: PathBuf,
    path: PathBuf,
}

impl AtomicFile {
    /// Starts writing `path` through its `.tmp` sibling (truncating any
    /// stale temporary from a previous crash).
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let out = BufWriter::new(File::create(&tmp)?);
        Ok(Self {
            out: Some(out),
            tmp,
            path,
        })
    }

    /// The final path the file will land at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes, fsyncs, and renames the temporary into place. Also
    /// best-effort fsyncs the parent directory so the rename itself is
    /// durable.
    ///
    /// # Errors
    ///
    /// Propagates flush, sync, and rename failures; on error the
    /// temporary is removed and the destination is untouched.
    pub fn commit(mut self) -> io::Result<()> {
        let out = self.out.take().expect("commit consumes the writer");
        let result = (|| {
            let file = out.into_inner().map_err(|e| e.into_error())?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&self.tmp, &self.path)
        })();
        match result {
            Ok(()) => {
                if let Some(dir) = self.path.parent() {
                    if let Ok(d) = File::open(dir) {
                        // Directory fsync is not supported everywhere;
                        // the rename is already atomic without it.
                        let _ = d.sync_all();
                    }
                }
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&self.tmp);
                Err(e)
            }
        }
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.as_mut().expect("writer present until commit").write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.as_mut().expect("writer present until commit").flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.out.take().is_some() {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Consumes a stream of timed events at the collection boundary.
pub trait Recorder {
    /// Accepts one event.
    fn record(&mut self, event: &TimedEvent);

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Bytes an [`NdjsonRecorder`] batches before handing them to its
/// writer.
const BATCH_BYTES: usize = 64 * 1024;

/// Room left in a batch for the next line: a batch is written once less
/// than this is free, so lines up to this long never grow the buffer.
const LINE_ROOM: usize = 1024;

/// Streams events as newline-delimited JSON, one compact object per
/// line — the `lab trace` file format.
///
/// Consecutive events render straight into one reused batch buffer (no
/// value tree, no per-event `String`), sized once at 64 KiB, and the
/// writer receives whole batches: when a batch fills, at
/// [`Recorder::flush`] and at [`NdjsonRecorder::commit`] or
/// [`NdjsonRecorder::into_inner`], or when the recorder is dropped, as
/// a `BufWriter` flushes on drop (an error there is lost). Recording
/// therefore allocates nothing, and the writer sees one call per batch
/// rather than one per line. The first I/O error stops recording:
/// nothing is written after it, and `commit` and `into_inner` return
/// it.
pub struct NdjsonRecorder<W: Write> {
    /// The writer; taken out only by `into_inner`.
    out: Option<W>,
    batch: String,
    lines: u64,
    error: Option<io::Error>,
}

impl NdjsonRecorder<AtomicFile> {
    /// Creates an NDJSON trace file written crash-safely: lines land in
    /// a `.tmp` sibling and [`NdjsonRecorder::commit`] fsyncs and
    /// renames the finished trace into place.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create_atomic(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(AtomicFile::create(path)?))
    }

    /// Finishes the trace: writes the last batch, surfaces any
    /// recording error, then fsyncs and atomically renames the file
    /// into place. Returns the number of lines written.
    ///
    /// # Errors
    ///
    /// Propagates the first recording error or the commit failure.
    pub fn commit(self) -> io::Result<u64> {
        let lines = self.lines;
        self.into_inner()?.commit()?;
        Ok(lines)
    }
}

impl<W: Write> NdjsonRecorder<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> Self {
        Self {
            out: Some(out),
            batch: String::with_capacity(BATCH_BYTES),
            lines: 0,
            error: None,
        }
    }

    /// Lines accepted so far. A line reaches the writer with its batch,
    /// so after a successful [`Recorder::flush`] or `commit` every
    /// accepted line has been written; after an I/O error no further
    /// line is accepted, and the lines of the failed batch are lost.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The first I/O error met so far, if any. Recording itself is
    /// infallible: a failed write or flush stops it and leaves its error
    /// here, and `commit` and `into_inner` return it.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Writes the last batch and unwraps the inner writer (flushing it
    /// is the caller's business).
    ///
    /// # Errors
    ///
    /// The first I/O error: one met while recording, or writing the
    /// last batch.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.write_batch();
        let out = self.out.take().expect("the writer stays until into_inner");
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Hands the batch to the writer (unless an earlier write failed)
    /// and empties it, keeping its capacity.
    fn write_batch(&mut self) {
        if let (None, Some(out)) = (&self.error, &mut self.out) {
            if !self.batch.is_empty() {
                if let Err(e) = out.write_all(self.batch.as_bytes()) {
                    self.error = Some(e);
                }
            }
        }
        self.batch.clear();
    }
}

impl<W: Write> Drop for NdjsonRecorder<W> {
    fn drop(&mut self) {
        self.write_batch();
    }
}

impl<W: Write> Recorder for NdjsonRecorder<W> {
    fn record(&mut self, event: &TimedEvent) {
        if self.error.is_some() {
            return;
        }
        serde::Serialize::write_json(event, &mut self.batch);
        self.batch.push('\n');
        self.lines += 1;
        if self.batch.len() > BATCH_BYTES - LINE_ROOM {
            self.write_batch();
        }
    }

    fn flush(&mut self) {
        self.write_batch();
        if let (None, Some(out)) = (&self.error, &mut self.out) {
            if let Err(e) = out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// What a [`Sink`] does with emitted events.
enum SinkKind {
    /// Drop everything; the closure is never run.
    Null,
    /// Accumulate locally for a deterministic drain (fleet shards).
    Buffer(Vec<TimedEvent>),
    /// Stream into a recorder.
    Recorder(Box<dyn Recorder + Send>),
}

/// The per-component emission point instrumented code owns.
///
/// `scope` identifies the drive within a multi-drive trace: the fleet
/// gives each enclosure's sink its bay index, and emission sites use
/// [`Sink::scope`] wherever an event carries a `drive` field.
pub struct Sink {
    scope: usize,
    kind: SinkKind,
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            SinkKind::Null => "null".to_string(),
            SinkKind::Buffer(events) => format!("buffer[{}]", events.len()),
            SinkKind::Recorder(_) => "recorder".to_string(),
        };
        write!(f, "Sink({kind}, scope {})", self.scope)
    }
}

impl Default for Sink {
    fn default() -> Self {
        Sink::null()
    }
}

impl Sink {
    /// The no-op sink: one branch per emission site, nothing built.
    pub fn null() -> Self {
        Sink {
            scope: 0,
            kind: SinkKind::Null,
        }
    }

    /// A sink that accumulates events for a later ordered drain.
    pub fn buffer() -> Self {
        Sink {
            scope: 0,
            kind: SinkKind::Buffer(Vec::new()),
        }
    }

    /// A sink streaming into a recorder.
    pub fn recorder(recorder: impl Recorder + Send + 'static) -> Self {
        Sink {
            scope: 0,
            kind: SinkKind::Recorder(Box::new(recorder)),
        }
    }

    /// Tags the sink with a drive index for multi-drive traces.
    pub fn with_scope(mut self, scope: usize) -> Self {
        self.scope = scope;
        self
    }

    /// The drive index events from this sink should carry.
    pub fn scope(&self) -> usize {
        self.scope
    }

    /// Whether emissions go anywhere. Callers with pre-emission work of
    /// their own (snapshot assembly, buffer drains) gate on this.
    pub fn is_enabled(&self) -> bool {
        !matches!(self.kind, SinkKind::Null)
    }

    /// Emits one event at simulated time `t`. The closure runs only
    /// when the sink is enabled, so a null sink never pays for event
    /// construction.
    #[inline]
    pub fn emit(&mut self, t: Seconds, build: impl FnOnce() -> Event) {
        match &mut self.kind {
            SinkKind::Null => {}
            SinkKind::Buffer(events) => events.push(TimedEvent {
                t: t.get(),
                event: build(),
            }),
            SinkKind::Recorder(r) => r.record(&TimedEvent {
                t: t.get(),
                event: build(),
            }),
        }
    }

    /// Emits a progress line: printed through the global [`crate::logger`]
    /// *and* captured in the trace as an [`Event::Log`], so a trace
    /// records the narration the user saw.
    pub fn log(&mut self, t: Seconds, level: crate::logger::Level, message: &str) {
        crate::logger::line(level, message);
        let level = match level {
            crate::logger::Level::Verbose => "verbose",
            _ => "info",
        };
        self.emit(t, || Event::Log {
            level,
            message: message.to_string(),
        });
    }

    /// Moves the buffered events (buffer sinks; none otherwise) to the
    /// end of `out`, keeping this sink's buffer capacity — merge loops
    /// that drain many sinks per epoch reuse one batch buffer and
    /// allocate nothing in steady state.
    pub fn drain_into(&mut self, out: &mut Vec<TimedEvent>) {
        if let SinkKind::Buffer(events) = &mut self.kind {
            out.append(events);
        }
    }

    /// Feeds one already-timed event through by reference: a recorder
    /// renders it in place and a buffer keeps a copy, so a caller that
    /// owns reusable event buffers (the fleet's per-bay runs) can
    /// stream them without giving them up.
    pub fn record(&mut self, event: &TimedEvent) {
        match &mut self.kind {
            SinkKind::Null => {}
            SinkKind::Buffer(buffer) => buffer.push(event.clone()),
            SinkKind::Recorder(r) => r.record(event),
        }
    }

    /// Flushes an underlying recorder, if any.
    pub fn flush(&mut self) {
        if let SinkKind::Recorder(r) = &mut self.kind {
            r.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    fn issue(id: u64) -> Event {
        Event::RequestIssue {
            id,
            device: 0,
            lba: 0,
            sectors: 8,
            kind: "read",
        }
    }

    /// `n` events of assorted variants and line lengths.
    fn stream(n: u64) -> Vec<TimedEvent> {
        (0..n)
            .map(|i| TimedEvent {
                t: i as f64 * 1.3e-3,
                event: match i % 3 {
                    0 => issue(i),
                    1 => Event::RequestComplete {
                        id: i,
                        start: i as f64 * 1e-7,
                        response_ms: 1.0 / (i + 1) as f64,
                    },
                    _ => Event::RoutingDecision {
                        request: i,
                        drive: (i % 64) as usize,
                    },
                },
            })
            .collect()
    }

    /// What the recorder must write for `events`: one rendered line each.
    fn expected(events: &[TimedEvent]) -> Vec<u8> {
        let mut text = String::new();
        for e in events {
            text.push_str(&serde_json::to_string(e).expect("events render"));
            text.push('\n');
        }
        text.into_bytes()
    }

    /// A short stream and one spanning several batches.
    fn streams() -> [Vec<TimedEvent>; 2] {
        let long = stream(5_000);
        assert!(expected(&long).len() > 3 * BATCH_BYTES, "spans several batches");
        [stream(7), long]
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("diskobs-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn null_sink_never_builds_the_event() {
        let mut sink = Sink::null();
        assert!(!sink.is_enabled());
        sink.emit(Seconds::new(1.0), || panic!("null sink ran the builder"));
        let mut events = Vec::new();
        sink.drain_into(&mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn buffer_sink_accumulates_and_drains_in_order() {
        let mut sink = Sink::buffer().with_scope(3);
        assert!(sink.is_enabled());
        assert_eq!(sink.scope(), 3);
        for i in 0..4 {
            sink.emit(Seconds::new(i as f64), || issue(i));
        }
        let mut events = Vec::new();
        sink.drain_into(&mut events);
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].t <= w[1].t));
        sink.drain_into(&mut events);
        assert_eq!(events.len(), 4, "draining takes the buffer");
    }

    #[test]
    fn ndjson_recorder_writes_one_line_per_event() {
        let mut rec = NdjsonRecorder::new(Vec::new());
        for i in 0..3 {
            rec.record(&TimedEvent {
                t: i as f64,
                event: issue(i),
            });
        }
        rec.flush();
        assert_eq!(rec.lines(), 3);
        assert!(rec.error().is_none());
        let text = String::from_utf8(rec.into_inner().expect("a Vec takes every byte")).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn ndjson_recorder_round_trips_through_flush() {
        for events in streams() {
            let written = Rc::new(RefCell::new(Vec::new()));
            let mut rec = NdjsonRecorder::new(Shared(written.clone()));
            for e in &events {
                rec.record(e);
            }
            assert_eq!(rec.lines(), events.len() as u64, "lines counts accepted lines");
            rec.flush();
            assert!(rec.error().is_none());
            assert_eq!(*written.borrow(), expected(&events));
            assert!(rec.into_inner().is_ok());
        }
    }

    #[test]
    fn a_dropped_recorder_writes_its_last_batch() {
        for events in streams() {
            let written = Rc::new(RefCell::new(Vec::new()));
            let mut rec = NdjsonRecorder::new(Shared(written.clone()));
            for e in &events {
                rec.record(e);
            }
            drop(rec);
            assert_eq!(*written.borrow(), expected(&events));
        }
    }

    #[test]
    fn ndjson_recorder_round_trips_through_commit() {
        let dir = scratch("commit");
        for (k, events) in streams().iter().enumerate() {
            let path = dir.join(format!("trace{k}.ndjson"));
            let mut rec = NdjsonRecorder::create_atomic(&path).expect("create");
            for e in events {
                rec.record(e);
            }
            assert_eq!(rec.commit().expect("commit"), events.len() as u64);
            assert_eq!(std::fs::read(&path).expect("committed"), expected(events));
        }
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    /// A writer into a buffer the test keeps a handle on.
    struct Shared(Rc<RefCell<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Accepts `budget` bytes into `written`, then fails: its first
    /// failure says "first", every later call "later" and counts in
    /// `late_calls`.
    struct Failing {
        written: Rc<RefCell<Vec<u8>>>,
        budget: usize,
        failed: bool,
        late_calls: Rc<Cell<u32>>,
    }

    impl Failing {
        fn fail(&mut self) -> io::Error {
            if self.failed {
                self.late_calls.set(self.late_calls.get() + 1);
                io::Error::other("later")
            } else {
                self.failed = true;
                io::Error::other("first")
            }
        }
    }

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let room = self.budget - self.written.borrow().len();
            if self.failed || room == 0 {
                return Err(self.fail());
            }
            let n = buf.len().min(room);
            self.written.borrow_mut().extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            if self.failed {
                return Err(self.fail());
            }
            Ok(())
        }
    }

    #[test]
    fn a_failing_writer_surfaces_its_first_error_and_gets_nothing_after_it() {
        let events = stream(5_000);
        let budget = BATCH_BYTES + BATCH_BYTES / 2;
        let written = Rc::new(RefCell::new(Vec::new()));
        let late_calls = Rc::new(Cell::new(0));
        let mut rec = NdjsonRecorder::new(Failing {
            written: written.clone(),
            budget,
            failed: false,
            late_calls: late_calls.clone(),
        });
        for e in &events {
            rec.record(e);
        }
        let accepted = rec.lines();
        assert!(accepted < events.len() as u64, "recording stopped at the error");
        rec.flush();
        assert_eq!(rec.error().map(ToString::to_string).as_deref(), Some("first"));
        rec.flush();
        assert_eq!(rec.lines(), accepted, "nothing accepted after the error");
        let err = rec.into_inner().err().expect("into_inner surfaces the error");
        assert_eq!(err.to_string(), "first");
        assert_eq!(late_calls.get(), 0, "the writer saw no call after its failure");
        assert_eq!(*written.borrow(), expected(&events)[..budget]);
    }

    /// `commit` on a file whose writes fail: the temporary links to
    /// `/dev/full`, where every write fails with "no space left".
    #[cfg(target_os = "linux")]
    #[test]
    fn commit_surfaces_the_first_write_error() {
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let dir = scratch("full");
        let path = dir.join("trace.ndjson");
        std::os::unix::fs::symlink(full, dir.join("trace.ndjson.tmp")).expect("symlink");
        let mut rec = NdjsonRecorder::create_atomic(&path).expect("create");
        for e in &stream(5_000) {
            rec.record(e);
        }
        let first = rec.error().map(io::Error::kind).expect("a full batch failed");
        assert_eq!(rec.commit().expect_err("commit fails").kind(), first);
        assert!(!path.exists(), "nothing lands at the destination");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn recorder_sink_streams() {
        let mut sink = Sink::recorder(NdjsonRecorder::new(Vec::new()));
        sink.emit(Seconds::new(0.5), || issue(1));
        assert!(sink.is_enabled());
        // Streamed events are not drainable — they belong to the recorder.
        let mut events = Vec::new();
        sink.drain_into(&mut events);
        assert!(events.is_empty());
    }
}
