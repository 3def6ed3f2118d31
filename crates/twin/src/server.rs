//! The what-if server: a thread that keeps the twin warm, an acceptor,
//! and one handler thread per client connection.
//!
//! Concurrency model: the epoch thread owns the live [`Twin`] outright
//! and publishes an immutable `Arc<TwinState>` snapshot into a bounded
//! history ring after every epoch. Queries never touch the live twin —
//! they clone an `Arc` out of the ring and fork from it — so a slow,
//! stalled, or disconnecting client can never stall the epoch loop.
//! Back-pressure is a bounded in-flight query count: past the limit,
//! `whatif` requests get an immediate typed `overloaded` error instead
//! of queueing unboundedly.

use crate::checkpoint::write_checkpoint;
use crate::error::TwinError;
use crate::protocol::{CheckpointMsg, ErrorMsg, OkMsg, QueryMsg, StatusMsg};
use crate::twin::{whatif, Twin, TwinState, WhatIf};
use diskobs::Registry;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server runs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// What-if queries allowed to execute at once; further queries get
    /// a typed `overloaded` error (bounded queue back-pressure).
    pub max_inflight: usize,
    /// Per-query deadline, ms. Checked between fork epochs, so a
    /// runaway query stops at the next epoch boundary.
    pub query_timeout_ms: u64,
    /// Epoch-boundary snapshots retained for `at_epoch` pinning.
    pub snapshot_history: usize,
    /// Wall-clock pacing between live epochs, ms (0 = flat out).
    pub epoch_interval_ms: u64,
    /// Fork horizon when a query does not name one.
    pub default_horizon: u64,
    /// Where `checkpoint` requests and the final shutdown checkpoint
    /// land; `None` disables both.
    pub checkpoint_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_inflight: 4,
            query_timeout_ms: 30_000,
            snapshot_history: 128,
            epoch_interval_ms: 5,
            default_horizon: 8,
            checkpoint_path: None,
        }
    }
}

/// State shared between the epoch thread, the acceptor, and handlers.
struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    /// Epoch-boundary snapshots, oldest first.
    ring: Mutex<VecDeque<(u64, Arc<TwinState>)>>,
    /// Signalled whenever a fresh snapshot lands (and on stop).
    fresh: Condvar,
    stop: AtomicBool,
    /// What-if queries currently executing (the bounded queue).
    inflight: AtomicUsize,
    /// Live connection-handler threads (leak check for tests).
    conn_threads: AtomicUsize,
    /// Twin forks created so far (2 per answered what-if).
    forks: AtomicU64,
    metrics: Mutex<Registry>,
}

impl Shared {
    fn ring_lock(&self) -> MutexGuard<'_, VecDeque<(u64, Arc<TwinState>)>> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn metrics_lock(&self) -> MutexGuard<'_, Registry> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Decrements the in-flight count however the query exits.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running what-if server. Dropping it (or calling
/// [`TwinServer::stop`]) shuts the server down gracefully, flushing a
/// final checkpoint when one is configured.
pub struct TwinServer {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    epoch: Option<JoinHandle<()>>,
}

impl TwinServer {
    /// Binds, publishes the twin's initial snapshot, and starts the
    /// epoch and acceptor threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and configuration mistakes.
    pub fn start(twin: Twin, cfg: ServerConfig) -> Result<Self, TwinError> {
        if cfg.max_inflight == 0 {
            return Err(TwinError::Config("max_inflight must be positive".into()));
        }
        if cfg.snapshot_history == 0 {
            return Err(TwinError::Config("snapshot_history must be positive".into()));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            addr,
            ring: Mutex::new(VecDeque::new()),
            fresh: Condvar::new(),
            stop: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            conn_threads: AtomicUsize::new(0),
            forks: AtomicU64::new(0),
            metrics: Mutex::new(Registry::new()),
        });

        // The warm twin is queryable from epoch zero.
        publish(&shared, Arc::new(twin.capture_state()));

        let epoch = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("twin-epoch".into())
                .spawn(move || epoch_loop(twin, &shared))
                .map_err(|e| TwinError::Io(e.to_string()))?
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("twin-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|e| TwinError::Io(e.to_string()))?
        };
        Ok(Self {
            shared,
            accept: Some(accept),
            epoch: Some(epoch),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Freshest published snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.ring_lock().back().map_or(0, |(e, _)| *e)
    }

    /// Live connection-handler threads (returns to zero once every
    /// client has disconnected — the leak check tests pin).
    pub fn connection_threads(&self) -> usize {
        self.shared.conn_threads.load(Ordering::SeqCst)
    }

    /// Twin forks created so far (two per answered what-if query).
    pub fn forks(&self) -> u64 {
        self.shared.forks.load(Ordering::SeqCst)
    }

    /// Blocks until the server stops (a client sends `shutdown`), then
    /// completes the graceful teardown.
    pub fn join(mut self) {
        self.teardown(false);
    }

    /// Requests shutdown and completes the graceful teardown: the epoch
    /// thread flushes a final checkpoint (when configured), the
    /// acceptor exits, and handler threads drain.
    pub fn stop(mut self) {
        self.teardown(true);
    }

    fn teardown(&mut self, request_stop: bool) {
        if request_stop {
            request_shutdown(&self.shared);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.epoch.take() {
            let _ = h.join();
        }
        // Handlers hold only an Arc<Shared>; give stragglers a moment
        // to notice the closed sockets and unwind.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.shared.conn_threads.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for TwinServer {
    fn drop(&mut self) {
        if self.accept.is_some() || self.epoch.is_some() {
            self.teardown(true);
        }
    }
}

/// Flags the stop and unblocks everything that might be waiting: the
/// condvar waiters and the blocking `accept`.
fn request_shutdown(shared: &Shared) {
    shared.stop.store(true, Ordering::SeqCst);
    shared.fresh.notify_all();
    // Poke the acceptor out of its blocking accept().
    let _ = TcpStream::connect(shared.addr);
}

/// Publishes one snapshot into the history ring.
fn publish(shared: &Shared, state: Arc<TwinState>) {
    let mut ring = shared.ring_lock();
    ring.push_back((state.epoch(), state));
    while ring.len() > shared.cfg.snapshot_history {
        ring.pop_front();
    }
    drop(ring);
    shared.fresh.notify_all();
}

/// The epoch thread: advances the live twin, publishes snapshots, and
/// flushes the final checkpoint on the way out.
fn epoch_loop(mut twin: Twin, shared: &Shared) {
    let interval = Duration::from_millis(shared.cfg.epoch_interval_ms);
    while !shared.stop.load(Ordering::SeqCst) {
        if let Err(e) = twin.advance_epoch() {
            // A bad injection schedule cannot be recovered mid-flight;
            // stop advancing and let the final checkpoint capture the
            // last good boundary.
            diskobs::logger::info(&format!("epoch loop stopped: {e}"));
            break;
        }
        let state = Arc::new(twin.capture_state());
        {
            let mut m = shared.metrics_lock();
            m.gauge_set("twin_epoch", state.epoch() as f64);
            m.gauge_set("twin_sim_time_s", state.time_s());
            m.gauge_set("twin_peak_air_c", twin.fleet().peak_air().get());
            m.gauge_set("twin_engaged", twin.fleet().engaged_count() as f64);
        }
        publish(shared, state);
        if !interval.is_zero() {
            std::thread::sleep(interval);
        }
    }
    if let Some(path) = shared.cfg.checkpoint_path.clone() {
        let started = Instant::now();
        match write_checkpoint(&path, &twin.capture_state()) {
            Ok(bytes) => {
                let mut m = shared.metrics_lock();
                m.gauge_set("twin_checkpoint_bytes", bytes as f64);
                m.gauge_set("twin_checkpoint_ms", started.elapsed().as_secs_f64() * 1e3);
                m.count("twin_checkpoints", 1);
            }
            Err(e) => diskobs::logger::info(&format!(
                "final checkpoint to {} failed: {e}",
                path.display()
            )),
        }
    }
}

/// The acceptor: one handler thread per connection.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.conn_threads.fetch_add(1, Ordering::SeqCst);
        let worker = Arc::clone(shared);
        let result = std::thread::Builder::new().name("twin-conn".into()).spawn(move || {
            handle_conn(stream, &worker);
            worker.conn_threads.fetch_sub(1, Ordering::SeqCst);
        });
        if result.is_err() {
            shared.conn_threads.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Serializes any response type onto one line. A failed write just ends
/// the connection — the client went away.
fn reply<T: serde::Serialize>(stream: &mut TcpStream, msg: &T) -> bool {
    let line = serde_json::to_string(msg).unwrap_or_default();
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .is_ok()
}

fn reply_err(stream: &mut TcpStream, e: &TwinError) -> bool {
    reply(stream, &ErrorMsg::from_error(e))
}

/// The longest query line a connection may send. Real queries are under
/// 1 KiB; a longer line gets one `bad_query` answer and the connection
/// closes, so no client can grow the server's memory without bound.
pub const MAX_QUERY_LINE_BYTES: u64 = 1 << 20;

/// One client connection: read a line, answer a line, until EOF,
/// error, timeout, oversized line, or shutdown.
fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let io_timeout = Duration::from_millis(shared.cfg.query_timeout_ms.max(100));
    // A silent or stalled peer times the socket out; the handler exits
    // instead of holding a thread (and the epoch loop never notices).
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        match (&mut reader).take(MAX_QUERY_LINE_BYTES).read_until(b'\n', &mut bytes) {
            Ok(0) => return,          // client closed
            Ok(_) => {}
            Err(_) => return,         // timeout or reset
        }
        if bytes.last() != Some(&b'\n') && bytes.len() as u64 == MAX_QUERY_LINE_BYTES {
            reply_err(
                &mut writer,
                &TwinError::BadQuery(format!(
                    "query line longer than {MAX_QUERY_LINE_BYTES} bytes"
                )),
            );
            return;
        }
        let line = String::from_utf8_lossy(&bytes);
        if line.trim().is_empty() {
            continue;
        }
        let msg: QueryMsg = match serde_json::from_str(line.trim()) {
            Ok(m) => m,
            Err(e) => {
                if !reply_err(&mut writer, &TwinError::BadQuery(e.to_string())) {
                    return;
                }
                continue;
            }
        };
        let keep_going = match msg.cmd.as_str() {
            "status" => handle_status(&mut writer, shared),
            "whatif" => handle_whatif(&mut writer, shared, &msg),
            "checkpoint" => handle_checkpoint(&mut writer, shared),
            "metrics" => {
                let json = serde_json::to_string(&*shared.metrics_lock()).unwrap_or_default();
                writer
                    .write_all(json.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .is_ok()
            }
            "shutdown" => {
                // Acknowledge first, then stop taking input on this
                // connection regardless of whether the ack landed.
                reply(&mut writer, &OkMsg { ok: true });
                request_shutdown(shared);
                false
            }
            other => reply_err(
                &mut writer,
                &TwinError::BadQuery(format!("unknown command {other:?}")),
            ),
        };
        if !keep_going || shared.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn handle_status(writer: &mut TcpStream, shared: &Shared) -> bool {
    let (epoch, oldest, state) = {
        let ring = shared.ring_lock();
        let newest = ring.back().map(|(e, s)| (*e, Arc::clone(s)));
        let oldest = ring.front().map_or(0, |(e, _)| *e);
        match newest {
            Some((e, s)) => (e, oldest, s),
            None => return reply_err(writer, &TwinError::Io("no snapshot yet".into())),
        }
    };
    let (peak_air_c, engaged) = {
        let m = shared.metrics_lock();
        (
            m.gauge("twin_peak_air_c").unwrap_or(0.0),
            m.gauge("twin_engaged").unwrap_or(0.0) as u64,
        )
    };
    let msg = StatusMsg {
        epoch,
        sim_time_s: state.time_s(),
        peak_air_c,
        engaged,
        enclosures: state.enclosures() as u64,
        inflight: shared.inflight.load(Ordering::SeqCst) as u64,
        oldest_epoch: oldest,
    };
    reply(writer, &msg)
}

fn handle_checkpoint(writer: &mut TcpStream, shared: &Shared) -> bool {
    let Some(path) = shared.cfg.checkpoint_path.clone() else {
        return reply_err(
            writer,
            &TwinError::Config("no checkpoint path configured".into()),
        );
    };
    let state = match shared.ring_lock().back().map(|(_, s)| Arc::clone(s)) {
        Some(s) => s,
        None => return reply_err(writer, &TwinError::Io("no snapshot yet".into())),
    };
    let started = Instant::now();
    match write_checkpoint(&path, &state) {
        Ok(bytes) => {
            let duration_ms = started.elapsed().as_secs_f64() * 1e3;
            let mut m = shared.metrics_lock();
            m.gauge_set("twin_checkpoint_bytes", bytes as f64);
            m.gauge_set("twin_checkpoint_ms", duration_ms);
            m.count("twin_checkpoints", 1);
            drop(m);
            reply(
                writer,
                &CheckpointMsg {
                    path: path.display().to_string(),
                    bytes,
                    duration_ms,
                    epoch: state.epoch(),
                },
            )
        }
        Err(e) => reply_err(writer, &TwinError::Checkpoint(e)),
    }
}

fn handle_whatif(writer: &mut TcpStream, shared: &Shared, msg: &QueryMsg) -> bool {
    // Bounded queue: admission first, so an overloaded server answers
    // instantly instead of queueing the fork work.
    if shared.inflight.fetch_add(1, Ordering::SeqCst) >= shared.cfg.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.metrics_lock().count("twin_overloaded", 1);
        return reply_err(writer, &TwinError::Overloaded);
    }
    let _guard = InflightGuard(&shared.inflight);
    let started = Instant::now();
    let deadline = started + Duration::from_millis(shared.cfg.query_timeout_ms);
    let result = select_snapshot(shared, msg.at_epoch, deadline).and_then(|state| {
        let query = WhatIf {
            add_drives: msg.add_drives,
            inlet_delta_c: msg.inlet_delta_c,
            traffic_scale: msg.traffic_scale,
            fail_enclosure: msg.fail_enclosure,
            fail_disk: msg.fail_disk,
            cooling_delta_c: msg.cooling_delta_c,
            cooling_epochs: msg.cooling_epochs,
        };
        let horizon = msg.horizon_epochs.unwrap_or(shared.cfg.default_horizon);
        whatif(&state, &query, horizon, Some(deadline))
    });
    match result {
        Ok(report) => {
            shared.forks.fetch_add(2, Ordering::SeqCst);
            let mut m = shared.metrics_lock();
            m.count("twin_queries", 1);
            m.count("twin_forks", 2);
            m.observe("twin_query_ms", started.elapsed().as_secs_f64() * 1e3);
            drop(m);
            reply(writer, &report)
        }
        Err(e) => {
            shared.metrics_lock().count("twin_query_errors", 1);
            reply_err(writer, &e)
        }
    }
}

/// Picks the snapshot a query runs against: the freshest one, or — when
/// pinned with `at_epoch` — exactly that epoch, waiting (up to the
/// deadline) for the live twin to reach it and failing typed when the
/// ring has already evicted it.
fn select_snapshot(
    shared: &Shared,
    at_epoch: Option<u64>,
    deadline: Instant,
) -> Result<Arc<TwinState>, TwinError> {
    let mut ring = shared.ring_lock();
    loop {
        match at_epoch {
            None => {
                if let Some((_, s)) = ring.back() {
                    return Ok(Arc::clone(s));
                }
            }
            Some(epoch) => {
                if let Some((_, s)) = ring.iter().find(|(e, _)| *e == epoch) {
                    return Ok(Arc::clone(s));
                }
                if ring.front().is_some_and(|(oldest, _)| *oldest > epoch) {
                    return Err(TwinError::Evicted(epoch));
                }
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            return Err(TwinError::Io("server stopping".into()));
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(TwinError::Timeout);
        }
        let (guard, _) = shared
            .fresh
            .wait_timeout(ring, left.min(Duration::from_millis(50)))
            .unwrap_or_else(|e| e.into_inner());
        ring = guard;
    }
}

/// A tiny blocking client for the protocol — `lab twin query`, the
/// smoke tests, and doctests all speak through this.
///
/// # Errors
///
/// Propagates connection and I/O failures; a response line is returned
/// verbatim (errors from the server are JSON on that line).
pub fn query_line(addr: &str, line: &str, timeout: Duration) -> Result<String, TwinError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(line.trim().as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    Ok(response.trim_end().to_string())
}
