//! `diskobs` — deterministic event tracing, metrics, and profiling for
//! the thermodisk stack.
//!
//! The paper's DTM argument is about *decisions over time* — when the
//! controller detects thermal slack, when throttling engages, how
//! temperature and queue depth co-evolve — yet aggregate reports flatten
//! that timeline away. This crate is the observability layer the rest of
//! the workspace threads through its hot paths:
//!
//! - [`Event`] / [`TimedEvent`]: a typed event vocabulary (request
//!   issue/complete, RPM transitions, coordinator actions (gate and
//!   ungate among them), routing decisions, sensor readings, periodic
//!   snapshots) stamped with **simulated time**, never wall time, so a
//!   trace is byte-identical at any thread or shard count.
//! - [`Sink`]: the per-component emission point. The default
//!   [`Sink::null`] costs one discriminant branch per event site and
//!   never constructs the event (construction is deferred behind a
//!   closure), so instrumented hot paths stay within noise of
//!   uninstrumented ones — `BENCH_obs.json` pins that claim.
//! - [`Recorder`]: where a sink streams events; [`NdjsonRecorder`]
//!   writes them as NDJSON.
//! - [`Histogram`]: the one distribution type, a mergeable log-linear
//!   histogram (64 buckets per octave read off the `f64` bit pattern)
//!   with exact count, sum, min and max. `disksim::ResponseStats`
//!   wraps it, and the registry holds one per observed metric.
//! - [`metrics`]: a registry of counters, gauges, and histograms, plus
//!   a [`metrics::Timeseries`] for periodic snapshot probes, exportable
//!   to CSV/JSON.
//! - [`profile`]: wall-clock span timing for the experiment engine, so
//!   `results/manifest.json` can record per-stage times.
//! - [`logger`]: the leveled (quiet/normal/verbose) progress logger the
//!   `lab` CLI routes its former bare `eprintln!` output through;
//!   [`Sink::log`] mirrors a line into the trace as an [`Event::Log`].

pub mod event;
mod histogram;
pub mod logger;
pub mod metrics;
pub mod profile;
pub mod record;

pub use event::{is_time_sorted, Event, TimedEvent};
pub use logger::Level;
pub use histogram::Histogram;
pub use metrics::{Registry, Timeseries};
pub use profile::{Span, SpanSet};
pub use record::{AtomicFile, NdjsonRecorder, Recorder, Sink};
