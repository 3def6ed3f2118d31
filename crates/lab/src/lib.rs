//! `disklab` — experiment orchestration for the thermodisk workspace.
//!
//! Every table and figure the paper reproduction regenerates is a
//! registered [`Experiment`]. The [`Engine`] runs any subset across a
//! work-stealing thread pool, serves repeat runs from a
//! content-addressed cache under `results/.cache/`, and records what
//! happened in `results/manifest.json`. The `lab` binary is the single
//! CLI front end: it also runs the benchmark suites
//! ([`bench`](mod@bench)), the drive-model calculators ([`model_cli`]),
//! instrumented traces ([`trace`]) and the digital-twin server
//! ([`twin_cli`]).

pub mod bench;
pub mod cli;
pub mod digest;
pub mod engine;
pub mod error;
pub mod experiment;
pub mod experiments;
pub mod manifest;
pub mod model_cli;
pub mod registry;
pub mod sweep;
pub mod text;
pub mod trace;
pub mod twin_cli;

pub use engine::{default_parallelism, parallel_map, Engine, RunSummary};
pub use error::LabError;
pub use experiment::{Experiment, RunOutput, Scale};
pub use manifest::{Manifest, ManifestEntry};
pub use registry::{by_name, names, registry};
pub use text::{ascii_plot, results_dir, rule, save_json};
pub use trace::{run_trace, trace_names, TraceOutcome};
