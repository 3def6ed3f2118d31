//! Synthetic I/O workload generators.
//!
//! Stand-ins for the five commercial traces of the paper's §5.1 (Figure
//! 4): HPL OpenMail, an OLTP application, a search engine, TPC-C and
//! TPC-H. The real traces are not redistributable, so each preset
//! reproduces the *statistics that drive the response-time experiment*:
//! request counts and device populations from the paper's table, arrival
//! intensity tuned to the reported baseline response times, read/write
//! mix, request-size distributions, sequential-run behaviour and skewed
//! (Zipf) spatial locality.
//!
//! # Examples
//!
//! ```
//! use workloads::{presets, WorkloadPreset};
//!
//! let all = presets();
//! assert_eq!(all.len(), 5);
//! let openmail = &all[0];
//! let trace = openmail.generate(1_000, 42)?;
//! assert_eq!(trace.len(), 1_000);
//! # Ok::<(), disksim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod analyze;
mod arrival;
pub mod ascii;
mod generator;
pub mod msr;
mod presets;
mod trace;

pub use access::{AccessProfile, SizeModel, ZipfSampler};
pub use analyze::{analyze, TraceProfile};
pub use ascii::{read_ascii_trace, write_ascii_trace};
pub use msr::{read_msr_trace, write_msr_trace};
pub use arrival::{ArrivalModel, ArrivalStream, ArrivalStreamState};
pub use generator::{TraceGenerator, TraceStream, TraceStreamState};
pub use presets::{
    openmail, oltp, preset_by_key, presets, search_engine, tpcc, tpch, WorkloadPreset,
};
pub use trace::{read_trace, write_trace};
