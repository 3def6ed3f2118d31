//! `disktwin`: a digital-twin what-if service for the thermal fleet
//! simulator.
//!
//! The twin keeps a warm simulated fleet advancing in the background —
//! the same deterministic disksim/thermal/DTM/fleet stack the batch
//! experiments run — and answers speculative *what-if* queries from
//! concurrent clients without ever pausing the live simulation:
//!
//! - *"What if we added 200 drives to this rack?"* (`add_drives`)
//! - *"What if the CRAC inlet rose 5 °C?"* (`inlet_delta_c`)
//! - *"What if traffic grew 30%?"* (`traffic_scale`)
//!
//! Each query forks the live twin's latest epoch-boundary snapshot
//! twice — one baseline fork, one perturbed fork — advances both over
//! the same horizon on an isolated copy of the state, and reports peak
//! temperatures, the response-time CDF, and DTM engagement, plus the
//! deltas between the forks.
//!
//! Three properties make this sound:
//!
//! 1. **Complete state capture.** [`TwinState`] serializes everything
//!    that survives an epoch boundary — drive thermal state, event
//!    queues and slabs, coordinator hysteresis, router cursor, the
//!    arrival stream's RNG and clock, response statistics, and the one
//!    lookahead request drawn past the boundary. Restoring a checkpoint
//!    and advancing is byte-identical to never having checkpointed
//!    (pinned by proptests across every workload preset).
//! 2. **Fork isolation.** Forks restore from an immutable snapshot
//!    (`Arc<TwinState>`); the live twin is owned by a single thread and
//!    never blocks on queries.
//! 3. **Deterministic answers.** A query pinned to a snapshot epoch is
//!    a pure function of the server configuration: the same query at
//!    the same epoch returns byte-identical JSON across runs and across
//!    racing clients.
//!
//! Checkpoints are versioned, checksummed, and written atomically
//! ([`checkpoint`]); the TCP server ([`server`]) speaks line-delimited
//! JSON ([`protocol`]) with bounded-queue back-pressure, per-query
//! deadlines, and a graceful shutdown that flushes a final checkpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod error;
pub mod protocol;
pub mod server;
pub mod twin;

pub use checkpoint::{
    decode, encode, read_checkpoint, write_checkpoint, CheckpointError, CHECKPOINT_MAGIC,
    STATE_VERSION,
};
pub use error::TwinError;
pub use protocol::{CheckpointMsg, ErrorBody, ErrorMsg, OkMsg, QueryMsg, StatusMsg};
pub use server::{query_line, ServerConfig, TwinServer, MAX_QUERY_LINE_BYTES};
pub use twin::{whatif, ForkOutcome, Twin, TwinConfig, TwinState, WhatIf, WhatIfReport};
