//! Digital-twin suite: checkpoint codec, fork latency and one what-if.

use crate::LabError;
use disktwin::{decode, encode, whatif, Twin, TwinConfig, WhatIf};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

use super::Provenance;

/// What the digital-twin suite measured. A full run writes this to
/// `BENCH_twin.json` at the workspace root.
#[derive(Debug, Serialize)]
pub struct TwinBenchReport {
    /// True when the quick (smoke-test) iteration counts were used.
    pub quick: bool,
    /// Where/when this run happened.
    pub provenance: Provenance,
    /// Serialized checkpoint size for the benchmarked twin, bytes.
    pub state_bytes: u64,
    /// Checkpoint serializations (state → versioned bytes) per second.
    pub checkpoint_encode_per_sec: f64,
    /// Encode throughput in MB/s of checkpoint bytes produced.
    pub checkpoint_encode_mb_per_sec: f64,
    /// Checkpoint restores (bytes → validated state → live twin) per
    /// second.
    pub checkpoint_restore_per_sec: f64,
    /// Mean in-memory fork latency (capture + rebuild), ms.
    pub fork_latency_ms: f64,
    /// One pinned what-if query (two forks over the horizon), ms.
    pub whatif_wall_ms: f64,
    /// Provenance notes on the restore and encode paths: what moved the
    /// committed numbers and why.
    pub notes: String,
}

/// Why restore now sits near encode parity instead of 55x behind it
/// (744/s encode vs 13.6/s restore in the baseline committed at
/// 8d04c84). Profiling split that 73 ms restore into ~62 ms of JSON
/// parsing and ~0.03 ms of actual state rebuild: the vendored parser
/// re-validated UTF-8 over the whole remaining input for every string
/// character (quadratic in body size). Unescaped runs are now
/// bulk-copied and validated once — the framed FNV-1a checksum plus one
/// linear UTF-8 pass is all the byte-level validation a body needs —
/// and the arrival queue is rebuilt from the recorded entry list in
/// one step. The structural re-validation in
/// `StorageSystem::restore_state` stays: it guards against states whose
/// JSON parses but whose links are inconsistent, and it measures in the
/// tens of microseconds. Encode later stopped building a value tree:
/// the body streams through `Serialize::write_json`, byte-identical.
/// The encode pair's parent number comes from a run on the same host
/// just before this one.
const TWIN_NOTES: &str = "restore was parser-bound, not validation-bound: \
    quadratic per-char UTF-8 re-validation in the vendored JSON parser cost ~62 ms \
    of the 73 ms restore; unescaped runs are now copied in bulk and validated once, \
    and calendar buckets preallocate from recorded sizes. Structural link validation \
    (~0.03 ms) is kept. Encode renders the body field by field instead of through a \
    value tree, with identical bytes; parent abd843f on the same host, full run just \
    before this one: checkpoint_encode_per_sec 496 (76.3 MB/s).";

/// Times the digital-twin state machinery: checkpoint encode/restore
/// throughput, in-memory fork latency, and one end-to-end what-if.
pub fn twin_bench(quick: bool) -> Result<TwinBenchReport, LabError> {
    let fail = |e: &dyn std::fmt::Display| LabError::Experiment(format!("twin bench: {e}"));
    let (reps, warm_epochs, horizon) = if quick { (20u32, 2, 2) } else { (200u32, 4, 8) };
    let mut twin =
        Twin::new(TwinConfig::preset(workloads::oltp(), 4)).map_err(|e| fail(&e))?;
    for _ in 0..warm_epochs {
        twin.advance_epoch().map_err(|e| fail(&e))?;
    }
    let state = twin.capture_state();

    let start = Instant::now();
    let mut bytes = 0u64;
    for _ in 0..reps {
        bytes = black_box(encode(&state).map_err(|e| fail(&e))?).len() as u64;
    }
    let encode_s = start.elapsed().as_secs_f64().max(1e-9);

    let encoded = encode(&state).map_err(|e| fail(&e))?;
    let start = Instant::now();
    for _ in 0..reps {
        let restored =
            Twin::restore_state(decode(&encoded).map_err(|e| fail(&e))?).map_err(|e| fail(&e))?;
        black_box(restored.epoch());
    }
    let restore_s = start.elapsed().as_secs_f64().max(1e-9);

    let start = Instant::now();
    for _ in 0..reps {
        let fork = twin.fork().map_err(|e| fail(&e))?;
        black_box(fork.epoch());
    }
    let fork_s = start.elapsed().as_secs_f64().max(1e-9);

    let start = Instant::now();
    let report = whatif(
        &state,
        &WhatIf {
            inlet_delta_c: Some(5.0),
            ..WhatIf::default()
        },
        horizon,
        None,
    )
    .map_err(|e| fail(&e))?;
    black_box(report.baseline.completed);
    let whatif_s = start.elapsed().as_secs_f64();

    Ok(TwinBenchReport {
        quick,
        provenance: Provenance::collect(),
        state_bytes: bytes,
        checkpoint_encode_per_sec: f64::from(reps) / encode_s,
        checkpoint_encode_mb_per_sec: (bytes * u64::from(reps)) as f64 / encode_s / 1e6,
        checkpoint_restore_per_sec: f64::from(reps) / restore_s,
        fork_latency_ms: fork_s * 1e3 / f64::from(reps),
        whatif_wall_ms: whatif_s * 1e3,
        notes: TWIN_NOTES.to_string(),
    })
}
