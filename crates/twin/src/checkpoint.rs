//! The checkpoint file format: a versioned, checksummed, atomically
//! written snapshot of a [`TwinState`].
//!
//! Layout (all ASCII header, then the body):
//!
//! ```text
//! DISKTWIN <version> <body-len> <fnv1a-64-hex>\n
//! <body-len bytes of compact JSON>\n
//! ```
//!
//! The header carries the body length and an FNV-1a checksum, so a
//! truncated or bit-flipped file is rejected *before* the JSON parser
//! ever runs — and the parser plus the twin's restore validation guard
//! the rest. Files are written through [`diskobs::AtomicFile`]: bytes
//! land in a `.tmp` sibling, are fsynced, and rename into place, so a
//! crash mid-checkpoint leaves the previous checkpoint intact.

use crate::twin::TwinState;
use std::io::Write;
use std::path::Path;

/// The file-format magic.
pub const CHECKPOINT_MAGIC: &str = "DISKTWIN";

/// The current checkpoint format version. Bump on any incompatible
/// change to [`TwinState`]'s serialized shape.
///
/// History:
/// - 1: initial format.
/// - 2: response statistics moved from one fleet-wide accumulator into
///   per-enclosure folds (the fleet's parallel epoch boundary), so the
///   enclosure states gained a `stats` object and the fleet state lost
///   its own.
/// - 3: the scenario subsystem. The fleet state gained `array`,
///   `rebuilds`, and `ambient_bias`; the twin's `trace` field (a bare
///   synthetic-stream state) became `source` (synthetic stream *or*
///   trace replay) and a pending scenario schedule — injections, fired
///   flags, the traffic factor in force — rides along so a checkpoint
///   taken mid-rebuild or mid-excursion resumes it exactly. Version-2
///   bodies place the stream where `source` now lives, so they cannot
///   be read as version 3; old files fail fast with a typed
///   [`CheckpointError::VersionMismatch`] instead of a JSON parse
///   error.
/// - 4: each enclosure's `stats` object became a log-linear histogram
///   (count, sum, min, max, the zero bucket and a dense span of bucket
///   counts) in place of a 65,536-sample reservoir with ten Figure 4
///   counters. Version-3 bodies carry the reservoir, so they fail fast
///   with [`CheckpointError::VersionMismatch`].
/// - 5: the fleet became the one closed DTM loop. The fleet state
///   carries its sensor model, each enclosure its held sensor reading,
///   boosted time and energy, the coordinator each drive's slack-ramp
///   state, and a throttle policy its mechanism. Version-4 bodies lack
///   them, so they fail fast with [`CheckpointError::VersionMismatch`].
/// - 6: one bay type. Each enclosure's state is one flat `bays` entry
///   holding only what that bay alone knows (its local ambient, node
///   temperatures and duty baselines sit beside its queue and
///   statistics; the nested drive state, the per-bay thermal spec and
///   parameters, the capacity, the transient's clock and the last
///   epoch's mean duty and utilization are gone). The disk and thermal
///   specs every bay shares move from the twin state into the fleet
///   state, held once, and a throttle names its optional (high, low)
///   spindle speeds instead of a mechanism. Version-5 bodies carry the
///   nested shape, so they fail fast with
///   [`CheckpointError::VersionMismatch`].
/// - 7: one disk spec per fleet. A storage-system state carries state
///   only: its member disks lost their specs (each held the same zone
///   table), the state lost the RAID layout, scheduler and logical size
///   its fleet configures, and it gained the one spindle speed all its
///   members run at. The fleet's `spec` is now the only disk spec in a
///   checkpoint and is validated against the geometry its own
///   parameters rebuild. Version-6 bodies carry a spec per member, so
///   they fail fast with [`CheckpointError::VersionMismatch`].
/// - 8: one exact thermal window map per fleet. A serial airflow graph
///   is stored as its length and coupling coefficient, not as its
///   n(n−1)/2 couplings, and a restored fleet carries its bays across
///   each control window by the exact map instead of five 50-ms
///   backward-Euler steps. A version-7 body carries the coupling lists
///   and would continue on the other integrator, so it fails fast with
///   [`CheckpointError::VersionMismatch`].
pub const STATE_VERSION: u32 = 8;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(String),
    /// The header line is missing or malformed.
    BadHeader(String),
    /// The file is a checkpoint, but of an incompatible version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
    },
    /// The body is shorter than the header promised.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The body's checksum does not match the header.
    ChecksumMismatch,
    /// The body parsed as JSON but not as a twin state.
    BadBody(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(msg) => write!(f, "checkpoint i/o: {msg}"),
            Self::BadHeader(msg) => write!(f, "bad checkpoint header: {msg}"),
            Self::VersionMismatch { found } => write!(
                f,
                "checkpoint version {found} is not the supported version {STATE_VERSION}"
            ),
            Self::Truncated { expected, found } => {
                write!(f, "checkpoint truncated: header promised {expected} body bytes, found {found}")
            }
            Self::ChecksumMismatch => write!(f, "checkpoint body fails its checksum"),
            Self::BadBody(msg) => write!(f, "bad checkpoint body: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// FNV-1a over the body bytes: tiny, dependency-free, and plenty to
/// catch truncation and bit rot (this is an integrity check, not an
/// authenticity one).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serializes a twin state into the checkpoint byte format.
///
/// # Errors
///
/// Returns [`CheckpointError::BadBody`] if serialization itself fails
/// (it does not for any reachable state).
pub fn encode(state: &TwinState) -> Result<Vec<u8>, CheckpointError> {
    let body = serde_json::to_string(state).map_err(|e| CheckpointError::BadBody(e.to_string()))?;
    let mut out = format!(
        "{CHECKPOINT_MAGIC} {STATE_VERSION} {} {:016x}\n",
        body.len(),
        fnv1a(body.as_bytes())
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out.push(b'\n');
    Ok(out)
}

/// Parses checkpoint bytes back into a twin state, validating the
/// header, length, and checksum before touching the JSON.
///
/// # Errors
///
/// Every way a corrupted file can fail: [`CheckpointError::BadHeader`],
/// [`CheckpointError::VersionMismatch`], [`CheckpointError::Truncated`],
/// [`CheckpointError::ChecksumMismatch`], [`CheckpointError::BadBody`].
pub fn decode(bytes: &[u8]) -> Result<TwinState, CheckpointError> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| CheckpointError::BadHeader("no header line".into()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| CheckpointError::BadHeader("header is not UTF-8".into()))?;
    let mut fields = header.split(' ');
    let magic = fields.next().unwrap_or("");
    if magic != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadHeader(format!(
            "magic {magic:?} is not {CHECKPOINT_MAGIC:?}"
        )));
    }
    let version: u32 = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CheckpointError::BadHeader("unparsable version".into()))?;
    if version != STATE_VERSION {
        return Err(CheckpointError::VersionMismatch { found: version });
    }
    let body_len: u64 = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CheckpointError::BadHeader("unparsable body length".into()))?;
    let checksum = fields
        .next()
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| CheckpointError::BadHeader("unparsable checksum".into()))?;
    if fields.next().is_some() {
        return Err(CheckpointError::BadHeader("trailing header fields".into()));
    }

    let body_start = newline + 1;
    let available = (bytes.len() - body_start) as u64;
    // The trailing newline is optional on read; the length field rules.
    let have = available.saturating_sub(u64::from(bytes.last() == Some(&b'\n')));
    if have < body_len {
        return Err(CheckpointError::Truncated {
            expected: body_len,
            found: have,
        });
    }
    let body = &bytes[body_start..body_start + body_len as usize];
    if fnv1a(body) != checksum {
        return Err(CheckpointError::ChecksumMismatch);
    }
    let text =
        std::str::from_utf8(body).map_err(|_| CheckpointError::BadBody("body is not UTF-8".into()))?;
    serde_json::from_str(text).map_err(|e| CheckpointError::BadBody(e.to_string()))
}

/// Writes a checkpoint crash-safely (`.tmp`, fsync, rename) and returns
/// the number of bytes written.
///
/// # Errors
///
/// Propagates encoding and I/O failures; on failure the destination
/// file is untouched.
pub fn write_checkpoint(path: impl AsRef<Path>, state: &TwinState) -> Result<u64, CheckpointError> {
    let bytes = encode(state)?;
    let mut file = diskobs::AtomicFile::create(path)?;
    file.write_all(&bytes)?;
    file.commit()?;
    Ok(bytes.len() as u64)
}

/// Reads a checkpoint file back into a twin state.
///
/// # Errors
///
/// As [`decode`], plus [`CheckpointError::Io`] for unreadable files.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<TwinState, CheckpointError> {
    decode(&std::fs::read(path)?)
}
