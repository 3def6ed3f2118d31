//! The checkpoint contract: `restore(checkpoint(s))` then `advance(k)`
//! is byte-identical to `advance(k)` on the original — across every
//! workload preset and with a RAID-5 array mid-rebuild — and corrupted
//! or truncated checkpoint files are rejected with typed errors.

use disksim::{DiskSpec, Request, RequestKind, StorageSystem, SystemConfig};
use disktwin::{
    decode, encode, read_checkpoint, write_checkpoint, CheckpointError, Twin, TwinConfig,
    CHECKPOINT_MAGIC, STATE_VERSION,
};
use proptest::prelude::*;
use units::{Rpm, Seconds};

fn twin_for(preset_idx: usize) -> Twin {
    let presets = workloads::presets();
    let preset = presets[preset_idx % presets.len()].clone();
    Twin::new(TwinConfig::preset(preset, 3)).expect("twin builds")
}

fn state_json(twin: &Twin) -> String {
    serde_json::to_string(&twin.capture_state()).expect("state serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The tentpole invariant, across all five workload presets:
    // checkpointing is invisible. Encode → decode → restore, then
    // advance both twins in lockstep — every captured state byte
    // matches.
    #[test]
    fn restore_then_advance_matches_never_checkpointing(
        preset in 0usize..5,
        warmup in 0u64..3,
        k in 1u64..4,
    ) {
        let mut original = twin_for(preset);
        for _ in 0..warmup {
            original.advance_epoch().expect("advance");
        }
        let bytes = encode(&original.capture_state()).expect("encode");
        let mut restored =
            Twin::restore_state(decode(&bytes).expect("decode")).expect("restore");
        prop_assert_eq!(state_json(&original), state_json(&restored));
        for _ in 0..k {
            original.advance_epoch().expect("advance original");
            restored.advance_epoch().expect("advance restored");
            prop_assert_eq!(state_json(&original), state_json(&restored));
        }
    }
}

/// The scenario contract: a checkpoint taken mid-rebuild, with a
/// cooling excursion still pending in the schedule, restores and keeps
/// advancing byte-identically — the pending injection fires in both
/// twins at the same boundary.
#[test]
fn mid_rebuild_checkpoint_restores_with_its_pending_schedule() {
    use diskfleet::{EnclosureArray, RebuildSpec};
    use diskscenario::{CoolingScope, Injection, Scenario};

    let presets = workloads::presets();
    let mut config = TwinConfig::preset(presets[1].clone(), 3);
    config.array = Some(EnclosureArray {
        disks: 3,
        stripe_sectors: 65_536,
    });
    let mut original = Twin::new(config).expect("twin builds");
    original.set_scenario(
        Scenario::new()
            .with(Injection::DriveFailure {
                at_epoch: 1,
                enclosure: 2,
                disk: 0,
                rebuild: RebuildSpec {
                    rate_sectors_per_sec: 200_000.0,
                    chunk_sectors: 4_096,
                },
            })
            .with(Injection::CoolingEvent {
                at_epoch: 6,
                duration_epochs: 3,
                ramp_epochs: 0,
                delta_c: 5.0,
                scope: CoolingScope::All,
            }),
    );

    // Advance past the failure but short of the excursion: the rebuild
    // is in flight and the cooling injection is still pending.
    for _ in 0..3 {
        original.advance_epoch().expect("advance");
    }
    assert!(
        !original.fleet().rebuilds().is_empty(),
        "the checkpoint must land mid-rebuild"
    );

    let bytes = encode(&original.capture_state()).expect("encode");
    let mut restored = Twin::restore_state(decode(&bytes).expect("decode")).expect("restore");
    assert_eq!(state_json(&original), state_json(&restored));

    // Cross the pending excursion and keep going: every boundary
    // matches, so the restored schedule fired identically.
    for epoch in 0..7 {
        original.advance_epoch().expect("advance original");
        restored.advance_epoch().expect("advance restored");
        assert_eq!(
            state_json(&original),
            state_json(&restored),
            "states diverge {epoch} epochs after restore"
        );
    }
}

/// A RAID-5 array serving degraded (one member failed, reconstruction
/// reads in flight) round-trips through the same serialization layer
/// and keeps advancing byte-identically.
#[test]
fn mid_raid_rebuild_state_round_trips() {
    let cfg = SystemConfig::raid5(DiskSpec::era_2001(Rpm::new(10_000.0)), 5, 16)
        .expect("raid5 config");
    let mut sys = StorageSystem::new(cfg).expect("system builds");
    let span = sys.logical_sectors() - 256;
    for i in 0..200u64 {
        let kind = if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read };
        let r = Request::new(
            i,
            Seconds::from_millis(i as f64 * 0.7),
            0,
            (i * 7_919) % span,
            8,
            kind,
        );
        sys.submit(r).expect("submit");
    }
    let _ = sys.advance_to(Seconds::from_millis(40.0));
    sys.fail_disk(2).expect("raid5 member fails");
    // Serve degraded for a while so reconstruction work is in flight.
    let _ = sys.advance_to(Seconds::from_millis(60.0));

    let json = serde_json::to_string(&sys.capture_state()).expect("state serializes");
    let mut restored =
        StorageSystem::restore_state(serde_json::from_str(&json).expect("state parses"))
            .expect("restore");
    assert_eq!(restored.failed_disk(), Some(2), "degraded mode survives restore");

    let a = sys.drain();
    let b = restored.drain();
    assert_eq!(a.len(), b.len(), "both drains complete the same requests");
    assert_eq!(
        serde_json::to_string(&sys.capture_state()).unwrap(),
        serde_json::to_string(&restored.capture_state()).unwrap(),
        "drained states are byte-identical"
    );
}

/// Checkpoint bodies stream through `Serialize::write_json`; they must
/// stay exactly the value tree's compact rendering — the format every
/// committed checkpoint was written in — for warmed twins of every
/// workload preset (no `STATE_VERSION` change rides on the encoder).
#[test]
fn encoded_body_equals_the_value_tree_rendering() {
    for preset in 0..workloads::presets().len() {
        let mut twin = twin_for(preset);
        for _ in 0..3 {
            twin.advance_epoch().expect("advance");
        }
        let state = twin.capture_state();
        let bytes = encode(&state).expect("encode");
        let header_end = bytes.iter().position(|&b| b == b'\n').expect("header line");
        let body = std::str::from_utf8(&bytes[header_end + 1..bytes.len() - 1]).unwrap();
        let tree = serde::ser::to_compact(&serde::Serialize::to_value(&state));
        assert!(body == tree, "preset {preset}: streamed body differs from the tree rendering");
    }
}

fn sample_bytes() -> Vec<u8> {
    let twin = twin_for(1);
    encode(&twin.capture_state()).expect("encode")
}

#[test]
fn corrupted_checkpoints_are_rejected_before_parsing() {
    let good = sample_bytes();
    assert!(decode(&good).is_ok(), "the uncorrupted bytes decode");

    // A flipped bit deep in the body fails the checksum.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    assert!(
        matches!(decode(&flipped), Err(CheckpointError::ChecksumMismatch)),
        "bit flip must fail the checksum"
    );

    // A truncated file fails the length check.
    let truncated = &good[..good.len() - good.len() / 3];
    assert!(
        matches!(
            decode(truncated),
            Err(CheckpointError::Truncated { .. })
        ),
        "truncation must be detected"
    );

    // The wrong magic is not a checkpoint at all.
    let mut wrong_magic = good.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(
        decode(&wrong_magic),
        Err(CheckpointError::BadHeader(_))
    ));

    // Any other version — future or past — is refused with a typed
    // error before the JSON parser ever runs. The v2 case is the real
    // migration hazard: a pre-v3 checkpoint carries a bare stream state
    // where `source` now lives and no scenario schedule, so it must
    // fail loudly, not half-deserialize.
    let header_end = good.iter().position(|&b| b == b'\n').unwrap();
    let header = String::from_utf8(good[..header_end].to_vec()).unwrap();
    let current = format!(" {STATE_VERSION} ");
    for old in [1u32, 2, 999] {
        let bumped = header.replacen(&current, &format!(" {old} "), 1);
        assert_ne!(bumped, header, "the version field must be rewritten");
        let mut wrong_version = bumped.into_bytes();
        wrong_version.extend_from_slice(&good[header_end..]);
        match decode(&wrong_version) {
            Err(CheckpointError::VersionMismatch { found }) => assert_eq!(found, old),
            other => panic!("version {old} must be refused as VersionMismatch, got {other:?}"),
        }
    }

    // No header line at all.
    assert!(matches!(
        decode(b"not a checkpoint"),
        Err(CheckpointError::BadHeader(_))
    ));
    assert!(matches!(decode(b""), Err(CheckpointError::BadHeader(_))));
}

#[test]
fn deeply_nested_bodies_are_refused_without_overflowing_the_stack() {
    // A valid header (length and FNV-1a checksum match), so decode
    // reaches the JSON parser with 100,000 unclosed `[`.
    let body = "[".repeat(100_000);
    let checksum = body.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut bytes = format!(
        "{CHECKPOINT_MAGIC} {STATE_VERSION} {} {checksum:016x}\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    let decoded = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || decode(&bytes).map(drop))
        .expect("thread spawns")
        .join()
        .expect("decode returns instead of overflowing");
    assert!(
        matches!(decoded, Err(CheckpointError::BadBody(_))),
        "{decoded:?}"
    );
}

#[test]
fn checkpoint_files_write_atomically_and_read_back() {
    let dir = std::env::temp_dir().join(format!("disktwin-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("twin.ckpt");

    let mut twin = twin_for(0);
    twin.advance_epoch().expect("advance");
    let state = twin.capture_state();
    let bytes = write_checkpoint(&path, &state).expect("write");
    assert_eq!(bytes, std::fs::metadata(&path).expect("file exists").len());
    assert!(
        !dir.join("twin.ckpt.tmp").exists(),
        "the staging file must not survive a successful commit"
    );

    let back = read_checkpoint(&path).expect("read back");
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(&state).unwrap(),
        "the file round-trips byte-identically"
    );
    std::fs::remove_dir_all(&dir).ok();
}
