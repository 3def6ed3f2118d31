//! The checkpoint contract: `restore(checkpoint(s))` then `advance(k)`
//! is byte-identical to `advance(k)` on the original — across every
//! workload preset and with a RAID-5 array mid-rebuild — and corrupted
//! or truncated checkpoint files are rejected with typed errors.

use disksim::{DiskSpec, Request, RequestKind, StorageSystem, SystemConfig};
use disktwin::{
    decode, encode, read_checkpoint, write_checkpoint, CheckpointError, Twin, TwinConfig,
    TwinError, CHECKPOINT_MAGIC, STATE_VERSION,
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
    let cfg =
        SystemConfig::raid5(DiskSpec::era_2001(Rpm::new(10_000.0)), 5, 16).expect("raid5 config");
    let mut sys = StorageSystem::new(cfg.clone()).expect("system builds");
    let span = sys.logical_sectors() - 256;
    for i in 0..200u64 {
        let kind = if i % 3 == 0 {
            RequestKind::Write
        } else {
            RequestKind::Read
        };
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
        StorageSystem::restore_state(cfg, serde_json::from_str(&json).expect("state parses"))
            .expect("restore");
    assert_eq!(
        restored.failed_disk(),
        Some(2),
        "degraded mode survives restore"
    );

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

/// The fleet holds the one disk spec every member of every bay is: a
/// checkpoint carries its zone table once, however many bays and
/// array members the fleet has.
#[test]
fn a_checkpoint_carries_one_disk_spec_whatever_the_fleet_size() {
    use diskfleet::EnclosureArray;
    let presets = workloads::presets();
    for (enclosures, array) in [(1, None), (3, None), (2, Some(3)), (5, Some(6))] {
        let mut config = TwinConfig::preset(presets[1].clone(), enclosures);
        config.array = array.map(|disks| EnclosureArray {
            disks,
            stripe_sectors: 65_536,
        });
        let mut twin = Twin::new(config).expect("twin builds");
        twin.advance_epoch().expect("advance");
        let bytes = encode(&twin.capture_state()).expect("encode");
        let body = std::str::from_utf8(&bytes).expect("checkpoints are UTF-8");
        assert_eq!(
            body.matches("\"zone_lba_starts\"").count(),
            1,
            "{enclosures} bays of {array:?} members"
        );
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
    // error before the JSON parser ever runs. The v2 to v7 cases are the
    // real migration hazards: a pre-v3 checkpoint carries a bare stream
    // state where `source` now lives and no scenario schedule, a v3
    // checkpoint carries a sample reservoir where each enclosure's
    // histogram now lives, a v4 checkpoint lacks the sensor, energy and
    // slack-ramp state, a v5 checkpoint nests each bay's drive state
    // and copies the thermal description into every bay, a v6
    // checkpoint gives every member disk its own spec and no system its
    // speed, and a v7 checkpoint lists a serial stream's couplings and
    // was advancing on backward Euler, so all must fail loudly, not
    // half-deserialize or continue on another integrator.
    let header_end = good.iter().position(|&b| b == b'\n').unwrap();
    let header = String::from_utf8(good[..header_end].to_vec()).unwrap();
    let current = format!(" {STATE_VERSION} ");
    for old in [1u32, 2, 3, 4, 5, 6, 7, 999] {
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

/// FNV-1a over a checkpoint body, as the header carries it.
fn fnv1a(body: &str) -> u64 {
    body.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrites one field of the first enclosure's response-time histogram
/// in a checkpoint and re-frames the body under a valid header, so the
/// doctored statistics get past the checksum and the JSON parser.
fn doctor_stats(bytes: &[u8], key: &str, value: &str) -> Vec<u8> {
    let text = std::str::from_utf8(bytes).expect("checkpoints are UTF-8");
    let body = text.split_once('\n').expect("header line").1.trim_end();
    // `zeros` is the histogram's own field; its object holds no nested
    // braces, so the nearest `{` before it opens the histogram.
    let open = body[..body.find("\"zeros\":").expect("a histogram")]
        .rfind('{')
        .expect("histogram object");
    let tag = format!("\"{key}\":");
    let start = open + body[open..].find(&tag).expect("histogram field") + tag.len();
    let end = start + body[start..].find([',', '}']).expect("field ends");
    let doctored = format!("{}{value}{}", &body[..start], &body[end..]);
    let mut out = format!(
        "{CHECKPOINT_MAGIC} {STATE_VERSION} {} {:016x}\n",
        doctored.len(),
        fnv1a(&doctored)
    )
    .into_bytes();
    out.extend_from_slice(doctored.as_bytes());
    out.push(b'\n');
    out
}

#[test]
fn doctored_response_histograms_are_refused_on_restore() {
    let mut twin = twin_for(1);
    for _ in 0..2 {
        twin.advance_epoch().expect("advance");
    }
    let good = encode(&twin.capture_state()).expect("encode");
    let untouched = doctor_stats(&good, "zeros", "0");
    assert_eq!(untouched, good, "the doctoring helper round-trips");
    // Counts that do not sum to `count`, a span outside the buckets of
    // finite values, min above max, and a non-finite sum: each body
    // passes its checksum and parses, and each must be refused as a
    // typed error instead of serving a CDF above 1 or a wrong p95.
    for (key, value, why) in [
        ("count", "1", "sum to"),
        ("first", "0", "leaves"),
        ("min", "1e300", "exceeds"),
        ("sum", "null", "finite"),
    ] {
        let state = decode(&doctor_stats(&good, key, value)).expect("the body still parses");
        match Twin::restore_state(state) {
            Err(TwinError::Sim(msg)) => {
                assert!(msg.contains("response statistics"), "{msg}");
                assert!(msg.contains(why), "{msg}");
            }
            Err(e) => panic!("doctored {key}={value}: wrong error {e}"),
            Ok(_) => panic!("doctored {key}={value} must be refused"),
        }
    }
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
