//! The streaming JSON encoder must produce exactly the bytes the value
//! tree renders: every NDJSON trace line goes through
//! `Serialize::write_json`, while `to_value` remains the reference
//! rendering. Every `Event` variant is checked with field values at the
//! edges of the float, integer and string rules.

use diskobs::{Event, NdjsonRecorder, Recorder, TimedEvent};
use proptest::prelude::*;
use serde::Serialize;

/// Floats at every edge of the rendering rule: non-finite (`null`),
/// signed zero, subnormals, integral values either side of 1e16 (where
/// the `.0` suffix stops), arbitrary bit patterns, and ordinary values.
fn edge_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(0.0),
        Just(5e-324),
        Just(f64::MIN_POSITIVE / 3.0),
        Just(9_999_999_999_999_998.0),
        Just(1e16),
        Just(-1e16),
        Just(1e16 + 2.0),
        Just(f64::MAX),
        (-2e16f64..2e16).prop_map(f64::trunc),
        any::<u64>().prop_map(f64::from_bits),
        any::<f64>(),
    ]
}

fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>(), 0u64..1_000]
}

fn edge_usize() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(usize::MAX), any::<usize>(), 0usize..64]
}

/// Characters that stress escaping: quotes, backslashes, every class of
/// control character, DEL, and multi-byte UTF-8.
const PALETTE: [char; 16] = [
    'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', '\u{7f}',
    'é', '😀',
];

fn message() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..24)
        .prop_map(|ix| ix.iter().map(|&i| PALETTE[i]).collect())
}

/// The `&'static str` labels events carry, plus hostile ones.
const LABELS: [&str; 5] = ["read", "downshift", "info", "a\"b\\c", "tab\there é"];

fn label() -> impl Strategy<Value = &'static str> {
    (0usize..LABELS.len()).prop_map(|i| LABELS[i])
}

/// One of every `Event` variant, filled from the sampled fields.
fn every_variant(
    (t, a, b, c): (f64, f64, f64, f64),
    (id, n, m): (u64, u64, u64),
    (drive, device, gated): (usize, u32, bool),
    (kind, message): (&'static str, String),
) -> Vec<TimedEvent> {
    let events = vec![
        Event::RequestIssue {
            id,
            device,
            lba: n,
            sectors: device,
            kind,
        },
        Event::RequestComplete {
            id,
            start: a,
            response_ms: b,
        },
        Event::RpmTransition {
            drive,
            from: a,
            to: b,
        },
        Event::CoordinatorAction {
            drive,
            action: kind,
        },
        Event::RoutingDecision { request: id, drive },
        Event::SensorReading {
            drive,
            sensed_c: a,
            actual_c: c,
        },
        Event::Snapshot {
            drive,
            air_c: a,
            ambient_c: b,
            queue: n,
            util: c,
            duty: t,
            rpm: a,
            gated,
        },
        Event::DriveFailed {
            enclosure: drive,
            disk: device,
        },
        Event::RebuildProgress {
            enclosure: drive,
            done: n,
            total: m,
        },
        Event::CoolingExcursion {
            lo: drive,
            hi: drive / 2,
            delta_c: c,
        },
        Event::TrafficPhase { factor: b },
        Event::Log {
            level: kind,
            message,
        },
    ];
    events
        .into_iter()
        .map(|event| TimedEvent { t, event })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_event_variant_encodes_like_the_value_tree(
        floats in (edge_f64(), edge_f64(), edge_f64(), edge_f64()),
        ints in (edge_u64(), edge_u64(), edge_u64()),
        small in (edge_usize(), any::<u32>(), any::<bool>()),
        text in (label(), message()),
    ) {
        let events = every_variant(floats, ints, small, text);
        prop_assert_eq!(events.len(), 12);
        let mut recorder = NdjsonRecorder::new(Vec::new());
        let mut expected = String::new();
        for e in &events {
            let tree = serde::ser::to_compact(&e.to_value());
            prop_assert_eq!(serde_json::to_string(e).unwrap(), tree.clone());
            recorder.record(e);
            expected.push_str(&tree);
            expected.push('\n');
        }
        let written = recorder.into_inner().expect("a Vec takes every byte");
        prop_assert_eq!(String::from_utf8(written).unwrap(), expected);
    }
}
