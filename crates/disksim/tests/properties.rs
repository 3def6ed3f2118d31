//! Property-based tests for the storage-system engine.

use disksim::{
    ArrivalQueue, DiskSpec, Request, RequestKind, Scheduler, StorageSystem, SystemConfig,
    TimeKey,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use units::{Rpm, Seconds};

/// A random but valid request stream against a known capacity.
fn request_stream(
    capacity: u64,
    max_len: usize,
) -> impl Strategy<Value = Vec<(f64, u64, u16, bool)>> {
    prop::collection::vec(
        (
            0.0f64..10_000.0,          // arrival ms
            0u64..capacity - 256,      // lba
            1u16..128,                 // sectors
            any::<bool>(),             // read?
        ),
        1..max_len,
    )
}

fn build_requests(raw: &[(f64, u64, u16, bool)]) -> Vec<Request> {
    raw.iter()
        .enumerate()
        .map(|(i, &(ms, lba, sectors, read))| {
            Request::new(
                i as u64,
                Seconds::from_millis(ms),
                0,
                lba,
                sectors as u32,
                if read { RequestKind::Read } else { RequestKind::Write },
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_no_loss_no_duplication(
        raw in request_stream(10_000_000, 120),
        scheduler in prop_oneof![
            Just(Scheduler::Fcfs),
            Just(Scheduler::Sstf),
            Just(Scheduler::Elevator)
        ],
    ) {
        let cfg = SystemConfig::single_disk(DiskSpec::era_2001(Rpm::new(10_000.0)))
            .with_scheduler(scheduler);
        let mut sys = StorageSystem::new(cfg).unwrap();
        let reqs = build_requests(&raw);
        for r in &reqs {
            sys.submit(*r).unwrap();
        }
        let done = sys.drain();
        prop_assert_eq!(done.len(), reqs.len());
        let mut ids: Vec<u64> = done.iter().map(|c| c.request.id).collect();
        ids.sort_unstable();
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(i as u64, *id);
        }
    }

    #[test]
    fn causality_and_positivity(raw in request_stream(10_000_000, 80)) {
        let mut sys = StorageSystem::new(SystemConfig::single_disk(
            DiskSpec::era_2001(Rpm::new(15_000.0)),
        ))
        .unwrap();
        for r in build_requests(&raw) {
            sys.submit(r).unwrap();
        }
        for c in sys.drain() {
            prop_assert!(c.start >= c.request.arrival);
            prop_assert!(c.finish > c.start);
        }
    }

    #[test]
    fn raid5_conserves_requests(raw in request_stream(20_000_000, 60)) {
        let cfg = SystemConfig::raid5(DiskSpec::era_2001(Rpm::new(10_000.0)), 5, 16).unwrap();
        let mut sys = StorageSystem::new(cfg).unwrap();
        let reqs = build_requests(&raw);
        for r in &reqs {
            sys.submit(*r).unwrap();
        }
        let done = sys.drain();
        prop_assert_eq!(done.len(), reqs.len());
        prop_assert_eq!(sys.in_flight(), 0);
    }

    #[test]
    fn incremental_advance_equals_drain(raw in request_stream(10_000_000, 60)) {
        let make = || {
            let mut sys = StorageSystem::new(SystemConfig::single_disk(
                DiskSpec::era_2001(Rpm::new(10_000.0)),
            ))
            .unwrap();
            for r in build_requests(&raw) {
                sys.submit(r).unwrap();
            }
            sys
        };

        let mut oneshot = make();
        let mut all = oneshot.drain();

        let mut stepped = make();
        let mut collected = Vec::new();
        let mut t = 0.0;
        while stepped.next_event_time().is_some() {
            t += 500.0; // 0.5 s slabs
            collected.extend(stepped.advance_to(Seconds::from_millis(t)));
            if t > 1e7 {
                break;
            }
        }
        collected.extend(stepped.drain());

        let key = |c: &disksim::Completion| (c.request.id, c.finish.get().to_bits());
        all.sort_by_key(key);
        collected.sort_by_key(key);
        prop_assert_eq!(all.len(), collected.len());
        for (a, b) in all.iter().zip(&collected) {
            prop_assert_eq!(a.request.id, b.request.id);
            prop_assert!((a.finish.get() - b.finish.get()).abs() < 1e-9);
        }
    }

    #[test]
    fn utilization_never_exceeds_elapsed_time(raw in request_stream(10_000_000, 80)) {
        let mut sys = StorageSystem::new(SystemConfig::single_disk(
            DiskSpec::era_2001(Rpm::new(10_000.0)),
        ))
        .unwrap();
        for r in build_requests(&raw) {
            sys.submit(r).unwrap();
        }
        let _ = sys.drain();
        let clock = sys.clock().get();
        for d in sys.disks() {
            prop_assert!(d.busy_time().get() <= clock + 1e-9);
            prop_assert!(d.seek_time() <= d.busy_time());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The arrival queue pops exactly what a `BinaryHeap<Reverse<_>>`
    // pops: for any interleaving of pushes and pops — including exact
    // ties, far-future and out-of-order keys, negative times, both
    // zeros, and the non-finite values `f64::total_cmp` must order —
    // both structures pop the identical sequence of keys and payloads.
    // Midway the queue goes through a checkpoint round trip, once with
    // its entries in order and once scrambled, and must carry on
    // popping the heap's sequence. Bit-level comparison, because a
    // derived `PartialEq` would call NaN unequal to itself.
    #[test]
    fn calendar_queue_pops_match_binary_heap(
        ops in prop::collection::vec((0u8..4, event_time()), 1..300),
        rebuild_at in any::<usize>(),
        shuffle_at in any::<usize>(),
        shuffle_seed in any::<u64>(),
    ) {
        let mut cal: ArrivalQueue<u32> = ArrivalQueue::new();
        let mut heap: BinaryHeap<Reverse<(TimeKey, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, &(op, t)) in ops.iter().enumerate() {
            if i == rebuild_at % ops.len() {
                cal = ArrivalQueue::from_sorted_entries(cal.sorted_entries());
            }
            if i == shuffle_at % ops.len() {
                let mut entries = cal.sorted_entries();
                entries.sort_by_key(|(k, _)| {
                    (k.seq() ^ shuffle_seed).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                });
                cal = ArrivalQueue::from_sorted_entries(entries);
            }
            prop_assert_eq!(
                cal.peek().map(|k| (k.time().to_bits(), k.seq())),
                heap.peek().map(|Reverse((k, _))| (k.time().to_bits(), k.seq()))
            );
            if op == 0 {
                let a = cal.pop();
                let b = heap.pop().map(|Reverse(x)| x);
                match (a, b) {
                    (None, None) => {}
                    (Some((ka, va)), Some((kb, vb))) => {
                        prop_assert_eq!(ka.time().to_bits(), kb.time().to_bits());
                        prop_assert_eq!(ka.seq(), kb.seq());
                        prop_assert_eq!(va, vb);
                    }
                    (a, b) => prop_assert!(false, "emptiness diverged: {a:?} vs {b:?}"),
                }
            } else {
                let key = TimeKey::new(t, seq);
                cal.push(key, seq as u32);
                heap.push(Reverse((key, seq as u32)));
                seq += 1;
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        while let Some((ka, va)) = cal.pop() {
            let Reverse((kb, vb)) = heap.pop().expect("lengths agreed");
            prop_assert_eq!(ka.time().to_bits(), kb.time().to_bits());
            prop_assert_eq!(ka.seq(), kb.seq());
            prop_assert_eq!(va, vb);
        }
        prop_assert!(heap.pop().is_none());
    }

    // The fleet's epoch boundary orders its per-enclosure runs by
    // sorting (time key, run, position) entries instead of stable-sorting
    // the events themselves. The two must agree byte-for-byte —
    // including exact ties (same `t` in different runs must keep
    // earlier-run-first order) and empty runs.
    #[test]
    fn kway_merge_equals_global_stable_sort(
        raw in prop::collection::vec(prop::collection::vec(0u8..6, 0..40), 0..9),
    ) {
        // Times on a coarse grid so exact cross-run ties are common;
        // payloads record (run, slot) to make tie order observable.
        let runs: Vec<Vec<(f64, usize, usize)>> = raw
            .iter()
            .enumerate()
            .map(|(run, times)| {
                let mut ts = times.clone();
                ts.sort_unstable();
                ts.iter()
                    .enumerate()
                    .map(|(slot, &t)| (f64::from(t) * 0.125, run, slot))
                    .collect()
            })
            .collect();
        let mut expected: Vec<(f64, usize, usize)> = runs.concat();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0)); // the old global stable sort
        let mut got = Vec::with_capacity(expected.len());
        let key = |e: &(f64, usize, usize)| disksim::par::total_order_key(e.0);
        let run = |r: usize| runs[r].as_slice();
        disksim::par::merge_runs_by(runs.len(), run, key, &mut Vec::new(), |e| got.push(*e));
        prop_assert_eq!(got, expected);
    }

    // Events with byte-identical times leave the queue in submission
    // (sequence) order — the determinism guarantee the simulator's
    // tie-breaking rests on — whatever the time value, NaN included.
    #[test]
    fn exact_ties_pop_in_submission_order(t in event_time(), n in 1u64..64) {
        let mut cal = ArrivalQueue::new();
        for i in 0..n {
            cal.push(TimeKey::new(t, i), i);
        }
        for i in 0..n {
            let (key, val) = cal.pop().expect("queue holds n events");
            prop_assert_eq!(key.time().to_bits(), t.to_bits());
            prop_assert_eq!(key.seq(), i);
            prop_assert_eq!(val, i);
        }
        prop_assert!(cal.pop().is_none());
    }
}

/// Times that stress the arrival queue: dense near-term arrivals, a
/// coarse grid of exact multiples (tie candidates), negatives,
/// far-future keys, and the special values whose ordering only
/// `total_cmp` defines.
fn event_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..30.0,
        0.0f64..30.0,
        (0u32..64).prop_map(|i| f64::from(i) * 0.005),
        -10.0f64..0.0,
        1.0e3f64..1.0e9,
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MAX),
            Just(-1.0e300),
        ],
    ]
}
