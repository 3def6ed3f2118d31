//! The allocation budget of the steady-state hot path is zero.
//!
//! The event core keeps every per-window buffer — arrival queue,
//! request slab, parent slab, completion batches, thermal scratch —
//! alive across calls, so once the structures have grown to the
//! workload's high-water mark, serving another window must not touch
//! the heap at all. This test pins that property with a
//! counting global allocator: warm a RAID-5 storage system through two
//! simulated minutes, then assert that a long run of further windows
//! performs **zero** heap allocations. A second subject pins the
//! fleet's untraced epoch — every bay's windows, thermal steps and
//! folds, the airflow reduces and the coordinator — on a one-bay fleet
//! and on a small hall to the same budget. A third subject pins the surrogate training
//! sweep's per-point target reduction (`disklab::sweep::reduce_targets`)
//! to the same budget, a fourth pins NDJSON trace recording:
//! `NdjsonRecorder` renders events into a batch buffer sized once when
//! it is built and hands the writer whole batches without touching the
//! heap. A fifth pins `StorageSystem::restore_state`, which hands
//! the captured buffers and the owner's configuration (its shared disk spec included) to the rebuilt
//! system and allocates nothing. A sixth pins the traced fleet epoch:
//! a small RAID-5 fleet recording every event as NDJSON keeps its
//! drives' event buffers, its per-bay and routing runs, the merge's
//! entries and the recorder's batch across epochs, so once they have
//! grown an epoch allocates nothing either.
//!
//! Everything lives in one `#[test]` function: the counter is global,
//! and the test harness runs sibling tests on other threads, which
//! would otherwise charge their allocations to this budget.

use diskfleet::{
    AirflowGraph, EnclosureArray, Fleet, FleetConfig, FleetDtmPolicy, FleetPhaseProfile,
};
use disksim::{Completion, DiskSpec, Request, RequestKind, StorageSystem, SystemConfig};
use diskthermal::DriveThermalSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use units::{Celsius, Inches, Rpm, Seconds, TempDelta};

/// Forwards to the system allocator, counting every `alloc`/`realloc`.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations since process start.
fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A steady mixed read/write stream striding the address space.
fn trace(requests: u64, rate: f64, capacity: u64) -> Vec<Request> {
    (0..requests)
        .map(|i| {
            Request::new(
                i,
                Seconds::new(i as f64 / rate),
                0,
                i.wrapping_mul(7_777_777) % (capacity - 256),
                8,
                if i % 4 == 0 {
                    RequestKind::Write
                } else {
                    RequestKind::Read
                },
            )
        })
        .collect()
}

/// Control-window width of the first subject (the fleet default).
const WINDOW: f64 = 0.25;
/// Warm-up windows: two minutes of simulated time. The queues and
/// slabs grow to a *workload-dependent* high-water mark, and a long
/// warm-up lets every one of them see its worst case before the
/// measurement starts.
const WARM_WINDOWS: u64 = 480;
/// Windows served under the zero-allocation assertion.
const MEASURED_WINDOWS: u64 = 40;

/// Runs `count` windows of admit + advance against `sys`, starting at
/// global window index `first`. Returns the next window index.
fn run_windows(
    sys: &mut StorageSystem,
    pending: &mut VecDeque<Request>,
    out: &mut Vec<Completion>,
    first: u64,
    count: u64,
) -> u64 {
    for w in first..first + count {
        let end = Seconds::new((w + 1) as f64 * WINDOW);
        while let Some(front) = pending.front() {
            if front.arrival > end {
                break;
            }
            let r = *front;
            pending.pop_front();
            sys.submit(r).expect("trace is in range");
        }
        out.clear();
        sys.advance_to_into(end, out);
    }
    first + count
}

#[test]
fn steady_state_windows_allocate_nothing() {
    let spec = DiskSpec::era(2002, 1, Rpm::new(15_020.0));

    // --- Subject 1: RAID-5 array (parity fan-out, slab, arrival queue). ---
    let mut sys = StorageSystem::new(
        SystemConfig::raid5(spec.clone(), 4, 64).expect("valid raid5 config"),
    )
    .expect("valid system");
    let capacity = sys.logical_sectors();
    let total = WARM_WINDOWS + MEASURED_WINDOWS + 8;
    let rate = 50.0;
    let requests = (total as f64 * WINDOW * rate) as u64 + 64;
    let mut pending: VecDeque<Request> = trace(requests, rate, capacity).into();
    // Caller-owned scratch: generous up-front capacity, like any
    // long-lived driver would hold.
    let mut out: Vec<Completion> = Vec::with_capacity(4_096);

    let next = run_windows(&mut sys, &mut pending, &mut out, 0, WARM_WINDOWS);
    let before = allocations();
    run_windows(&mut sys, &mut pending, &mut out, next, MEASURED_WINDOWS);
    let raid_allocs = allocations() - before;
    assert_eq!(
        raid_allocs, 0,
        "RAID-5 window loop allocated {raid_allocs} times in steady state"
    );

    // --- Subject 2: the fleet's untraced epoch. ---
    // A one-bay fleet runs the flat-graph airflow reduce, a hall of two
    // rows of two 4-drive racks the per-rack reduces; both under speed
    // scaling, as the hall experiments run. Every epoch buffer is kept
    // across epochs, so once the queues, slabs and histograms have
    // reached the workload's high-water mark, an epoch allocates
    // nothing. A bay's response-time histogram grows its bucket span
    // whenever a response lands outside every earlier one, so the warm-up
    // runs eight simulated minutes: after four, the hall's bays still
    // widened their spans three times in the next 40 epochs. The whole
    // stream is offered up front.
    let thermal = DriveThermalSpec::new(Inches::new(2.6), 1);
    let one_bay = FleetConfig::serial(1, spec.clone(), thermal, 10.0).expect("one bay");
    let mut hall = FleetConfig::serial(16, spec.clone(), thermal, 10.0).expect("16 bays");
    hall.airflow =
        AirflowGraph::hall(16, 4, 2, thermal.ambient(), 0.05, 0.01, 0.004).expect("valid hall");
    let warm_epochs = 480;
    let measured_epochs = MEASURED_WINDOWS;
    for (label, mut config) in [("one-bay fleet", one_bay), ("hall", hall)] {
        config.dtm = FleetDtmPolicy::SpeedScale {
            high: Rpm::new(15_020.0),
            low: Rpm::new(12_000.0),
            guard: TempDelta::new(0.3),
            resume_margin: TempDelta::new(0.3),
        };
        let bays = config.airflow.len() as f64;
        let mut fleet = Fleet::new(config).expect("valid fleet");
        let span = (warm_epochs + measured_epochs + 2) as f64 * fleet.epoch_len().get();
        let fleet_rate = rate * bays;
        fleet.offer(trace((span * fleet_rate) as u64, fleet_rate, capacity));
        let mut sink = diskobs::Sink::null();
        let mut profile = FleetPhaseProfile::default();
        for _ in 0..warm_epochs {
            fleet.step_epoch(&mut sink, &mut profile);
        }
        let before = allocations();
        for _ in 0..measured_epochs {
            fleet.step_epoch(&mut sink, &mut profile);
        }
        let fleet_allocs = allocations() - before;
        assert_eq!(
            fleet_allocs, 0,
            "{label}: untraced Fleet::step_epoch allocated {fleet_allocs} times in steady state"
        );
        assert!(
            fleet.peak_air() > Celsius::new(28.0),
            "{label}: the served load heats the drives"
        );
    }

    // --- Subject 3: the capacity sweep's per-point target reduction. ---
    // The surrogate training sweep reduces every fleet report to its
    // target values — mean, p50 and p95 read off the response-time
    // histogram, plus the thermal and DTM gauges — in a fixed-size
    // array, so reducing a report must not touch the heap. (The fleet
    // simulation producing the report, and naming the values for a
    // `TrainingSample`, allocate by design and stay outside the
    // measured region.)
    let spec = disklab::sweep::SweepSpec {
        preset: "oltp".into(),
        rows: 1,
        requests: 200,
        seed: 7,
        rates: vec![200.0],
        per_rack: vec![4.0],
        racks_per_row: vec![2.0],
        inlets_c: vec![28.0],
        dtm: vec![0.0],
    };
    let report = spec
        .simulate(&[200.0, 4.0, 2.0, 28.0, 0.0], &mut Vec::new())
        .expect("sweep point simulates");
    let before = allocations();
    let mut targets = [0.0; disklab::sweep::TARGETS.len()];
    for _ in 0..64 {
        targets = std::hint::black_box(disklab::sweep::reduce_targets(&report));
    }
    let sweep_allocs = allocations() - before;
    assert_eq!(
        sweep_allocs, 0,
        "sweep target reduction allocated {sweep_allocs} times in steady state"
    );
    assert!(
        targets.iter().all(|v| v.is_finite()),
        "reduced targets stay finite"
    );

    // --- Subject 4: NDJSON recording. ---
    // Every event renders straight into the recorder's batch buffer (no
    // value tree, no per-event `String`), which the recorder sizes when
    // it is built, and a full batch reaches the writer in one
    // `write_all`. The events are built up front — their construction
    // is the producer's cost, not the recorder's — and the 768 lines
    // measured fill the 64 KiB batch more than once.
    use diskobs::{Event, NdjsonRecorder, Recorder, TimedEvent};
    let mix: Vec<TimedEvent> = [
        Event::RequestIssue {
            id: 1 << 40,
            device: 3,
            lba: 987_654_321,
            sectors: 64,
            kind: "write",
        },
        Event::RequestComplete {
            id: 17,
            start: 12.345_678_901,
            response_ms: 7.25,
        },
        Event::RpmTransition {
            drive: 5,
            from: 15_020.0,
            to: 12_000.0,
        },
        Event::CoordinatorAction {
            drive: 9,
            action: "downshift",
        },
        Event::RoutingDecision {
            request: u64::MAX,
            drive: 63,
        },
        Event::SensorReading {
            drive: 0,
            sensed_c: f64::NAN,
            actual_c: 44.712_345_678_9,
        },
        Event::Snapshot {
            drive: 1_023,
            air_c: 43.219_876_543_21,
            ambient_c: -0.0,
            queue: 12,
            util: 0.123_456_789_012_345_6,
            duty: 5e-324,
            rpm: 26_750.0,
            gated: true,
        },
        Event::DriveFailed {
            enclosure: 4,
            disk: 1,
        },
        Event::RebuildProgress {
            enclosure: 4,
            done: 65_536,
            total: 1 << 33,
        },
        Event::CoolingExcursion {
            lo: 0,
            hi: 16,
            delta_c: 3.0,
        },
        Event::TrafficPhase { factor: 1e17 },
        Event::Log {
            level: "info",
            message: "epoch \"7\" \\ done\t\u{1} é".into(),
        },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, event)| TimedEvent {
        t: 0.25 * i as f64 + 1e-3,
        event,
    })
    .collect();
    let mix_bytes: usize = mix
        .iter()
        .map(|e| serde_json::to_string(e).expect("events render").len() + 1)
        .sum();
    assert!(64 * mix_bytes > 64 * 1024, "the measured lines fill a batch");
    let mut recorder = NdjsonRecorder::new(std::io::sink());
    let before = allocations();
    for _ in 0..64 {
        for e in &mix {
            recorder.record(e);
        }
    }
    let ndjson_allocs = allocations() - before;
    assert_eq!(
        ndjson_allocs, 0,
        "NDJSON recording allocated {ndjson_allocs} times in steady state"
    );
    assert_eq!(recorder.lines(), 64 * mix.len() as u64);
    assert!(recorder.error().is_none());

    // --- Subject 5: restoring a checkpointed storage system. ---
    // Capture a RAID-5 system between windows, with the next window's
    // arrivals admitted but not yet served, then restore it: the
    // arrival queue takes over the captured entry list's buffer and
    // every other field moves in as captured.
    let config = SystemConfig::raid5(DiskSpec::era(2002, 1, Rpm::new(15_020.0)), 4, 64)
        .expect("valid raid5 config");
    let mut sys = StorageSystem::new(config.clone()).expect("valid system");
    let mut pending: VecDeque<Request> = trace(requests, rate, sys.logical_sectors()).into();
    let next = run_windows(&mut sys, &mut pending, &mut out, 0, 8);
    let end = Seconds::new((next + 1) as f64 * WINDOW);
    while let Some(&r) = pending.front().filter(|r| r.arrival <= end) {
        pending.pop_front();
        sys.submit(r).expect("trace is in range");
    }
    let state = sys.capture_state();
    let before = allocations();
    let restored =
        StorageSystem::restore_state(config, state).expect("captured state is consistent");
    let restore_allocs = allocations() - before;
    assert_eq!(
        restore_allocs, 0,
        "StorageSystem::restore_state allocated {restore_allocs} times"
    );
    assert_eq!(restored.in_flight(), sys.in_flight());
    assert!(
        sys.in_flight() > 0,
        "the captured state holds queued arrivals"
    );

    // --- Subject 6: the traced fleet epoch. ---
    // Four RAID-5 bays whose drives buffer every request issue and
    // completion, routed round-robin under speed scaling, with the
    // fleet's sink recording NDJSON into a discarding writer. Each
    // epoch drains the drives' buffers into the bays' runs, merges them
    // with the routing run into the recorder and clears them all with
    // their capacity kept. The warm-up matches Subject 2's.
    let mut config =
        FleetConfig::serial(4, DiskSpec::era(2002, 1, Rpm::new(15_020.0)), thermal, 10.0)
            .expect("four bays");
    config.array = Some(EnclosureArray {
        disks: 4,
        stripe_sectors: 64,
    });
    config.dtm = FleetDtmPolicy::SpeedScale {
        high: Rpm::new(15_020.0),
        low: Rpm::new(12_000.0),
        guard: TempDelta::new(0.3),
        resume_margin: TempDelta::new(0.3),
    };
    let mut fleet = Fleet::new(config).expect("valid fleet");
    let span = (warm_epochs + measured_epochs + 2) as f64 * fleet.epoch_len().get();
    let fleet_rate = rate * 4.0;
    fleet.offer(trace((span * fleet_rate) as u64, fleet_rate, capacity));
    fleet.enable_drive_sinks();
    let mut sink = diskobs::Sink::recorder(NdjsonRecorder::new(std::io::sink()));
    let mut profile = FleetPhaseProfile::default();
    for _ in 0..warm_epochs {
        fleet.step_epoch(&mut sink, &mut profile);
    }
    let before = allocations();
    for _ in 0..measured_epochs {
        fleet.step_epoch(&mut sink, &mut profile);
    }
    let traced_allocs = allocations() - before;
    assert_eq!(
        traced_allocs, 0,
        "traced Fleet::step_epoch allocated {traced_allocs} times in steady state"
    );
    assert!(
        fleet.report().stats.count() > 1_000,
        "the traced fleet served the stream"
    );
}
