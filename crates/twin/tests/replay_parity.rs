//! Trace-replay parity: an MSR-Cambridge trace written out, read back,
//! and replayed must drive a batch fleet (through the scenario driver)
//! and a live twin identically — the two event streams are
//! byte-identical NDJSON, with and without an injection schedule.

use diskfleet::{EnclosureArray, Fleet, FleetConfig, RebuildSpec};
use diskscenario::{run_scenario, ArrivalSource, CoolingScope, Injection, Scenario, ScenarioEngine};
use disksim::{DiskSpec, Request, RequestKind};
use diskthermal::DriveThermalSpec;
use disktwin::{Twin, TwinConfig};
use units::{Inches, Rpm, Seconds};
use workloads::{read_msr_trace, write_msr_trace};

const ENCLOSURES: usize = 4;
const EPOCHS: u64 = 6;

/// A small synthetic recording, round-tripped through the MSR CSV
/// format so the parity run exercises the real parser.
fn msr_trace() -> Vec<Request> {
    // Arrivals sit exactly on 100-ns MSR ticks so the CSV round-trip
    // is bit-exact (the format quantizes to FILETIME ticks).
    let recorded: Vec<Request> = (0..400u64)
        .map(|i| {
            Request::new(
                i,
                Seconds::new((i * 110_000) as f64 * 1e-7),
                0,
                (i * 37_199) % (1 << 22),
                if i % 5 == 0 { 64 } else { 8 },
                if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
            )
        })
        .collect();
    let mut csv = Vec::new();
    write_msr_trace(&mut csv, &recorded, "src1").expect("write msr");
    let replayed = read_msr_trace(csv.as_slice()).expect("read msr");
    assert_eq!(recorded, replayed, "the CSV round-trip is exact");
    replayed
}

fn ndjson(sink: &mut diskobs::Sink) -> String {
    let mut events = Vec::new();
    sink.drain_into(&mut events);
    events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap() + "\n")
        .collect()
}

/// Replays the MSR trace through a batch fleet stepped by
/// `run_scenario` under `scenario`, and through a twin with the same
/// bays, with the schedule installed by `Twin::set_scenario` when it is
/// non-empty. Returns the two NDJSON event streams.
fn fleet_and_twin_streams(array: Option<EnclosureArray>, scenario: Scenario) -> (String, String) {
    let trace = msr_trace();
    let spec = DiskSpec::era(2002, 1, Rpm::new(15_020.0));
    let thermal = DriveThermalSpec::new(Inches::new(3.3), 1);

    // Batch path: a fleet stepped by the scenario driver.
    let mut config = FleetConfig::serial(ENCLOSURES, spec.clone(), thermal, 10.0)
        .expect("fleet config");
    config.routing = diskfleet::RoutingPolicy::ThermalAware {
        envelope: diskthermal::THERMAL_ENVELOPE,
    };
    config.array = array;
    let mut fleet = Fleet::new(config).expect("fleet builds");
    let mut source = ArrivalSource::replay(trace.clone()).expect("replay source");
    let mut engine = ScenarioEngine::new(scenario.clone());
    let mut fleet_sink = diskobs::Sink::buffer();
    let mut samples = Vec::new();
    run_scenario(
        &mut fleet,
        &mut source,
        &mut engine,
        EPOCHS,
        &mut fleet_sink,
        &mut samples,
    )
    .expect("fleet run");

    // Twin path: the same recording through Twin::with_source. The
    // preset only shapes the fleet; spec/thermal/stream are overridden
    // to match the batch fleet exactly.
    let mut twin_cfg = TwinConfig::preset(workloads::oltp(), ENCLOSURES);
    twin_cfg.spec = spec;
    twin_cfg.thermal = thermal;
    twin_cfg.stream_w_per_k = 10.0;
    twin_cfg.array = array;
    let twin_source = ArrivalSource::replay(trace).expect("replay source");
    let mut twin = Twin::with_source(twin_cfg, twin_source).expect("twin builds");
    if scenario != Scenario::new() {
        twin.set_scenario(scenario);
    }
    let mut twin_sink = diskobs::Sink::buffer();
    for _ in 0..EPOCHS {
        twin.advance_epoch_with_sink(&mut twin_sink).expect("advance");
    }

    (ndjson(&mut fleet_sink), ndjson(&mut twin_sink))
}

#[test]
fn msr_replay_drives_fleet_and_twin_identically() {
    let (fleet_events, twin_events) = fleet_and_twin_streams(None, Scenario::new());
    assert!(
        fleet_events.contains("RequestComplete"),
        "the replay actually produced traffic"
    );
    assert_eq!(
        fleet_events, twin_events,
        "fleet and twin event streams must be byte-identical"
    );
}

#[test]
fn msr_replay_with_a_schedule_drives_fleet_and_twin_identically() {
    // RAID-5 bays, one member failing mid-run (a rebuild storm follows)
    // and a ramped inlet excursion on two of the four bays.
    let scenario = Scenario::new()
        .with(Injection::DriveFailure {
            at_epoch: 2,
            enclosure: 1,
            disk: 0,
            rebuild: RebuildSpec::default(),
        })
        .with(Injection::CoolingEvent {
            at_epoch: 1,
            duration_epochs: 4,
            ramp_epochs: 2,
            delta_c: 6.0,
            scope: CoolingScope::Enclosures { lo: 2, hi: 4 },
        });
    let array = EnclosureArray {
        disks: 4,
        stripe_sectors: 65_536,
    };
    let (fleet_events, twin_events) = fleet_and_twin_streams(Some(array), scenario);
    for fired in ["RequestComplete", "DriveFailed", "RebuildProgress", "CoolingExcursion"] {
        assert!(fleet_events.contains(fired), "the scheduled run emits {fired}");
    }
    assert_eq!(
        fleet_events, twin_events,
        "fleet and twin event streams must be byte-identical under a schedule"
    );
}
