//! Cross-shard determinism and end-to-end behavior of the scenario
//! engine: a perturbed run (failure + cooling + traffic) must be
//! byte-identical at any shard count, and the perturbations must
//! actually move the physics.

use diskfleet::{EnclosureArray, Fleet, FleetConfig, RebuildSpec};
use diskscenario::{
    run_scenario, ArrivalSource, CoolingScope, EpochSample, Injection, Scenario, ScenarioEngine,
};
use disksim::DiskSpec;
use diskthermal::DriveThermalSpec;
use units::{Inches, Rpm};
use workloads::{AccessProfile, ArrivalModel, SizeModel, TraceGenerator};

const ENCLOSURES: usize = 8;
const EPOCHS: u64 = 16;

fn fleet(threads: usize) -> Fleet {
    let mut config = FleetConfig::serial(
        ENCLOSURES,
        DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
        DriveThermalSpec::new(Inches::new(2.6), 1),
        12.0,
    )
    .unwrap();
    config.array = Some(EnclosureArray {
        disks: 3,
        stripe_sectors: 65_536,
    });
    config.threads = threads;
    Fleet::new(config).unwrap()
}

fn source() -> ArrivalSource {
    let profile = AccessProfile {
        read_fraction: 0.7,
        sequential_fraction: 0.2,
        size: SizeModel::Fixed(16),
        hot_regions: 64,
        zipf_theta: 0.9,
    };
    let gen = TraceGenerator::new(profile, ArrivalModel::Poisson { rate: 400.0 }, 1, 1 << 22)
        .unwrap();
    ArrivalSource::Synthetic(gen.stream(97))
}

fn storm_scenario() -> Scenario {
    Scenario::new()
        .with(Injection::DriveFailure {
            at_epoch: 3,
            enclosure: 2,
            disk: 1,
            rebuild: RebuildSpec {
                rate_sectors_per_sec: 500_000.0,
                chunk_sectors: 4_096,
            },
        })
        .with(Injection::CoolingEvent {
            at_epoch: 5,
            duration_epochs: 6,
            ramp_epochs: 2,
            delta_c: 6.0,
            scope: CoolingScope::Enclosures { lo: 4, hi: 8 },
        })
        .with(Injection::TrafficShape {
            diurnal_period_epochs: 8,
            diurnal_amplitude: 0.4,
            flash_at_epoch: Some(10),
            flash_epochs: 3,
            flash_factor: 2.5,
        })
}

fn run_at(threads: usize) -> (Vec<EpochSample>, String, String) {
    let mut fleet = fleet(threads);
    let mut src = source();
    let mut engine = ScenarioEngine::new(storm_scenario());
    let mut sink = diskobs::Sink::buffer();
    let mut samples = Vec::new();
    run_scenario(&mut fleet, &mut src, &mut engine, EPOCHS, &mut sink, &mut samples).unwrap();
    let mut events = Vec::new();
    sink.drain_into(&mut events);
    let ndjson: String = events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap() + "\n")
        .collect();
    let report = serde_json::to_string(&fleet.report()).unwrap();
    (samples, ndjson, report)
}

#[test]
fn perturbed_run_is_byte_identical_at_any_shard_count() {
    let (s1, n1, r1) = run_at(1);
    for threads in [3, 8] {
        let (s, n, r) = run_at(threads);
        assert_eq!(s1, s, "samples diverge at {threads} shards");
        assert_eq!(n1, n, "event stream diverges at {threads} shards");
        assert_eq!(r1, r, "report diverges at {threads} shards");
    }
}

#[test]
fn injections_actually_perturb_the_run() {
    let (samples, ndjson, _) = run_at(4);

    // The rebuild storm starts at epoch 3 and makes progress.
    assert_eq!(samples[2].rebuild_total, 0);
    assert!(samples[3].rebuild_total > 0);
    assert!(
        samples[EPOCHS as usize - 1].rebuild_done > samples[3].rebuild_done,
        "rebuild advances epoch over epoch"
    );

    // The cooling excursion heats the scoped bays and then recovers:
    // peak local ambient during the hold exceeds both before and after.
    let before = samples[4].peak_ambient_c;
    let during = samples[7].peak_ambient_c;
    let after = samples[EPOCHS as usize - 1].peak_ambient_c;
    assert!(during > before + 4.0, "excursion heats the row ({before} -> {during})");
    assert!(during > after, "bias clears after the excursion ({during} -> {after})");

    // Traffic shaping moved the factor off 1 and through the flash.
    assert!((samples[0].traffic_factor - 1.0).abs() < 1e-12);
    assert!(samples[11].traffic_factor > 2.0, "flash crowd in force");

    // The boundary events landed in the stream.
    for needle in [
        "\"DriveFailed\"",
        "\"RebuildProgress\"",
        "\"CoolingExcursion\"",
        "\"TrafficPhase\"",
    ] {
        assert!(ndjson.contains(needle), "missing {needle} in event stream");
    }
}

#[test]
fn failure_injections_surface_fleet_errors() {
    let mut fleet = fleet(1);
    let mut src = source();
    let scenario = Scenario::new().with(Injection::DriveFailure {
        at_epoch: 0,
        enclosure: 99,
        disk: 0,
        rebuild: RebuildSpec::default(),
    });
    let mut engine = ScenarioEngine::new(scenario);
    let mut samples = Vec::new();
    let err = run_scenario(
        &mut fleet,
        &mut src,
        &mut engine,
        2,
        &mut diskobs::Sink::null(),
        &mut samples,
    )
    .unwrap_err();
    assert!(err.to_string().contains("enclosure 99"));
}
