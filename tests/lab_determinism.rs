//! Integration: the `lab` engine must be deterministic across thread
//! counts — running the full registry with one worker and with eight
//! workers has to produce byte-identical JSON payloads — and a repeat
//! run must be served entirely from the cache without changing a byte.

use disklab::{Engine, Scale};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// All `*.json` payloads in a results directory, except the manifest
/// (whose timing fields legitimately differ run to run).
fn payloads(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if name.ends_with(".json") && name != "manifest.json" {
            out.insert(name, fs::read(&path).unwrap());
        }
    }
    out
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("disklab-det-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn thread_count_does_not_change_results() {
    let dir1 = scratch("t1");
    let dir8 = scratch("t8");

    let summary1 = Engine::at(&dir1)
        .threads(1)
        .run(disklab::registry(Scale::Quick))
        .unwrap();
    let summary8 = Engine::at(&dir8)
        .threads(8)
        .run(disklab::registry(Scale::Quick))
        .unwrap();

    assert_eq!(summary1.manifest.threads, 1);
    assert_eq!(summary8.manifest.threads, 8);

    let files1 = payloads(&dir1);
    let files8 = payloads(&dir8);
    assert_eq!(
        files1.keys().collect::<Vec<_>>(),
        files8.keys().collect::<Vec<_>>(),
        "both runs must produce the same file set"
    );
    assert!(!files1.is_empty());
    for (name, bytes) in &files1 {
        assert_eq!(bytes, &files8[name], "{name} differs between 1 and 8 threads");
    }

    // Manifests must agree on everything except timings.
    let m1 = &summary1.manifest;
    let m8 = &summary8.manifest;
    assert_eq!(m1.crate_version, m8.crate_version);
    assert_eq!(m1.experiments.len(), m8.experiments.len());
    for (a, b) in m1.experiments.iter().zip(&m8.experiments) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.outputs, b.outputs);
    }

    // A repeat run over the same cache is all hits and changes nothing.
    let before = payloads(&dir8);
    let again = Engine::at(&dir8)
        .threads(8)
        .run(disklab::registry(Scale::Quick))
        .unwrap();
    assert_eq!(again.manifest.hits(), again.manifest.experiments.len());
    assert_eq!(again.manifest.misses(), 0);
    assert_eq!(before, payloads(&dir8));

    let _ = fs::remove_dir_all(&dir1);
    let _ = fs::remove_dir_all(&dir8);
}

#[test]
fn parallel_map_sweeps_match_serial_bitwise() {
    use diskthermal::{DriveThermalSpec, OperatingPoint, ThermalModel};

    // The same floating-point sweep through one worker and through many
    // must produce bitwise-identical numbers in the same order.
    let rpms: Vec<f64> = (0..64).map(|i| 10_000.0 + i as f64 * 137.0).collect();
    let air_for = |rpm: f64| {
        let model = ThermalModel::new(DriveThermalSpec::cheetah_15k3());
        model
            .steady_state(OperatingPoint::seeking(units::Rpm::new(rpm)))
            .air
            .get()
    };
    let serial = disklab::parallel_map(rpms.clone(), 1, air_for);
    let threaded = disklab::parallel_map(rpms, 8, air_for);
    let serial_bits: Vec<u64> = serial.iter().map(|x| x.to_bits()).collect();
    let threaded_bits: Vec<u64> = threaded.iter().map(|x| x.to_bits()).collect();
    assert_eq!(serial_bits, threaded_bits);

    // And the experiments whose sweeps run through `parallel_map` must
    // emit the same payloads and reports run over run.
    for name in ["figure3", "figure7"] {
        let exp = disklab::by_name(name, Scale::Full).unwrap();
        let one = exp.run().unwrap();
        let two = exp.run().unwrap();
        assert_eq!(one.text, two.text, "{name} report varies across runs");
        assert_eq!(one.json, two.json, "{name} payload varies across runs");
    }
}

#[test]
fn capacity_plan_is_byte_identical_at_any_parallelism() {
    use disklab::experiments::capacity_plan::CapacityPlan;
    use disklab::Experiment;

    // The two-stage planner sweeps, cross-validates, and verifies
    // through the work-stealing pool; its committed artifacts must not
    // depend on how many workers the pool ran.
    let mut serial = CapacityPlan::at_scale(Scale::Quick);
    serial.threads = 1;
    let mut wide = CapacityPlan::at_scale(Scale::Quick);
    wide.threads = 8;

    let one = serial.run().unwrap();
    let eight = wide.run().unwrap();
    assert_eq!(one.text, eight.text, "plan report varies with threads");
    assert_eq!(
        one.json.len(),
        eight.json.len(),
        "plan output count varies with threads"
    );
    for ((name1, payload1), (name8, payload8)) in one.json.iter().zip(&eight.json) {
        assert_eq!(name1, name8);
        let bytes1 = serde_json::to_string(payload1).unwrap();
        let bytes8 = serde_json::to_string(payload8).unwrap();
        assert_eq!(bytes1, bytes8, "{name1} differs between 1 and 8 workers");
    }
}

#[test]
fn fleet_shard_count_does_not_change_results() {
    use diskfleet::{Fleet, FleetConfig, FleetDtmPolicy, RoutingPolicy};
    use disksim::{DiskSpec, Request, RequestKind};
    use diskthermal::{DriveThermalSpec, THERMAL_ENVELOPE};
    use units::{Inches, Rpm, Seconds, TempDelta};

    // The fleet's sharded epoch loop must be byte-identical at any
    // shard count, with every coupling mechanism engaged: thermal-aware
    // routing, airflow preheat, and an actively scaling coordinator.
    let run = |threads: usize| {
        let mut config = FleetConfig::serial(
            6,
            DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
            DriveThermalSpec::new(Inches::new(2.6), 1),
            8.0,
        )
        .unwrap();
        config.threads = threads;
        config.routing = RoutingPolicy::ThermalAware {
            envelope: THERMAL_ENVELOPE,
        };
        config.dtm = FleetDtmPolicy::SpeedScale {
            high: Rpm::new(15_020.0),
            low: Rpm::new(12_000.0),
            guard: TempDelta::new(0.3),
            resume_margin: TempDelta::new(0.3),
        };
        let trace: Vec<Request> = (0..900u64)
            .map(|i| {
                Request::new(
                    i,
                    Seconds::new(i as f64 / 300.0),
                    0,
                    i.wrapping_mul(7_777_777),
                    8,
                    if i % 4 == 0 { RequestKind::Write } else { RequestKind::Read },
                )
            })
            .collect();
        serde_json::to_string(&Fleet::new(config).unwrap().run(trace).unwrap()).unwrap()
    };
    let serial = run(1);
    assert_eq!(serial, run(8), "fleet results differ between 1 and 8 shards");
}

#[test]
fn fleet_hall_payload_is_byte_identical_at_any_shard_count() {
    use disklab::experiments::fleet_hall::FleetHall;
    use disklab::Experiment;

    // The hall experiment exercises the hierarchical airflow reduce and
    // the rack-aligned pass-B chunking; its payload and report must not
    // depend on how many shards the epoch loop ran on.
    let at = |threads: usize| {
        let mut exp = FleetHall::at_scale(Scale::Quick);
        exp.threads = threads;
        exp.run().unwrap()
    };
    let one = at(1);
    for threads in [3, 8] {
        let many = at(threads);
        assert_eq!(one.text, many.text, "report differs at {threads} shards");
        assert_eq!(one.json, many.json, "payload differs at {threads} shards");
    }
}

#[test]
fn scenario_rebuild_is_byte_identical_at_any_shard_count() {
    use disklab::experiments::scenario_rebuild::ScenarioRebuild;
    use disklab::Experiment;

    // The rebuild storm drives every scenario mechanism — epoch-boundary
    // failure injection, degraded reads fanning across the survivors,
    // background rebuild I/O — through the sharded epoch loop. Payload,
    // report, and the attached CSV timeseries must not depend on the
    // shard count.
    let at = |threads: usize| {
        let mut exp = ScenarioRebuild::at_scale(Scale::Quick);
        exp.threads = threads;
        exp.run().unwrap()
    };
    let one = at(1);
    for threads in [4, 8] {
        let many = at(threads);
        assert_eq!(one.text, many.text, "report differs at {threads} shards");
        assert_eq!(one.json, many.json, "payload differs at {threads} shards");
        assert_eq!(one.files, many.files, "csv differs at {threads} shards");
    }
}

#[test]
fn trace_bytes_are_identical_at_any_shard_count() {
    // The whole point of stamping events with sim time and merging
    // buffered streams in the serial phases: `lab trace fleet_routing`
    // must emit byte-identical NDJSON (and derived metrics/timeseries)
    // whether the epoch loop runs on one shard or eight.
    let dir1 = scratch("trace1");
    let dir8 = scratch("trace8");
    let one = disklab::run_trace("fleet_routing", 1, &dir1).unwrap();
    let eight = disklab::run_trace("fleet_routing", 8, &dir8).unwrap();
    assert!(one.events > 0);
    assert_eq!(one.events, eight.events);
    assert_eq!(one.files.len(), 3);
    for (a, b) in one.files.iter().zip(&eight.files) {
        assert_eq!(
            a.file_name(),
            b.file_name(),
            "trace runs must produce the same file set"
        );
        let bytes_a = fs::read(a).unwrap();
        let bytes_b = fs::read(b).unwrap();
        assert!(!bytes_a.is_empty());
        assert_eq!(
            bytes_a,
            bytes_b,
            "{} differs between 1 and 8 shards",
            a.file_name().unwrap().to_string_lossy()
        );
    }
    let _ = fs::remove_dir_all(&dir1);
    let _ = fs::remove_dir_all(&dir8);
}

#[test]
fn committed_traces_regenerate_byte_identically() {
    // The shard-count test above cannot see a change that alters the
    // trace bytes the same way at every shard count (an encoder or
    // merge-order change, say). Pin every committed trace artifact —
    // the NDJSON stream, its metrics registry, and its snapshot
    // timeseries for each registered scenario — against a fresh run.
    let dir = scratch("committed-traces");
    let committed = disklab::results_dir().unwrap();
    let mut compared = 0;
    for name in disklab::trace_names() {
        let outcome = disklab::run_trace(name, 1, &dir).unwrap();
        assert_eq!(outcome.files.len(), 3);
        for fresh in &outcome.files {
            let file = fresh.file_name().unwrap();
            let want = fs::read(committed.join(file)).unwrap();
            let got = fs::read(fresh).unwrap();
            assert!(
                got == want,
                "{} differs from the committed results/ copy ({} vs {} bytes)",
                file.to_string_lossy(),
                got.len(),
                want.len()
            );
            compared += 1;
        }
    }
    assert_eq!(compared, 9, "three files for each of the three scenarios");
    let _ = fs::remove_dir_all(&dir);
}
