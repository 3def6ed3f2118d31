//! The three fleet workloads: `hall_diurnal` (a 2,048-drive hall, mostly
//! idle), `rebuild_storm` (64 RAID-5 enclosures, all busy, one of them
//! rebuilding) and `storm_recorded` (the same storm with every event
//! recorded as NDJSON, so the obs layer works).

use crate::trace::Tracer;
use crate::{percentile, Rep};
use diskfleet::{
    AirflowGraph, EnclosureArray, Fleet, FleetConfig, FleetDtmPolicy, FleetPhaseProfile,
    RebuildSpec, RoutingPolicy,
};
use diskobs::{NdjsonRecorder, Sink};
use diskscenario::{
    run_scenario, ArrivalSource, CoolingScope, EpochSample, Injection, Scenario, ScenarioEngine,
};
use disksim::{DiskSpec, Request, StorageSystem, SystemConfig};
use diskthermal::{DriveThermalSpec, THERMAL_ENVELOPE};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use units::{Inches, Rpm, TempDelta};
use workloads::TraceGenerator;

const HIGH_RPM: f64 = 15_020.0;
const LOW_RPM: f64 = 10_000.0;

const HALL_PER_RACK: usize = 16;
const HALL_RACKS_PER_ROW: usize = 8;
const HALL_K_DRIVE: f64 = 4.0e-3;
const HALL_K_RACK: f64 = 1.2e-4;
/// Strong enough row-to-row recirculation that a few hundred back-row
/// drives cross the coordinator's trip point.
const HALL_K_ROW: f64 = 4.0e-4;
/// Offered OLTP load per drive, requests/s.
const HALL_RATE_PER_DRIVE: f64 = 1.0;

/// Offered search-engine load per RAID-5 enclosure, requests/s.
const STORM_RATE_PER_ENCLOSURE: f64 = 50.0;
const STORM_ARRAY: EnclosureArray = EnclosureArray {
    disks: 4,
    stripe_sectors: 65_536,
};
/// Below the degraded array's scan capacity, so queues stay bounded.
const STORM_REBUILD: RebuildSpec = RebuildSpec {
    rate_sectors_per_sec: 200_000.0,
    chunk_sectors: 16_384,
};
const STORM_FAIL_EPOCH: u64 = 2;
const STORM_COOLING_EPOCH: u64 = 4;
const STORM_COOLING_RAMP: u64 = 12;
const STORM_COOLING_DELTA_C: f64 = 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hall,
    Storm,
    StormRecorded,
}

/// How much work one repetition does. Run length moves peak memory and
/// the fork latencies, so it is fixed per workload. Both fleets stay
/// below the 65,536 completions at which `Fleet::stats` (called by
/// `run_scenario` every epoch) starts subsampling response reservoirs,
/// so the simulation, not the statistics merge, is what the timed phase
/// measures.
#[derive(Debug, Clone, Copy)]
pub struct FleetSize {
    /// Hall rows, or storm enclosures.
    pub units: usize,
    /// Sync epochs in the timed phase.
    pub epochs: u64,
    /// Seconds of recorded trace the storms replay.
    pub trace_seconds: f64,
    /// What-if forks answered after each timed phase, a multiple of the
    /// three perturbations so each is asked equally often.
    pub probes: usize,
    /// Epochs each what-if fork advances.
    pub horizon: u64,
}

impl FleetSize {
    pub fn full(kind: Kind) -> Self {
        match kind {
            Kind::Hall => Self {
                units: 16,
                epochs: 24,
                trace_seconds: 0.0,
                probes: 3,
                horizon: 1,
            },
            // 64 x 50 req/s x 18 epochs = 57,600 completions.
            Kind::Storm | Kind::StormRecorded => Self {
                units: 64,
                epochs: 18,
                trace_seconds: 19.0,
                probes: 3,
                horizon: 2,
            },
        }
    }

    /// A few-second size for the self-test.
    pub fn tiny() -> Self {
        Self {
            units: 2,
            epochs: 12,
            trace_seconds: 4.0,
            probes: 3,
            horizon: 2,
        }
    }
}

pub struct FleetWorkload {
    pub kind: Kind,
    pub seed: u64,
    pub size: FleetSize,
}

/// A `Write` that counts the bytes and lines it is handed and keeps
/// none of them: NDJSON recording without disk I/O.
#[derive(Debug, Clone, Default)]
pub struct ByteCounter {
    bytes: Arc<AtomicU64>,
    lines: Arc<AtomicU64>,
}

impl ByteCounter {
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn lines(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }
}

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let lines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
        self.lines.fetch_add(lines, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One assembled fleet with its inputs, ready for the timed phase.
pub struct Instance {
    pub fleet: Fleet,
    /// DTM control windows per sync epoch, from the fleet's config.
    pub windows_per_epoch: usize,
    pub source: ArrivalSource,
    pub engine: ScenarioEngine,
    pub sink: Sink,
    pub counter: Option<ByteCounter>,
}

/// What the traced epoch loop measured.
pub struct TracedPass {
    pub samples: Vec<EpochSample>,
    pub profile: FleetPhaseProfile,
    pub offered: u64,
    pub failures: Vec<String>,
}

fn spec() -> DiskSpec {
    DiskSpec::era(2002, 1, Rpm::new(HIGH_RPM))
}

fn thermal() -> DriveThermalSpec {
    DriveThermalSpec::new(Inches::new(2.6), 1)
}

fn speed_scale() -> FleetDtmPolicy {
    FleetDtmPolicy::SpeedScale {
        high: Rpm::new(HIGH_RPM),
        low: Rpm::new(LOW_RPM),
        guard: TempDelta::new(0.3),
        resume_margin: TempDelta::new(0.6),
    }
}

/// splitmix64: the benchmark's own seeded generator, so its inputs do
/// not move when the program's generators change.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in (0, 1].
fn unit(state: &mut u64) -> f64 {
    ((splitmix(state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// A search-engine-shaped request stream as MSR-Cambridge CSV: Poisson
/// arrivals at `rate`, 98% reads, 8/32/64 KiB requests, 30% of them
/// continuing the previous request sequentially and the rest landing
/// in 500 skewed hot regions of a `sectors`-sector volume.
pub fn search_engine_msr(seed: u64, rate: f64, seconds: f64, sectors: u64) -> Vec<u8> {
    const REGIONS: u64 = 500;
    const TICK_S: f64 = 1e-7;
    let mut rng = seed ^ 0x5EA2_C4E9_0000_0001;
    let region = sectors / REGIONS;
    let mut out = Vec::new();
    let (mut t, mut next_lba) = (0.0f64, 0u64);
    loop {
        t += -unit(&mut rng).ln() / rate;
        if t >= seconds {
            return out;
        }
        let read = unit(&mut rng) < 0.98;
        let u = unit(&mut rng);
        let len: u64 = if u < 0.5 {
            16
        } else if u < 0.85 {
            64
        } else {
            128
        };
        let lba = if unit(&mut rng) < 0.3 && next_lba + len < sectors {
            next_lba
        } else {
            // Squaring a uniform draw skews toward the low regions.
            let hot = ((unit(&mut rng).powi(2) * REGIONS as f64) as u64).min(REGIONS - 1);
            let offset = (splitmix(&mut rng) % (region - len)) & !7;
            hot * region + offset
        };
        next_lba = lba + len;
        let ticks = (t / TICK_S).round() as u64;
        let kind = if read { "Read" } else { "Write" };
        let _ = writeln!(
            out,
            "{ticks},perfbench,0,{kind},{},{},0",
            lba * 512,
            len * 512
        );
    }
}

impl FleetWorkload {
    fn drives_per_unit(&self) -> usize {
        match self.kind {
            Kind::Hall => HALL_PER_RACK * HALL_RACKS_PER_ROW,
            _ => 1,
        }
    }

    /// Enclosures in the fleet.
    pub fn enclosures(&self) -> usize {
        self.size.units * self.drives_per_unit()
    }

    fn config(&self, threads: usize) -> Result<FleetConfig, String> {
        let n = self.enclosures();
        let mut config = match self.kind {
            Kind::Hall => {
                let mut c =
                    FleetConfig::serial(n, spec(), thermal(), 1.0).map_err(|e| e.to_string())?;
                c.airflow = AirflowGraph::hall(
                    n,
                    HALL_PER_RACK,
                    HALL_RACKS_PER_ROW,
                    thermal().ambient(),
                    HALL_K_DRIVE,
                    HALL_K_RACK,
                    HALL_K_ROW,
                )
                .map_err(|e| e.to_string())?;
                c.routing = RoutingPolicy::ThermalAware {
                    envelope: THERMAL_ENVELOPE,
                };
                c
            }
            Kind::Storm | Kind::StormRecorded => {
                // 2 W/K per enclosure: the hottest bays stay just under
                // the coordinator's trip point through the +3 °C excursion.
                let mut c = FleetConfig::serial(n, spec(), thermal(), 2.0 * n as f64)
                    .map_err(|e| e.to_string())?;
                c.array = Some(STORM_ARRAY);
                c.routing = RoutingPolicy::RoundRobin;
                c
            }
        };
        config.dtm = speed_scale();
        config.threads = threads;
        Ok(config)
    }

    fn scenario(&self) -> Scenario {
        match self.kind {
            Kind::Hall => Scenario::new().with(Injection::TrafficShape {
                diurnal_period_epochs: 24,
                diurnal_amplitude: 0.5,
                flash_at_epoch: Some(16),
                flash_epochs: 4,
                flash_factor: 3.0,
            }),
            Kind::Storm | Kind::StormRecorded => Scenario::new()
                .with(Injection::DriveFailure {
                    at_epoch: STORM_FAIL_EPOCH,
                    enclosure: self.enclosures() / 2,
                    disk: 1,
                    rebuild: STORM_REBUILD,
                })
                .with(Injection::CoolingEvent {
                    at_epoch: STORM_COOLING_EPOCH,
                    duration_epochs: 0,
                    ramp_epochs: STORM_COOLING_RAMP,
                    delta_c: STORM_COOLING_DELTA_C,
                    scope: CoolingScope::All,
                }),
        }
    }

    /// Generates the inputs and assembles the fleet. `threads` is the
    /// shard count, which changes wall time only.
    pub fn setup(&self, threads: usize, tr: &mut Tracer) -> Result<Instance, String> {
        let sectors = StorageSystem::new(SystemConfig::single_disk(spec()))
            .map_err(|e| e.to_string())?
            .logical_sectors();
        let source = match self.kind {
            Kind::Hall => {
                let s = tr.enter("workloads.generator");
                let preset = workloads::oltp();
                let rate = HALL_RATE_PER_DRIVE * self.enclosures() as f64;
                let generator = TraceGenerator::new(
                    preset.profile.clone(),
                    preset.arrivals.with_mean_rate(rate),
                    1,
                    sectors,
                )?;
                let source = ArrivalSource::Synthetic(generator.stream(self.seed));
                tr.exit(s);
                source
            }
            Kind::Storm | Kind::StormRecorded => {
                let rate = STORM_RATE_PER_ENCLOSURE * self.enclosures() as f64;
                let s = tr.enter("bench.write_msr");
                let csv = search_engine_msr(self.seed, rate, self.size.trace_seconds, sectors);
                tr.exit(s);
                let s = tr.enter("workloads.read_trace");
                let trace =
                    workloads::read_trace(&csv[..]).map_err(|e| format!("read_trace: {e}"))?;
                tr.exit(s);
                let rows = csv.iter().filter(|&&b| b == b'\n').count();
                if trace.len() != rows {
                    return Err(format!("read_trace parsed {} of {rows} rows", trace.len()));
                }
                ArrivalSource::replay(trace)?
            }
        };
        let config = self.config(threads)?;
        let windows_per_epoch = config.windows_per_epoch;
        let s = tr.enter("fleet.new");
        let fleet = Fleet::new(config).map_err(|e| e.to_string())?;
        tr.exit(s);
        let (sink, counter) = if self.kind == Kind::StormRecorded {
            let counter = ByteCounter::default();
            (
                Sink::recorder(NdjsonRecorder::new(counter.clone())),
                Some(counter),
            )
        } else {
            (Sink::null(), None)
        };
        Ok(Instance {
            fleet,
            windows_per_epoch,
            source,
            engine: ScenarioEngine::new(self.scenario()),
            sink,
            counter,
        })
    }

    /// One repetition with tracing off: set up, run the timed phase
    /// through `run_scenario`, check it, then answer the what-if forks.
    pub fn rep(&self, threads: usize) -> Result<(Rep, Instance), String> {
        let mut off = Tracer::new(false);
        let t = Instant::now();
        let mut inst = self.setup(threads, &mut off)?;
        let setup_s = t.elapsed().as_secs_f64();
        let shadow = inst.source.clone();

        let t = Instant::now();
        let mut samples = Vec::with_capacity(self.size.epochs as usize);
        let profile = run_scenario(
            &mut inst.fleet,
            &mut inst.source,
            &mut inst.engine,
            self.size.epochs,
            &mut inst.sink,
            &mut samples,
        )
        .map_err(|e| e.to_string())?;
        inst.sink.flush();
        let wall_s = t.elapsed().as_secs_f64();

        let offered = count_offered(&inst.fleet, shadow, &samples);
        let mut failures = check_samples(&inst.fleet, &samples);
        failures.extend(check_totals(&inst.fleet, offered));
        if profile.epochs != self.size.epochs {
            failures.push(format!("profile saw {} epochs", profile.epochs));
        }
        let whatif_ms = self.probes(&inst)?;
        let rep = Rep {
            setup_s,
            wall_s,
            attempted: offered,
            failed: failures.len() as u64,
            failures,
            digest: digest(&inst.fleet, &samples),
            whatif_ms,
            samples,
        };
        Ok((rep, inst))
    }

    /// The what-if forks. The fleet's state is captured once, as the
    /// twin's epoch thread snapshots once per epoch; each fork then
    /// restores it twice, perturbs one copy (inlet +2 °C, a +3 °C
    /// cooling bias, or 1.5x traffic, in rotation) and advances both
    /// `horizon` epochs on copies of the arrival stream.
    pub fn probes(&self, inst: &Instance) -> Result<Vec<f64>, String> {
        let mut out = Vec::with_capacity(self.size.probes);
        let state = inst.fleet.capture_state();
        for k in 0..self.size.probes {
            let t = Instant::now();
            let mut base = Fleet::restore_state(state.clone()).map_err(|e| e.to_string())?;
            let mut pert = Fleet::restore_state(state.clone()).map_err(|e| e.to_string())?;
            let mut base_src = inst.source.clone();
            let mut pert_src = inst.source.clone();
            match k % 3 {
                0 => pert.set_inlet(pert.inlet() + TempDelta::new(2.0)),
                1 => pert
                    .set_ambient_bias(&vec![3.0; pert.len()])
                    .map_err(|e| e.to_string())?,
                _ => pert_src.scale_traffic(1.5),
            }
            let a = advance(&mut base, &mut base_src, self.size.horizon);
            let b = advance(&mut pert, &mut pert_src, self.size.horizon);
            std::hint::black_box((a, b));
            out.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(out)
    }

    /// The traced timed phase: `run_scenario`'s loop stepped through its
    /// public parts with a span around each call, checking the fleet
    /// after every `step_epoch`.
    pub fn traced_pass(&self, inst: &mut Instance, tr: &mut Tracer) -> Result<TracedPass, String> {
        let mut profile = FleetPhaseProfile::default();
        if inst.sink.is_enabled() {
            inst.fleet.enable_drive_sinks();
        }
        let epoch_len = inst.fleet.epoch_len();
        let mut lookahead: Option<Request> = None;
        let mut batch: Vec<Request> = Vec::new();
        let mut samples = Vec::with_capacity(self.size.epochs as usize);
        let mut failures = Vec::new();
        let (mut offered, mut last_total) = (0u64, 0u64);
        let timed = tr.enter("bench.timed");
        for _ in 0..self.size.epochs {
            let epoch = tr.enter("bench.epoch");
            let s = tr.enter("scenario.apply_epoch");
            inst.engine
                .apply_epoch(&mut inst.fleet, &mut inst.source)
                .map_err(|e| e.to_string())?;
            tr.exit(s);

            let s = tr.enter("workloads.draw");
            let before = inst.fleet.now();
            let epoch_end = before + epoch_len;
            let mut draws = 0;
            loop {
                let r = match lookahead.take() {
                    Some(r) => r,
                    None => {
                        draws += 1;
                        inst.source.next_request()
                    }
                };
                if r.arrival > epoch_end {
                    lookahead = Some(r);
                    break;
                }
                batch.push(r);
            }
            tr.exit(s);
            tr.count("workloads.draw", draws);

            let s = tr.enter("fleet.offer");
            offered += batch.len() as u64;
            tr.count("fleet.offer", batch.len() as u64);
            inst.fleet.offer(batch.drain(..));
            tr.exit(s);

            let s = tr.enter("fleet.step_epoch");
            inst.fleet.step_epoch(&mut inst.sink, &mut profile);
            tr.exit(s);

            let s = tr.enter("fleet.stats");
            let completed = inst.fleet.stats().count();
            tr.exit(s);

            let s = tr.enter("fleet.sample");
            let (mut done, mut total) = (0, 0);
            for rb in inst.fleet.rebuilds() {
                done += rb.done();
                total += rb.total();
            }
            if total == 0 && last_total > 0 {
                done = last_total;
                total = last_total;
            }
            last_total = total;
            samples.push(EpochSample {
                epoch: inst.fleet.epochs(),
                time_s: inst.fleet.now().get(),
                peak_air_c: inst.fleet.peak_air().get(),
                peak_ambient_c: inst.fleet.peak_local_ambient().get(),
                engaged: inst.fleet.engaged_count(),
                completed,
                rebuild_done: done,
                rebuild_total: total,
                traffic_factor: inst.engine.traffic_factor(),
            });
            tr.exit(s);

            let s = tr.enter("bench.check");
            if inst.fleet.now() != epoch_end {
                failures.push(format!(
                    "epoch {} did not advance exactly one epoch",
                    inst.fleet.epochs()
                ));
            }
            let r = tr.enter("fleet.report");
            let report = inst.fleet.report();
            tr.exit(r);
            let routed: u64 = report.per_enclosure.iter().map(|e| e.routed).sum();
            let completed: u64 = report.per_enclosure.iter().map(|e| e.completed).sum();
            if routed != offered {
                failures.push(format!(
                    "epoch {}: routed {routed} of {offered} offered",
                    report.epochs
                ));
            }
            if completed != report.stats.count() {
                failures.push(format!(
                    "epoch {}: enclosures completed {completed}, stats count {}",
                    report.epochs,
                    report.stats.count()
                ));
            }
            if !inst.fleet.peak_air().get().is_finite() {
                failures.push(format!("epoch {}: peak air not finite", report.epochs));
            }
            tr.exit(s);
            tr.exit(epoch);
        }
        inst.sink.flush();
        tr.exit(timed);
        Ok(TracedPass {
            samples,
            profile,
            offered,
            failures,
        })
    }
}

/// Advances a fork `epochs` epochs on its own arrival stream as the
/// twin's fork loop does: statistics reset at the fork point, a report
/// before and after.
fn advance(fleet: &mut Fleet, source: &mut ArrivalSource, epochs: u64) -> (u64, f64) {
    let mut profile = FleetPhaseProfile::default();
    let mut sink = Sink::null();
    fleet.reset_stats();
    let before = fleet.report();
    for _ in 0..epochs {
        let epoch_end = fleet.now() + fleet.epoch_len();
        loop {
            let r = source.next_request();
            if r.arrival > epoch_end {
                break;
            }
            fleet.offer(std::iter::once(r));
        }
        fleet.step_epoch(&mut sink, &mut profile);
    }
    let after = fleet.report();
    (
        after.stats.count() - before.stats.count(),
        after.max_air.get(),
    )
}

/// Replays `run_scenario`'s arrival draw on a copy of the source taken
/// before the timed phase, applying each epoch's recorded traffic
/// factor exactly as the scenario engine did: the number of requests
/// the timed phase offered.
fn count_offered(fleet: &Fleet, mut source: ArrivalSource, samples: &[EpochSample]) -> u64 {
    let epoch_len = fleet.epoch_len();
    let mut now = units::Seconds::ZERO;
    let mut factor = 1.0;
    let mut lookahead: Option<Request> = None;
    let mut offered = 0;
    for s in samples {
        if s.traffic_factor != factor {
            source.scale_traffic(s.traffic_factor / factor);
            factor = s.traffic_factor;
        }
        let epoch_end = now + epoch_len;
        loop {
            let r = lookahead.take().unwrap_or_else(|| source.next_request());
            if r.arrival > epoch_end {
                lookahead = Some(r);
                break;
            }
            offered += 1;
        }
        now = epoch_end;
    }
    offered
}

/// Per-epoch checks on `run_scenario`'s samples: sim time advances
/// exactly one epoch per step, peak air stays finite, completions never
/// go backwards.
fn check_samples(fleet: &Fleet, samples: &[EpochSample]) -> Vec<String> {
    let epoch_len = fleet.epoch_len();
    let mut now = units::Seconds::ZERO;
    let mut failures = Vec::new();
    let mut completed = 0;
    for (i, s) in samples.iter().enumerate() {
        now += epoch_len;
        if s.epoch != i as u64 + 1 || s.time_s != now.get() {
            failures.push(format!("step {i}: epoch {} at {} s", s.epoch, s.time_s));
        }
        if !s.peak_air_c.is_finite() {
            failures.push(format!("step {i}: peak air not finite"));
        }
        if s.completed < completed {
            failures.push(format!("step {i}: completions went backwards"));
        }
        completed = s.completed;
    }
    failures
}

/// End-of-phase conservation: every offered request was routed, and
/// the enclosures' completion counts add up to the fleet statistics.
fn check_totals(fleet: &Fleet, offered: u64) -> Vec<String> {
    let report = fleet.report();
    let routed: u64 = report.per_enclosure.iter().map(|e| e.routed).sum();
    let completed: u64 = report.per_enclosure.iter().map(|e| e.completed).sum();
    let mut failures = Vec::new();
    if routed != offered {
        failures.push(format!("routed {routed} of {offered} offered"));
    }
    if completed != report.stats.count() {
        failures.push(format!(
            "enclosures completed {completed}, stats count {}",
            report.stats.count()
        ));
    }
    failures
}

/// The simulated outputs two commits should agree on: completions, p95
/// response, peak air, time over the envelope, and a hash of every
/// per-epoch sample row.
pub fn digest(fleet: &Fleet, samples: &[EpochSample]) -> String {
    let report = fleet.report();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for s in samples {
        for b in s.to_csv_row().bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!(
        "completed={} p95_ms={:.6} peak_air_c={:.6} over_envelope_s={:.3} engaged_max={} samples_fnv={hash:016x}",
        report.stats.count(),
        report.stats.percentile(95.0).to_millis(),
        report.max_air.get(),
        report.time_over_envelope.get(),
        samples.iter().map(|s| s.engaged).max().unwrap_or(0),
    )
}

/// Per-layer numbers of one traced pass.
pub fn pass_metrics(pass: &TracedPass, tr: &Tracer) -> Vec<(&'static str, f64)> {
    let steps = tr.durations_ms("fleet.step_epoch");
    let step_s: f64 = steps.iter().sum::<f64>() / 1e3;
    vec![
        ("fleet.step_ms_p50", percentile(&steps, 50.0)),
        ("fleet.step_ms_p99", percentile(&steps, 99.0)),
        ("fleet.parallel_ms", pass.profile.parallel_ms),
        ("fleet.serial_ms", pass.profile.serial_ms),
        ("fleet.serial_fraction", pass.profile.serial_fraction()),
        ("fleet.requests_per_s", pass.offered as f64 / step_s),
    ]
}
