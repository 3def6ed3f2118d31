//! The fleet itself: N bays, an airflow graph, a router, and a
//! coordinator, advanced by a sharded deterministic event loop.
//!
//! Each bay ([`crate::bay`]) couples a `StorageSystem` to its four
//! node temperatures; the fleet holds once what every bay shares — the
//! disk spec, which every member of every bay's storage system points
//! at, and the drive's thermal spec with its exact window maps, one per
//! spindle speed, which carry a bay's temperatures across each control
//! window in two 4×4 matrix-vector products.
//! Between *sync epochs* the bays are fully independent, so the loop
//! advances them in parallel. The
//! epoch boundary itself is parallel too: shards *propose* against the
//! epoch-start snapshot (statistics folds, heat estimates, per-rack
//! airflow prefixes, coordinator transitions, each chunk's next routing
//! placements, pre-sorted per-enclosure event runs) and only two cheap
//! deterministic reduces run serially — the routing commit, which
//! merges the chunks' placements into arrival order and leaves the
//! queueing to the shards, and the per-level airflow / coordinator
//! commit in enclosure order. When tracing, the routing run
//! and the per-enclosure event runs then stream into the sink through
//! the serial merge `disksim::par::merge_runs_by` — one sort of
//! 16-byte (time key, run, position) entries in a buffer the fleet
//! keeps across epochs — which emits exactly the order of a global
//! stable time-sort. Every
//! cross-enclosure interaction reads epoch-start state and commits in
//! enclosure order, which is why the run is byte-identical at any
//! shard count.

use crate::airflow::{rack_heats, AirflowGraph};
use crate::bay::{Bay, BayState, EpochCtx, WindowMaps};
use crate::coordinator::{Coordinator, CoordinatorState, CtlProposal, DriveCtl, FleetDtmPolicy};
use crate::error::FleetError;
use crate::routing::{ChunkRoute, DriveScore, Router, RoutingPolicy, RoutingScratch};
use disksim::{DiskSpec, EnergyReport, Request, ResponseStats, StorageSystem, SystemConfig};
use diskthermal::{
    drive_heat_estimate, DriveThermalSpec, NodeTemps, OperatingPoint, TempSensor, ThermalModel,
    THERMAL_ENVELOPE,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;
use units::{Celsius, Rpm, Seconds};

/// The longest a sync epoch may span, and the sim time past which
/// [`Fleet::run`] stops a run that has not drained: 24 hours.
const SIM_TIME_CAP: Seconds = Seconds::new(24.0 * 3600.0);

/// RAID-5 geometry for every enclosure: instead of one bare drive, each
/// bay holds an `disks`-member array presented as one logical volume.
/// Failure injection ([`Fleet::fail_drive`]) needs this redundancy to
/// have something to rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnclosureArray {
    /// Member disks per enclosure (min 3 for RAID-5).
    pub disks: u32,
    /// Stripe unit in sectors.
    pub stripe_sectors: u32,
}

/// Knobs for the background rebuild a [`Fleet::fail_drive`] injection
/// starts: a sequential scan over the degraded volume whose reads
/// reconstruct from the survivors — the classic rebuild storm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebuildSpec {
    /// Scan rate in logical sectors per second. Non-positive disables
    /// the rebuild: the array stays degraded.
    pub rate_sectors_per_sec: f64,
    /// Sectors per rebuild read.
    pub chunk_sectors: u32,
}

impl Default for RebuildSpec {
    /// ~48 MiB/s scan in 512 KiB reads.
    fn default() -> Self {
        Self { rate_sectors_per_sec: 98_304.0, chunk_sectors: 1_024 }
    }
}

/// Requests the rebuild scan injects carry ids at or above this base so
/// the statistics folds can keep background reconstruction I/O out of
/// the foreground response-time numbers.
pub const REBUILD_ID_BASE: u64 = 1 << 62;

/// One in-flight rebuild: a sequential scan over a degraded enclosure's
/// logical volume, budgeted per epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rebuild {
    enclosure: usize,
    disk: u32,
    next_lba: u64,
    total: u64,
    done: u64,
    rate: f64,
    chunk: u32,
    carry: f64,
}

impl Rebuild {
    /// The enclosure being rebuilt.
    pub fn enclosure(&self) -> usize {
        self.enclosure
    }

    /// The failed member under reconstruction.
    pub fn disk(&self) -> u32 {
        self.disk
    }

    /// Sectors scanned so far.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Sectors in the full scan.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// How a fleet is assembled.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The disk every enclosure is built of (one drive, or each array
    /// member); the fleet holds it once for all of them.
    pub spec: DiskSpec,
    /// When set, every enclosure is a RAID-5 array of `spec` drives
    /// instead of a single disk (enables failure injection).
    pub array: Option<EnclosureArray>,
    /// Per-drive thermal geometry; its ambient is the rack inlet before
    /// preheat.
    pub thermal: DriveThermalSpec,
    /// The rack-scale thermal coupling; its length is the fleet size.
    pub airflow: AirflowGraph,
    /// Request-placement policy.
    pub routing: RoutingPolicy,
    /// Fleet-level DTM actuation.
    pub dtm: FleetDtmPolicy,
    /// The shared thermal envelope.
    pub envelope: Celsius,
    /// Control-window length (default 250 ms): the drives' thermal
    /// transients and duty measurements advance one window at a time.
    pub window: Seconds,
    /// Control windows between thermal-coupling sync epochs (default 4,
    /// i.e. 1 s epochs). The coordinator decides once per epoch, so a
    /// single drive under per-window control is a one-bay fleet with
    /// one window per epoch.
    pub windows_per_epoch: usize,
    /// Shards for the parallel event loop. Results are byte-identical
    /// at any value; this only trades wall-clock time.
    pub threads: usize,
    /// What the coordinator reads each bay's air through (default
    /// [`TempSensor::ideal`]: the reading is the true air). A realistic
    /// sensor (e.g. [`TempSensor::smart_style`]) needs policy margins
    /// covering its under-reporting.
    pub sensor: TempSensor,
    /// Node temperatures every bay starts from. `None` (the default)
    /// starts each bay at its idle-preheated steady state: the rack has
    /// been idling, not sitting in pristine inlet air.
    pub start: Option<NodeTemps>,
}

impl FleetConfig {
    /// A serial-airflow fleet of `enclosures` drives with the defaults
    /// the experiments use: round-robin routing, no DTM, the paper's
    /// envelope, 250 ms windows, 1 s epochs, single-shard.
    ///
    /// # Errors
    ///
    /// Rejects `enclosures == 0` or a non-positive stream capacity rate
    /// (via [`AirflowGraph::serial`]).
    pub fn serial(
        enclosures: usize,
        spec: DiskSpec,
        thermal: DriveThermalSpec,
        stream_w_per_k: f64,
    ) -> Result<Self, FleetError> {
        let airflow = AirflowGraph::serial(enclosures, thermal.ambient(), stream_w_per_k)?;
        Ok(Self {
            spec,
            array: None,
            thermal,
            airflow,
            routing: RoutingPolicy::RoundRobin,
            dtm: FleetDtmPolicy::None,
            envelope: THERMAL_ENVELOPE,
            window: Seconds::from_millis(250.0),
            windows_per_epoch: 4,
            threads: 1,
            sensor: TempSensor::ideal(),
            start: None,
        })
    }
}

/// Hot per-drive state in structure-of-arrays layout. The serial
/// reduces — the routing commit over `scores`/`queue` (and the
/// coordinator's committed gates), the airflow roll-up over `heat`, the
/// coordinator commit over `proposals` — each walk one dense array
/// instead of hopping across enclosure structs. The parallel passes
/// refresh the arrays through disjoint contiguous chunk splits, which
/// keeps everything in safe code and byte-identical at any worker
/// count.
#[derive(Default)]
struct FleetHotState {
    /// Each drive's routing score, staged from its epoch-boundary air
    /// and queue depth.
    scores: Vec<DriveScore>,
    /// Requests held against each drive (in flight + pending).
    queue: Vec<u64>,
    /// Rejected heat per drive over the last epoch, watts.
    heat: Vec<f64>,
    /// Coordinator proposals staged by pass B, committed serially.
    proposals: Vec<CtlProposal>,
    /// Per-rack heat totals (hierarchical airflow only).
    rack_heat: Vec<f64>,
    /// Per-rack preheat from the rack/row levels (hierarchical only).
    rack_base: Vec<f64>,
    /// Dense per-drive ambients (flat-topology fallback).
    flat_ambients: Vec<Celsius>,
}

impl FleetHotState {
    /// (Re)builds the arrays from authoritative state. A cheap length
    /// check while the fleet size is stable; after construction,
    /// restore, or growth the arrays rebuild from the bays, after which
    /// the epoch passes keep them current.
    fn ensure(&mut self, bays: &[Bay], policy: RoutingPolicy) {
        let n = bays.len();
        if self.queue.len() == n {
            return;
        }
        self.scores.clear();
        self.queue.clear();
        for b in bays {
            self.scores.push(DriveScore::new(policy, b.air(), b.depth()));
            self.queue.push(b.depth());
        }
        self.heat.clear();
        self.heat.resize(n, 0.0);
        self.proposals.clear();
        self.proposals.resize(n, CtlProposal::noop());
    }

    /// Parallel pass A: hands each bay the arrivals the routing commit
    /// placed on it — `placed[j]` is the bay `incoming[j]` goes to —
    /// then runs [`Bay::sweep`] on every bay in the control state `ctl`
    /// the coordinator committed at the epoch start, recording each
    /// bay's heat estimate without touching any shared state. Each worker scans the placements and queues, in arrival
    /// order, only those on its own bays. Chunks are contiguous and bays
    /// never move, so any worker count produces the same bytes.
    fn pass_a(
        &mut self,
        bays: &mut [Bay],
        ctl: &[DriveCtl],
        (incoming, placed): (&VecDeque<Request>, &[usize]),
        ctx: &EpochCtx,
    ) {
        let heat = &mut self.heat[..];
        // Queues the placements on the chunk of bays starting at global
        // index `start`.
        let deliver = |start: usize, b_c: &mut [Bay]| {
            let end = start + b_c.len();
            for (r, &i) in incoming.iter().zip(placed) {
                if (start..end).contains(&i) {
                    b_c[i - start].route(*r);
                }
            }
        };

        let n = bays.len();
        let workers = ctx.threads.clamp(1, n.max(1));
        let chunk = n.div_ceil(workers);
        if workers <= 1 || chunk >= n {
            deliver(0, bays);
            for ((b, h), &c) in bays.iter_mut().zip(heat.iter_mut()).zip(ctl) {
                *h = b.sweep(c, ctx);
            }
            return;
        }
        std::thread::scope(|scope| {
            let deliver = &deliver;
            let mut start = 0usize;
            let mut rest = (bays, heat, ctl);
            while !rest.0.is_empty() {
                let take = chunk.min(rest.0.len());
                let (b_c, b_r) = rest.0.split_at_mut(take);
                let (h_c, h_r) = rest.1.split_at_mut(take);
                let (c_c, c_r) = rest.2.split_at(take);
                rest = (b_r, h_r, c_r);
                let s = start;
                start += take;
                scope.spawn(move || {
                    deliver(s, b_c);
                    for ((b, h), &c) in b_c.iter_mut().zip(h_c.iter_mut()).zip(c_c) {
                        *h = b.sweep(c, ctx);
                    }
                });
            }
        });
    }

    /// Parallel pass B: [`Bay::boundary`] on every bay at its preheated
    /// ambient (per-rack prefix sums for the hierarchy, the precomputed
    /// dense ambients for flat graphs), staging each coordinator
    /// proposal for the serial commit, and each bay's routing score and
    /// its chunk's routing proposal in `route` for the next epoch's.
    /// Hierarchy chunks align to rack boundaries so every intra-rack
    /// prefix stays on one worker and the arithmetic matches
    /// [`AirflowGraph::local_ambients`] bit for bit.
    fn pass_b(
        &mut self,
        bays: &mut [Bay],
        coordinator: &Coordinator,
        airflow: &AirflowGraph,
        route: &mut RoutingScratch,
        ctx: &EpochCtx,
        bias: &[f64],
    ) {
        let n = bays.len();
        let inlet = airflow.inlet();
        let shape = airflow.hall_shape();
        // Cooling-excursion bias: an absent or zero entry is exactly a
        // no-op, so unbiased runs stay byte-identical to the pre-bias
        // code path.
        let biased = move |i: usize, a: Celsius| match bias.get(i) {
            Some(&b) if b != 0.0 => a + units::TempDelta::new(b),
            _ => a,
        };
        let Self {
            scores,
            queue,
            heat,
            proposals,
            rack_base,
            flat_ambients,
            ..
        } = self;
        let heat = &heat[..];
        let (rack_base, flat_ambients) = (&rack_base[..], &flat_ambients[..]);

        // Bay `i`'s outputs: routing score, queue depth and proposal.
        type Out<'o> = (&'o mut DriveScore, &'o mut u64, &'o mut CtlProposal);
        let one = |i: usize, b: &mut Bay, ambient: Celsius, (score, depth, proposal): Out| {
            (*depth, *proposal) = b.boundary(i, ambient, coordinator, ctx);
            *score = DriveScore::new(ctx.routing, b.air(), *depth);
        };

        // One contiguous chunk of bays starting at global index `start`.
        let run_chunk = |start: usize,
                         b_c: &mut [Bay],
                         s_c: &mut [DriveScore],
                         q_c: &mut [u64],
                         p_c: &mut [CtlProposal],
                         route: &mut ChunkRoute| {
            match &shape {
                Some(s) => {
                    for (rk, rack) in b_c.chunks_mut(s.per_rack).enumerate() {
                        let rack_start = start + rk * s.per_rack;
                        let base = rack_base[rack_start / s.per_rack];
                        let mut prefix = 0.0;
                        for (off, b) in rack.iter_mut().enumerate() {
                            let i = rack_start + off;
                            let ambient =
                                biased(i, inlet + units::TempDelta::new(base + s.k_drive * prefix));
                            prefix += heat[i];
                            let l = i - start;
                            one(i, b, ambient, (&mut s_c[l], &mut q_c[l], &mut p_c[l]));
                        }
                    }
                }
                None => {
                    for (off, b) in b_c.iter_mut().enumerate() {
                        let i = start + off;
                        let out = (&mut s_c[off], &mut q_c[off], &mut p_c[off]);
                        one(i, b, biased(i, flat_ambients[i]), out);
                    }
                }
            }
            let draws = route.ahead();
            route.propose(ctx.routing, s_c, q_c, draws);
        };

        let workers = ctx.threads.clamp(1, n.max(1));
        // Hierarchy chunks round up to whole racks so each intra-rack
        // prefix is computed by exactly one worker.
        let chunk = match &shape {
            Some(s) => s.per_rack * n.div_ceil(s.per_rack).div_ceil(workers),
            None => n.div_ceil(workers),
        };
        if workers <= 1 || chunk >= n {
            let chunk_route = &mut route.chunks(n, n)[0];
            run_chunk(0, bays, &mut scores[..], &mut queue[..], &mut proposals[..], chunk_route);
            return;
        }
        std::thread::scope(|scope| {
            let run_chunk = &run_chunk;
            let mut start = 0usize;
            let mut rest = (bays, &mut scores[..], &mut queue[..], &mut proposals[..]);
            let mut chunk_routes = route.chunks(n, chunk).iter_mut();
            while !rest.0.is_empty() {
                let take = chunk.min(rest.0.len());
                let (b_c, b_r) = rest.0.split_at_mut(take);
                let (s_c, s_r) = rest.1.split_at_mut(take);
                let (q_c, q_r) = rest.2.split_at_mut(take);
                let (p_c, p_r) = rest.3.split_at_mut(take);
                rest = (b_r, s_r, q_r, p_r);
                let s = start;
                let chunk_route = chunk_routes.next().expect("one proposal per chunk");
                scope.spawn(move || run_chunk(s, b_c, s_c, q_c, p_c, chunk_route));
                start += take;
            }
        });
    }
}

/// Per-enclosure slice of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnclosureReport {
    /// Requests the router placed on this drive.
    pub routed: u64,
    /// Requests this drive completed.
    pub completed: u64,
    /// Hottest internal-air temperature reached.
    pub max_air: Celsius,
    /// Hottest preheated inlet this bay saw.
    pub max_local_ambient: Celsius,
    /// Time-weighted mean internal-air temperature.
    pub mean_air: Celsius,
    /// Mean actuator duty over the run.
    pub mean_duty: f64,
    /// Spindle speed at the end of the run.
    pub final_rpm: Rpm,
    /// Time this drive spent above the envelope.
    pub time_over_envelope: Seconds,
    /// Time admission was gated by the coordinator.
    pub time_gated: Seconds,
    /// Time spent downshifted by the coordinator.
    pub time_scaled: Seconds,
    /// Time spent boosted by the slack ramp.
    pub time_boosted: Seconds,
    /// Energy the bay's disks consumed, summed over its members (so
    /// `elapsed` counts each member disk's time).
    pub energy: EnergyReport,
}

/// Outcome of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Fleet size.
    pub enclosures: usize,
    /// Response-time statistics over every completed request: each
    /// bay's shard folds its own completions and the report merges the
    /// per-bay summaries in enclosure order (deterministic).
    pub stats: ResponseStats,
    /// Hottest internal-air temperature any drive reached.
    pub max_air: Celsius,
    /// Hottest preheated inlet any bay saw.
    pub peak_local_ambient: Celsius,
    /// Mean over drives of each drive's time-weighted mean air.
    pub mean_air: Celsius,
    /// Total simulated time.
    pub total_time: Seconds,
    /// Sum over drives of time spent above the envelope.
    pub time_over_envelope: Seconds,
    /// Sync epochs executed.
    pub epochs: u64,
    /// Per-enclosure detail, in airflow order.
    pub per_enclosure: Vec<EnclosureReport>,
}

/// Wall-clock spent in each phase of a fleet run: the parallel
/// per-enclosure window sweeps versus the serial epoch-boundary work
/// (routing, completion folding, airflow coupling, coordination). The
/// serial fraction bounds shard speedup by Amdahl's law, which is why
/// `BENCH_fleet.json` reports it alongside the shard numbers.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FleetPhaseProfile {
    /// Total wall-clock in the parallel window sweeps, milliseconds.
    pub parallel_ms: f64,
    /// Total wall-clock in the serial epoch-boundary phases,
    /// milliseconds.
    pub serial_ms: f64,
    /// Sync epochs executed.
    pub epochs: u64,
}

impl FleetPhaseProfile {
    /// Fraction of the run's wall-clock spent in the serial phases.
    pub fn serial_fraction(&self) -> f64 {
        let total = self.parallel_ms + self.serial_ms;
        if total > 0.0 {
            self.serial_ms / total
        } else {
            0.0
        }
    }
}

/// A thermally-coupled fleet of enclosures.
///
/// [`Fleet::run`] drives a whole trace to completion; the stepwise API
/// ([`Fleet::offer`] / [`Fleet::step_epoch`] / [`Fleet::is_drained`] /
/// [`Fleet::report`]) exposes the same loop one sync epoch at a time so
/// a caller — the digital-twin server — can keep a fleet warm
/// indefinitely, feed it arrivals incrementally, and checkpoint it
/// between epochs with [`Fleet::capture_state`].
pub struct Fleet {
    bays: Vec<Bay>,
    /// The disk every member of every bay is, shared with each bay's
    /// storage system.
    spec: Arc<DiskSpec>,
    /// The drive's thermal geometry every bay shares, with its exact
    /// window map at each speed a bay runs at; each bay couples them
    /// to its own local ambient.
    maps: WindowMaps,
    router: Router,
    coordinator: Coordinator,
    airflow: AirflowGraph,
    envelope: Celsius,
    window: Seconds,
    windows_per_epoch: usize,
    threads: usize,
    sensor: TempSensor,
    /// Requests accepted but not yet routed, in arrival order.
    incoming: VecDeque<Request>,
    epochs: u64,
    now: Seconds,
    /// Whether the coordinator has announced its starting speeds.
    primed: bool,
    /// Per-enclosure array geometry (None: single-disk bays).
    array: Option<EnclosureArray>,
    /// Active rebuild scans, in injection order.
    rebuilds: Vec<Rebuild>,
    /// Per-enclosure inlet bias in Celsius (cooling excursions); empty
    /// means no bias anywhere. A zero entry is exactly a no-op, so an
    /// all-zero vector leaves the run byte-identical to no bias.
    ambient_bias: Vec<f64>,
    /// Events injected between epochs (failures, excursions, traffic
    /// phases), stamped with the boundary time and drained into the
    /// next epoch's merged stream.
    boundary_events: Vec<diskobs::Event>,
    // Per-epoch scratch, reused across the whole run so the epoch loop
    // allocates nothing in steady state, traced or not (the traced path
    // lends its event runs to the merge and clears them, keeping their
    // capacity).
    hot: FleetHotState,
    route: RoutingScratch,
    /// This epoch's placements: the bay the routing commit chose for
    /// each due arrival, in arrival order, delivered by pass A.
    placements: Vec<usize>,
    routing_run: Vec<diskobs::TimedEvent>,
    /// The traced merge's (time key, run, position) entries.
    merge_entries: Vec<u128>,
}

/// Complete dynamic state of a [`Fleet`], captured between sync epochs
/// for checkpointing. Restoring and advancing is byte-identical to
/// never having checkpointed: every mid-epoch scratch buffer is
/// rebuilt empty because it is overwritten before its next read, and
/// everything that survives an epoch boundary — drive state, queues,
/// hysteresis trips, the router cursor, accumulated statistics — is
/// captured exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetState {
    bays: Vec<BayState>,
    spec: Arc<DiskSpec>,
    thermal: DriveThermalSpec,
    routing: RoutingPolicy,
    router_cursor: usize,
    coordinator: CoordinatorState,
    airflow: AirflowGraph,
    envelope: Celsius,
    window: Seconds,
    windows_per_epoch: usize,
    threads: usize,
    sensor: TempSensor,
    incoming: Vec<Request>,
    epochs: u64,
    now: Seconds,
    primed: bool,
    array: Option<EnclosureArray>,
    rebuilds: Vec<Rebuild>,
    ambient_bias: Vec<f64>,
}

impl FleetState {
    /// The sync epoch this state was captured at.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Simulated time at capture.
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Number of enclosures the state carries.
    pub fn enclosures(&self) -> usize {
        self.bays.len()
    }
}

impl Fleet {
    /// Assembles the fleet: one single-disk `StorageSystem` (or RAID-5
    /// array) per airflow node, each started at `config.start` or, by
    /// default, thermally hot-started at its *preheated* idle steady
    /// state.
    ///
    /// # Errors
    ///
    /// Rejects a control window that is not positive and finite, a
    /// zero-window epoch, an epoch longer than 24 hours, a DTM policy
    /// speed that is negative or not finite and a speed the drive has no
    /// finite thermal window map at, and propagates simulator
    /// construction failures.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        check_settings(config.window, config.windows_per_epoch, &config.dtm)?;
        let n = config.airflow.len();
        let spec = Arc::new(config.spec);
        let maps = window_maps(config.thermal, config.window, spec.rpm(), &config.dtm)?;
        let mut bays = Vec::with_capacity(n);
        assemble_bays(&mut bays, &spec, config.array, &maps, &config.airflow, config.start)?;

        Ok(Self {
            bays,
            spec,
            maps,
            router: Router::new(config.routing),
            coordinator: Coordinator::new(config.dtm, config.envelope, n),
            airflow: config.airflow,
            envelope: config.envelope,
            window: config.window,
            windows_per_epoch: config.windows_per_epoch,
            threads: config.threads.max(1),
            sensor: config.sensor,
            incoming: VecDeque::new(),
            epochs: 0,
            now: Seconds::ZERO,
            primed: false,
            array: config.array,
            rebuilds: Vec::new(),
            ambient_bias: Vec::new(),
            boundary_events: Vec::new(),
            hot: FleetHotState::default(),
            route: RoutingScratch::default(),
            placements: Vec::new(),
            routing_run: Vec::new(),
            merge_entries: Vec::new(),
        })
    }

    /// Number of enclosures.
    pub fn len(&self) -> usize {
        self.bays.len()
    }

    /// Whether the fleet is empty (never true for a validated config).
    pub fn is_empty(&self) -> bool {
        self.bays.is_empty()
    }

    /// Runs a logical trace through the fleet. Requests target the fleet
    /// as a whole; the router picks a drive and the request's LBA is
    /// remapped into that drive's range (`device` and `lba` act as a
    /// placement hint, not an address).
    ///
    /// # Errors
    ///
    /// [`FleetError::NonFiniteArrival`] naming the first request whose
    /// arrival is NaN or infinite; [`FleetError::SimTimeCap`] when 24
    /// hours of sim time pass with requests still pending (a DTM policy
    /// that never releases a gated drive). Remapping keeps every
    /// submission in range, so nothing else fails after construction.
    pub fn run(self, trace: Vec<Request>) -> Result<FleetReport, FleetError> {
        let mut sink = diskobs::Sink::null();
        self.run_with_sink(trace, &mut sink)
    }

    /// Runs a logical trace, streaming trace events into `sink`: every
    /// routing decision, each enclosure's request and RPM events (tagged
    /// with its bay index through the sink scope), one `Snapshot` per
    /// enclosure per sync epoch, and the coordinator's actions.
    ///
    /// All timestamps are sim time and the buffered per-enclosure
    /// streams merge through a stable k-way merge (routing decisions
    /// first, then bay order on ties), so the emitted byte stream is
    /// identical at any shard count.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_with_sink(
        self,
        trace: Vec<Request>,
        sink: &mut diskobs::Sink,
    ) -> Result<FleetReport, FleetError> {
        let mut profile = FleetPhaseProfile::default();
        self.run_inner(trace, sink, &mut profile)
    }

    /// Like [`Self::run_with_sink`], but also reports where the
    /// wall-clock went: parallel window sweeps versus serial
    /// epoch-boundary synchronization.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_profiled(
        self,
        trace: Vec<Request>,
        sink: &mut diskobs::Sink,
    ) -> Result<(FleetReport, FleetPhaseProfile), FleetError> {
        let mut profile = FleetPhaseProfile::default();
        let report = self.run_inner(trace, sink, &mut profile)?;
        Ok((report, profile))
    }

    fn run_inner(
        mut self,
        mut trace: Vec<Request>,
        sink: &mut diskobs::Sink,
        profile: &mut FleetPhaseProfile,
    ) -> Result<FleetReport, FleetError> {
        if let Some(r) = trace.iter().find(|r| !r.arrival.get().is_finite()) {
            return Err(FleetError::NonFiniteArrival { id: r.id });
        }
        if sink.is_enabled() {
            self.enable_drive_sinks();
        }
        // Deterministic arrival order whatever the caller produced: the
        // order `offer` and the drives' arrival queues keep.
        trace.sort_by(|a, b| {
            a.arrival
                .get()
                .total_cmp(&b.arrival.get())
                .then(a.id.cmp(&b.id))
        });
        self.incoming = trace.into();

        loop {
            self.step_epoch(sink, profile);
            if self.is_drained() {
                break;
            }
            // A fleet gated forever would never drain.
            if self.now > SIM_TIME_CAP {
                let pending = self.incoming.len() as u64
                    + self.bays.iter().map(Bay::depth).sum::<u64>();
                return Err(FleetError::SimTimeCap {
                    at: self.now,
                    pending,
                });
            }
        }

        Ok(self.report())
    }

    /// Queues logical requests for routing at the next epoch boundary.
    ///
    /// The backlog stays in arrival order whatever order requests come
    /// in: each one goes after every queued request that arrives no
    /// later, so requests with equal arrival times route in the order
    /// they were offered. An in-order stream only appends.
    pub fn offer(&mut self, requests: impl IntoIterator<Item = Request>) {
        let requests = requests.into_iter();
        self.incoming.reserve(requests.size_hint().0);
        for r in requests {
            let t = r.arrival.get();
            match self.incoming.back() {
                Some(last) if t.total_cmp(&last.arrival.get()).is_lt() => {
                    let at = self
                        .incoming
                        .partition_point(|q| q.arrival.get().total_cmp(&t).is_le());
                    self.incoming.insert(at, r);
                }
                _ => self.incoming.push_back(r),
            }
        }
    }

    /// Turns on per-enclosure event emission for stepwise callers (the
    /// batch `run` entry points do this themselves): each drive gets a
    /// buffer sink tagged with its bay index, and [`Self::step_epoch`]
    /// drains them through its deterministic k-way merge into the sink
    /// it is handed. Call once before the first `step_epoch`; pair with
    /// [`Self::disable_drive_sinks`] when switching back to untraced
    /// stepping, or buffered events accumulate undrained.
    pub fn enable_drive_sinks(&mut self) {
        for (i, b) in self.bays.iter_mut().enumerate() {
            b.system.set_sink(diskobs::Sink::buffer().with_scope(i));
        }
    }

    /// Reverts every drive to the no-op sink (no per-request events).
    pub fn disable_drive_sinks(&mut self) {
        for b in &mut self.bays {
            b.system.set_sink(diskobs::Sink::null());
        }
    }

    /// Whether no work remains anywhere: nothing queued for routing,
    /// nothing pending admission, nothing in flight.
    pub fn is_drained(&self) -> bool {
        self.incoming.is_empty() && self.bays.iter().all(|b| b.depth() == 0)
    }

    /// Advances the fleet through exactly one sync epoch: commits the
    /// epoch's routing, sweeps every enclosure's windows in parallel,
    /// rolls the airflow hierarchy up and back down, stages and commits
    /// the coordinator's decisions, and streams the per-enclosure event
    /// runs into `sink`. [`Self::run`] is a loop over this method; the
    /// digital twin calls it directly to keep a fleet warm while it
    /// serves queries.
    ///
    /// The boundary itself is split-phase: the shards *propose* in two
    /// parallel passes (arrival delivery, window sweeps and statistics
    /// folds in pass A; ambient push-back, coordinator proposals and the
    /// next epoch's routing proposals in pass B) and only three cheap
    /// reduces run serially — the routing commit, which merges the
    /// chunks' proposed placements, the O(racks) airflow roll-up, and
    /// the in-order coordinator commit — plus, when tracing, the k-way
    /// event merge.
    /// Every proposal reads epoch-start state and every commit happens
    /// in enclosure order, so the results are byte-identical at any
    /// shard count.
    pub fn step_epoch(&mut self, sink: &mut diskobs::Sink, profile: &mut FleetPhaseProfile) {
        if !self.primed {
            self.coordinator
                .prime(|i, rpm| self.bays[i].set_rpm(rpm, &self.maps));
            self.primed = true;
        }

        let n = self.bays.len();
        let epoch_len = self.window * self.windows_per_epoch as f64;
        let epoch_start = std::time::Instant::now();
        let epoch_end = self.now + epoch_len;
        let ctx = EpochCtx {
            maps: &self.maps,
            first_window: self.epochs * self.windows_per_epoch as u64,
            windows_per_epoch: self.windows_per_epoch,
            window: self.window,
            envelope: self.envelope,
            epoch_end: epoch_end.get(),
            epoch_len,
            sink_enabled: sink.is_enabled(),
            sensor: self.sensor,
            routing: self.router.policy(),
            threads: self.threads,
        };

        // Serial reduce 1 — the routing commit. Placements follow the
        // epoch-start snapshot (the scores and queue depths the last
        // pass B staged, and the committed gates) plus a running count
        // of this epoch's placements, so the decision sequence is
        // independent of sharding. Pass B drew each chunk's placements
        // from its own loser tree; the commit merges them, O(log chunks)
        // each, and only picks bays: pass A queues each arrival on its
        // bay.
        self.hot.ensure(&self.bays, self.router.policy());
        let mut routing_run = std::mem::take(&mut self.routing_run);
        routing_run.clear();

        // Boundary injections (failures, excursions, traffic phases)
        // land at exactly `now`, ahead of this epoch's arrivals, so the
        // merged stream stays time-sorted. They were queued between
        // epochs by `fail_drive` / the scenario engine, serially, so
        // they are identical at any shard count.
        if ctx.sink_enabled {
            for event in self.boundary_events.drain(..) {
                routing_run.push(diskobs::TimedEvent { t: self.now.get(), event });
            }
        } else {
            self.boundary_events.clear();
        }

        // Rebuild scans: budget each active rebuild `rate × epoch` of
        // sequential logical reads, queued ahead of the epoch's routed
        // arrivals. On a degraded array every read reconstructs from
        // the survivors — the storm. This is serial per-epoch work of
        // O(active rebuilds) bookkeeping, so it cannot perturb shard
        // byte-identity.
        let mut k = 0;
        while k < self.rebuilds.len() {
            let rb = &mut self.rebuilds[k];
            let bay = &mut self.bays[rb.enclosure];
            let mut budget = rb.rate * epoch_len.get() + rb.carry;
            while budget >= rb.chunk as f64 && rb.done < rb.total {
                let sectors = (rb.chunk as u64).min(rb.total - rb.next_lba) as u32;
                bay.pending.push_back(Request::new(
                    REBUILD_ID_BASE + rb.next_lba,
                    self.now,
                    0,
                    rb.next_lba,
                    sectors,
                    disksim::RequestKind::Read,
                ));
                budget -= sectors as f64;
                rb.done += sectors as u64;
                rb.next_lba = if rb.next_lba + sectors as u64 >= rb.total {
                    0
                } else {
                    rb.next_lba + sectors as u64
                };
            }
            rb.carry = budget.min(rb.rate * epoch_len.get());
            if ctx.sink_enabled {
                routing_run.push(diskobs::TimedEvent {
                    t: self.now.get(),
                    event: diskobs::Event::RebuildProgress {
                        enclosure: rb.enclosure,
                        done: rb.done,
                        total: rb.total,
                    },
                });
            }
            if rb.done >= rb.total {
                bay.system.repair_disk();
                self.rebuilds.remove(k);
            } else {
                k += 1;
            }
        }

        let ctl = self.coordinator.states();
        let hot = &mut self.hot;
        self.route
            .begin(self.router.policy(), &mut hot.scores, &hot.queue, ctl);
        self.placements.clear();
        for r in &self.incoming {
            if r.arrival > epoch_end {
                break;
            }
            let i = self
                .route
                .place(&mut self.router, ctl, &hot.scores, &mut hot.queue);
            self.placements.push(i);
            if ctx.sink_enabled {
                routing_run.push(diskobs::TimedEvent {
                    t: r.arrival.get(),
                    event: diskobs::Event::RoutingDecision {
                        request: r.id,
                        drive: i,
                    },
                });
            }
        }

        // Parallel pass A — placement delivery, window sweeps and per-bay
        // folds.
        let stamp = std::time::Instant::now();
        self.hot.pass_a(
            &mut self.bays,
            self.coordinator.states(),
            (&self.incoming, &self.placements),
            &ctx,
        );
        let mut parallel = stamp.elapsed();
        self.incoming.drain(..self.placements.len());

        // Serial reduce 2 — the only cross-rack thermal coupling:
        // per-rack heat totals roll up into per-level preheat prefixes,
        // O(racks). Flat graphs keep the dense evaluation.
        let hot = &mut self.hot;
        if let Some(shape) = self.airflow.hall_shape() {
            rack_heats(&shape, &hot.heat, &mut hot.rack_heat);
            self.airflow.rack_preheats(&shape, &hot.rack_heat, &mut hot.rack_base);
        } else {
            self.airflow.local_ambients_into(&hot.heat, &mut hot.flat_ambients);
        }

        // Parallel pass B — ambient push-back, boundary events, and
        // coordinator proposals.
        let stamp = std::time::Instant::now();
        self.hot.pass_b(
            &mut self.bays,
            &self.coordinator,
            &self.airflow,
            &mut self.route,
            &ctx,
            &self.ambient_bias,
        );
        parallel += stamp.elapsed();

        // Serial reduce 3 — install the proposals in enclosure order.
        self.coordinator.commit_all(&self.hot.proposals);

        if ctx.sink_enabled {
            // Serial merge of the runs straight into the sink (routing
            // run first, then each bay's run, so equal timestamps keep
            // that order, exactly as a global stable time-sort would):
            // the bytes are shard-independent, the runs are borrowed,
            // then cleared with their capacity kept for the next epoch,
            // and so are the merge's sort entries, so a traced epoch
            // allocates nothing once they have grown. It counts as
            // serial time.
            let bays = &self.bays;
            let run = |r: usize| match r {
                0 => routing_run.as_slice(),
                _ => bays[r - 1].run.as_slice(),
            };
            disksim::par::merge_runs_by(
                n + 1,
                run,
                |e| disksim::par::total_order_key(e.t),
                &mut self.merge_entries,
                |e| sink.record(e),
            );
            routing_run.clear();
            for b in &mut self.bays {
                b.run.clear();
            }
        }
        self.routing_run = routing_run;

        self.epochs += 1;
        self.now = epoch_end;
        profile.parallel_ms += parallel.as_secs_f64() * 1e3;
        profile.serial_ms += epoch_start
            .elapsed()
            .saturating_sub(parallel)
            .as_secs_f64()
            * 1e3;
        profile.epochs = self.epochs;
    }

    /// Assembles a [`FleetReport`] from the fleet's current state
    /// without consuming it, so the stepwise caller can keep advancing
    /// afterwards.
    pub fn report(&self) -> FleetReport {
        let n = self.bays.len();
        let now = self.now;
        let per_enclosure: Vec<EnclosureReport> =
            self.bays.iter().map(|b| b.report(now)).collect();

        let max_air = per_enclosure
            .iter()
            .map(|e| e.max_air)
            .fold(self.airflow.inlet(), Celsius::max);
        let peak_local_ambient = per_enclosure
            .iter()
            .map(|e| e.max_local_ambient)
            .fold(self.airflow.inlet(), Celsius::max);
        let mean_air = Celsius::new(
            per_enclosure.iter().map(|e| e.mean_air.get()).sum::<f64>() / n.max(1) as f64,
        );
        let time_over_envelope = per_enclosure
            .iter()
            .fold(Seconds::ZERO, |acc, e| acc + e.time_over_envelope);

        FleetReport {
            enclosures: n,
            stats: self.stats(),
            max_air,
            peak_local_ambient,
            mean_air,
            total_time: now,
            time_over_envelope,
            epochs: self.epochs,
            per_enclosure,
        }
    }

    /// Response-time statistics accumulated so far: the per-enclosure
    /// folds merged in enclosure order, which is deterministic at any
    /// shard count.
    pub fn stats(&self) -> ResponseStats {
        let mut total = ResponseStats::new();
        for b in &self.bays {
            total.merge(&b.stats);
        }
        total
    }

    /// Completions folded into [`Self::stats`] so far: each bay's count,
    /// summed. Equal to `self.stats().count()` (merging adds counts)
    /// without merging every bay's histogram.
    pub fn stats_count(&self) -> u64 {
        self.bays.iter().map(|b| b.stats.count()).sum()
    }

    /// Discards the accumulated response-time statistics. What-if forks
    /// call this on both the baseline and the perturbed copy at the
    /// fork point so the comparison covers only the forked horizon.
    pub fn reset_stats(&mut self) {
        for b in &mut self.bays {
            b.stats = ResponseStats::new();
        }
    }

    /// Current simulated time (epoch boundary).
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Simulated length of one sync epoch.
    pub fn epoch_len(&self) -> Seconds {
        self.window * self.windows_per_epoch as f64
    }

    /// The rack inlet temperature before preheat.
    pub fn inlet(&self) -> Celsius {
        self.airflow.inlet()
    }

    /// Sync epochs executed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The hottest internal-air temperature across the fleet right now.
    pub fn peak_air(&self) -> Celsius {
        self.bays.iter().map(Bay::air).fold(self.airflow.inlet(), Celsius::max)
    }

    /// The hottest preheated local ambient across the fleet right now.
    pub fn peak_local_ambient(&self) -> Celsius {
        self.bays.iter().map(Bay::ambient).fold(self.airflow.inlet(), Celsius::max)
    }

    /// Number of drives currently under coordinator control action.
    pub fn engaged_count(&self) -> usize {
        self.coordinator.engaged()
    }

    /// Moves the rack inlet temperature (the CRAC-setpoint what-if).
    /// Takes effect at the next epoch's airflow coupling.
    pub fn set_inlet(&mut self, inlet: Celsius) {
        self.airflow.set_inlet(inlet);
    }

    /// Fails one RAID-5 member of an enclosure and starts the rebuild
    /// scan `rebuild` describes (a non-positive rate leaves the array
    /// degraded with no rebuild). Subsequent requests map through
    /// degraded-mode reconstruction; the scan completes at the epoch
    /// granularity and repairs the array when it covers the volume.
    ///
    /// Call between epochs (it queues a `DriveFailed` boundary event
    /// for the next epoch's stream, stamped at the boundary time).
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchEnclosure`] for an out-of-range enclosure;
    /// [`disksim::SimError::NoSuchDevice`] for an out-of-range member,
    /// [`disksim::SimError::AlreadyDegraded`] for a double failure, and
    /// [`disksim::SimError::BadConfig`] on a non-RAID fleet (all via
    /// [`FleetError::Sim`]).
    pub fn fail_drive(
        &mut self,
        enclosure: usize,
        disk: u32,
        rebuild: RebuildSpec,
    ) -> Result<(), FleetError> {
        let fleet = self.bays.len();
        let Some(bay) = self.bays.get_mut(enclosure) else {
            return Err(FleetError::NoSuchEnclosure { enclosure, fleet });
        };
        bay.system.fail_disk(disk)?;
        if rebuild.rate_sectors_per_sec > 0.0 && rebuild.chunk_sectors > 0 {
            self.rebuilds.push(Rebuild {
                enclosure,
                disk,
                next_lba: 0,
                total: bay.system.logical_sectors(),
                done: 0,
                rate: rebuild.rate_sectors_per_sec,
                chunk: rebuild.chunk_sectors,
                carry: 0.0,
            });
        }
        self.boundary_events.push(diskobs::Event::DriveFailed { enclosure, disk });
        Ok(())
    }

    /// Active rebuild scans, in injection order.
    pub fn rebuilds(&self) -> &[Rebuild] {
        &self.rebuilds
    }

    /// Installs a per-enclosure inlet-temperature bias in Celsius
    /// (cooling excursions). An empty slice clears every bias; a zero
    /// entry is exactly a no-op for that bay. Takes effect at the next
    /// epoch's airflow coupling.
    ///
    /// # Errors
    ///
    /// Rejects a non-empty slice whose length differs from the fleet's.
    pub fn set_ambient_bias(&mut self, bias: &[f64]) -> Result<(), FleetError> {
        if !bias.is_empty() && bias.len() != self.bays.len() {
            return Err(FleetError::Config(format!(
                "ambient bias covers {} drives but the fleet has {}",
                bias.len(),
                self.bays.len()
            )));
        }
        self.ambient_bias.clear();
        self.ambient_bias.extend_from_slice(bias);
        Ok(())
    }

    /// Queues an observability event for the next epoch boundary
    /// (stamped at the boundary time, ahead of the epoch's arrivals).
    /// The scenario engine announces excursions and traffic phases
    /// through this.
    pub fn push_boundary_event(&mut self, event: diskobs::Event) {
        self.boundary_events.push(event);
    }

    /// Grows the fleet in place: `airflow` replaces the coupling graph
    /// and must contain every existing bay (same indices) plus the new
    /// ones at the tail. New bays are built from the fleet's own disk
    /// and thermal specs as [`Self::new`] would without a start
    /// temperature — idle-preheated against the new graph — and the
    /// coordinator primes them through its policy.
    ///
    /// # Errors
    ///
    /// Rejects a graph that does not grow the fleet and propagates
    /// simulator construction failures.
    pub fn add_enclosures(&mut self, airflow: AirflowGraph) -> Result<(), FleetError> {
        let old = self.bays.len();
        let n = airflow.len();
        if n <= old {
            return Err(FleetError::Config(format!(
                "replacement airflow graph must grow the fleet: {n} nodes for {old} existing bays"
            )));
        }
        assemble_bays(&mut self.bays, &self.spec, self.array, &self.maps, &airflow, None)?;
        self.airflow = airflow;
        self.coordinator
            .grow(n - old, |i, rpm| self.bays[i].set_rpm(rpm, &self.maps));
        Ok(())
    }

    /// Captures the fleet's complete dynamic state between sync epochs.
    pub fn capture_state(&self) -> FleetState {
        FleetState {
            bays: self.bays.iter().map(Bay::capture_state).collect(),
            spec: Arc::clone(&self.spec),
            thermal: *self.maps.spec(),
            routing: self.router.policy(),
            router_cursor: self.router.cursor(),
            coordinator: self.coordinator.capture_state(),
            airflow: self.airflow.clone(),
            envelope: self.envelope,
            window: self.window,
            windows_per_epoch: self.windows_per_epoch,
            threads: self.threads,
            sensor: self.sensor,
            incoming: self.incoming.iter().copied().collect(),
            epochs: self.epochs,
            now: self.now,
            primed: self.primed,
            array: self.array,
            rebuilds: self.rebuilds.clone(),
            ambient_bias: self.ambient_bias.clone(),
        }
    }

    /// Rebuilds a fleet mid-flight from a captured state. Advancing the
    /// restored fleet produces byte-identical results to advancing the
    /// original.
    ///
    /// # Errors
    ///
    /// Rejects inconsistent states (mismatched enclosure / airflow /
    /// coordinator sizes, an airflow graph, windows, epochs, DTM speeds
    /// and an enclosure array [`Self::new`] would reject,
    /// a thermal spec [`DriveThermalSpec::try_new`] would reject, a disk
    /// spec [`DiskSpec::validate`] refuses, a bay speed that is neither
    /// the disk spec's nor one the DTM policy sets, response statistics
    /// whose counts, span or extremes do not hold together) and
    /// propagates simulator restore failures — the checks that catch a
    /// corrupted checkpoint body whose JSON still parses. The window
    /// maps are rebuilt, serially, for the disk's and the policy's
    /// speeds, exactly as [`Self::new`] builds them.
    pub fn restore_state(state: FleetState) -> Result<Self, FleetError> {
        if state.bays.is_empty() {
            return Err(FleetError::Config("fleet state has no enclosures".into()));
        }
        let n = state.bays.len();
        state.airflow.validate()?;
        if state.airflow.len() != n {
            return Err(FleetError::Config(format!(
                "airflow graph covers {} drives but the state carries {n} enclosures",
                state.airflow.len()
            )));
        }
        if state.coordinator.drives() != n {
            return Err(FleetError::Config(format!(
                "coordinator state covers {} drives but the state carries {n} enclosures",
                state.coordinator.drives()
            )));
        }
        check_settings(state.window, state.windows_per_epoch, &state.coordinator.policy())?;
        state
            .thermal
            .validate()
            .map_err(|e| FleetError::Config(format!("fleet thermal spec: {e}")))?;
        state.spec.validate()?;
        let system = bay_config(&state.spec, state.array)?;
        if let Some(rb) = state.rebuilds.iter().find(|rb| rb.enclosure >= n) {
            return Err(FleetError::Config(format!(
                "rebuild targets enclosure {} but the state carries {n}",
                rb.enclosure
            )));
        }
        if !state.ambient_bias.is_empty() && state.ambient_bias.len() != n {
            return Err(FleetError::Config(format!(
                "ambient bias covers {} drives but the state carries {n} enclosures",
                state.ambient_bias.len()
            )));
        }
        let maps = window_maps(
            state.thermal,
            state.window,
            state.spec.rpm(),
            &state.coordinator.policy(),
        )?;
        // Reserved up front: a fallible collect cannot size its Vec.
        let mut bays = Vec::with_capacity(n);
        for (i, b) in state.bays.into_iter().enumerate() {
            bays.push(Bay::restore_state(i, b, &maps, system.clone())?);
        }
        Ok(Self {
            bays,
            spec: state.spec,
            maps,
            router: Router::new(state.routing).with_cursor(state.router_cursor),
            coordinator: Coordinator::restore_state(state.coordinator),
            airflow: state.airflow,
            envelope: state.envelope,
            window: state.window,
            windows_per_epoch: state.windows_per_epoch,
            threads: state.threads.max(1),
            sensor: state.sensor,
            incoming: state.incoming.into(),
            epochs: state.epochs,
            now: state.now,
            primed: state.primed,
            array: state.array,
            rebuilds: state.rebuilds,
            ambient_bias: state.ambient_bias,
            boundary_events: Vec::new(),
            hot: FleetHotState::default(),
            route: RoutingScratch::default(),
            placements: Vec::new(),
            routing_run: Vec::new(),
            merge_entries: Vec::new(),
        })
    }
}

/// Checks what every epoch relies on: a positive, finite control window,
/// at least one window per epoch, an epoch no longer than
/// [`SIM_TIME_CAP`], and DTM speeds a drive can spin at.
fn check_settings(
    window: Seconds,
    windows_per_epoch: usize,
    dtm: &FleetDtmPolicy,
) -> Result<(), FleetError> {
    if !(window.get().is_finite() && window.get() > 0.0) {
        return Err(FleetError::Config(format!(
            "control window must be positive and finite, got {} s",
            window.get()
        )));
    }
    if windows_per_epoch == 0 {
        return Err(FleetError::Config("an epoch needs at least one window".into()));
    }
    let epoch = window * windows_per_epoch as f64;
    if epoch > SIM_TIME_CAP {
        return Err(FleetError::Config(format!(
            "a {} s epoch exceeds the {} s sim-time cap",
            epoch.get(),
            SIM_TIME_CAP.get()
        )));
    }
    dtm.check_speeds()
}

/// The window maps of `thermal`'s drive over `window`-long windows at
/// the disk's own speed `rpm` and every speed `dtm` can set.
fn window_maps(
    thermal: DriveThermalSpec,
    window: Seconds,
    rpm: Rpm,
    dtm: &FleetDtmPolicy,
) -> Result<WindowMaps, FleetError> {
    let mut maps = WindowMaps::new(thermal, window);
    for speed in std::iter::once(rpm).chain(dtm.speeds().into_iter().flatten()) {
        maps.ensure(speed)?;
    }
    Ok(maps)
}

/// Appends the bays of `airflow` past those already in `bays`, each
/// started at `start` or, when `None`, at its idle-preheated steady
/// state under the local ambient the idling bays upstream produce.
/// `maps` holds the map at the disk's speed.
fn assemble_bays(
    bays: &mut Vec<Bay>,
    spec: &Arc<DiskSpec>,
    array: Option<EnclosureArray>,
    maps: &WindowMaps,
    airflow: &AirflowGraph,
    start: Option<NodeTemps>,
) -> Result<(), FleetError> {
    let thermal = maps.spec();
    let idle = OperatingPoint::idle_vcm(spec.rpm());
    let idle_heat = drive_heat_estimate(thermal, idle).get();
    let ambients = airflow.local_ambients(&vec![idle_heat; airflow.len()]);
    let config = bay_config(spec, array)?;
    for ambient in ambients.into_iter().skip(bays.len()) {
        let system = StorageSystem::new(config.clone())?;
        let temps = start.unwrap_or_else(|| {
            ThermalModel::new(thermal.with_ambient(ambient)).steady_state(idle)
        });
        bays.push(Bay::new(system, maps, temps, ambient));
    }
    Ok(())
}

/// The per-bay storage configuration: one `spec` drive, or a RAID-5
/// array of them presented as one logical volume.
fn bay_config(
    spec: &Arc<DiskSpec>,
    array: Option<EnclosureArray>,
) -> Result<SystemConfig, FleetError> {
    Ok(match array {
        Some(a) => SystemConfig::raid5(Arc::clone(spec), a.disks, a.stripe_sectors)?,
        None => SystemConfig::single_disk(Arc::clone(spec)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::RequestKind;
    use units::{Inches, TempDelta};

    fn config(enclosures: usize, rpm: f64, stream: f64) -> FleetConfig {
        FleetConfig::serial(
            enclosures,
            DiskSpec::era(2002, 1, Rpm::new(rpm)),
            DriveThermalSpec::new(Inches::new(2.6), 1),
            stream,
        )
        .unwrap()
    }

    fn trace(n: u64, rate: f64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::new(
                    i,
                    Seconds::new(i as f64 / rate),
                    0,
                    i.wrapping_mul(7_777_777),
                    8,
                    if i % 4 == 0 { RequestKind::Write } else { RequestKind::Read },
                )
            })
            .collect()
    }

    #[test]
    fn every_request_completes_once() {
        let fleet = Fleet::new(config(4, 15_020.0, 12.0)).unwrap();
        let report = fleet.run(trace(1_000, 300.0)).unwrap();
        assert_eq!(report.stats.count(), 1_000);
        assert_eq!(report.per_enclosure.iter().map(|e| e.completed).sum::<u64>(), 1_000);
        assert_eq!(report.per_enclosure.iter().map(|e| e.routed).sum::<u64>(), 1_000);
        assert!(report.total_time.get() > 0.0);
    }

    #[test]
    fn a_fleet_gated_forever_is_an_error() {
        // An envelope below the idle temperature gates every drive at
        // the first epoch boundary and never reopens it; 10-minute
        // windows reach the 24-hour cap in 37 epochs. Request 0 arrives
        // in the first epoch, before anything is gated, and completes.
        let mut cfg = config(1, 15_020.0, 12.0);
        cfg.envelope = Celsius::new(20.0);
        cfg.dtm = FleetDtmPolicy::Throttle {
            speeds: None,
            guard: TempDelta::new(0.3),
            resume_margin: TempDelta::new(0.3),
        };
        cfg.window = Seconds::new(600.0);
        let err = Fleet::new(cfg)
            .unwrap()
            .run(trace(6, 1.0 / 3_000.0))
            .unwrap_err();
        let FleetError::SimTimeCap { at, pending } = err else {
            panic!("expected the sim-time cap, got {err}");
        };
        assert!(at.get() > 24.0 * 3600.0, "stopped early at {at}");
        assert_eq!(pending, 5);
    }

    #[test]
    fn downstream_bays_start_hotter_and_peak_hotter_under_uniform_load() {
        let fleet = Fleet::new(config(6, 15_020.0, 8.0)).unwrap();
        let report = fleet.run(trace(1_800, 300.0)).unwrap();
        let first = &report.per_enclosure[0];
        let last = &report.per_enclosure[5];
        assert!(
            last.max_local_ambient > first.max_local_ambient,
            "serial preheat must build downstream"
        );
        assert!(last.max_air > first.max_air);
        assert_eq!(report.peak_local_ambient, last.max_local_ambient);
    }

    #[test]
    fn shard_count_does_not_change_the_bytes() {
        let run = |threads: usize| {
            let mut cfg = config(6, 15_020.0, 10.0);
            cfg.threads = threads;
            cfg.routing = RoutingPolicy::ThermalAware {
                envelope: THERMAL_ENVELOPE,
            };
            cfg.dtm = FleetDtmPolicy::SpeedScale {
                high: Rpm::new(15_020.0),
                low: Rpm::new(12_000.0),
                guard: TempDelta::new(0.3),
                resume_margin: TempDelta::new(0.3),
            };
            serde_json::to_string(&Fleet::new(cfg).unwrap().run(trace(1_200, 350.0)).unwrap())
                .unwrap()
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn hall_topology_is_byte_identical_at_any_shard_count() {
        // 24 drives as 2 rows of 3 racks × 4 bays, with DTM engaged so
        // the two-phase commit actually has transitions to order.
        let run = |threads: usize| {
            let airflow = AirflowGraph::hall(
                24,
                4,
                3,
                Celsius::new(28.0),
                0.05,
                0.01,
                0.004,
            )
            .unwrap();
            let mut cfg = config(24, 15_020.0, 10.0);
            cfg.airflow = airflow;
            cfg.threads = threads;
            cfg.routing = RoutingPolicy::ThermalAware {
                envelope: THERMAL_ENVELOPE,
            };
            cfg.dtm = FleetDtmPolicy::Throttle {
                speeds: None,
                guard: TempDelta::new(0.3),
                resume_margin: TempDelta::new(0.3),
            };
            serde_json::to_string(&Fleet::new(cfg).unwrap().run(trace(2_000, 500.0)).unwrap())
                .unwrap()
        };
        let serial = run(1);
        assert_eq!(serial, run(3), "3 shards split racks unevenly");
        assert_eq!(serial, run(8));
    }

    #[test]
    fn thermal_aware_routing_runs_cooler_than_round_robin() {
        let run = |routing: RoutingPolicy| {
            let mut cfg = config(6, 15_020.0, 6.0);
            cfg.routing = routing;
            Fleet::new(cfg).unwrap().run(trace(2_400, 400.0)).unwrap()
        };
        let rr = run(RoutingPolicy::RoundRobin);
        let ta = run(RoutingPolicy::ThermalAware {
            envelope: THERMAL_ENVELOPE,
        });
        assert_eq!(rr.stats.count(), ta.stats.count());
        assert!(
            ta.max_air < rr.max_air,
            "slack-weighted placement must cool the hottest bay: {} vs {}",
            ta.max_air,
            rr.max_air
        );
    }

    #[test]
    fn coordinator_throttle_caps_the_fleet() {
        // An over-envelope design speed: uncontrolled the hot bays
        // exceed the envelope, gated they hold near it.
        let run = |dtm: FleetDtmPolicy| {
            let mut cfg = config(4, 24_534.0, 10.0);
            cfg.dtm = dtm;
            Fleet::new(cfg).unwrap().run(trace(1_600, 260.0)).unwrap()
        };
        let base = run(FleetDtmPolicy::None);
        assert!(
            base.max_air > THERMAL_ENVELOPE,
            "uncontrolled hot fleet must violate the envelope, peaked {}",
            base.max_air
        );
        let gated = run(FleetDtmPolicy::Throttle {
            speeds: None,
            guard: TempDelta::new(0.1),
            resume_margin: TempDelta::new(0.2),
        });
        assert_eq!(gated.stats.count(), 1_600, "gating delays, never drops");
        assert!(gated.max_air < base.max_air);
        assert!(
            gated.per_enclosure.iter().any(|e| e.time_gated.get() > 0.0),
            "the gate must actually engage"
        );
    }

    #[test]
    fn speed_scale_trims_heat_without_gating() {
        let run = |dtm: FleetDtmPolicy| {
            let mut cfg = config(4, 24_534.0, 10.0);
            cfg.dtm = dtm;
            Fleet::new(cfg).unwrap().run(trace(1_600, 260.0)).unwrap()
        };
        let base = run(FleetDtmPolicy::None);
        let scaled = run(FleetDtmPolicy::SpeedScale {
            high: Rpm::new(24_534.0),
            low: Rpm::new(15_020.0),
            guard: TempDelta::new(0.3),
            resume_margin: TempDelta::new(0.3),
        });
        assert_eq!(scaled.stats.count(), 1_600);
        assert!(scaled.max_air < base.max_air);
        assert!(scaled.per_enclosure.iter().any(|e| e.time_scaled.get() > 0.0));
        assert!(scaled.per_enclosure.iter().all(|e| e.time_gated == Seconds::ZERO));
    }

    #[test]
    fn bad_configs_are_rejected() {
        for window in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            let mut cfg = config(2, 15_020.0, 12.0);
            cfg.window = Seconds::new(window);
            assert!(matches!(Fleet::new(cfg), Err(FleetError::Config(_))), "window {window}");
        }
        let mut cfg = config(2, 15_020.0, 12.0);
        cfg.windows_per_epoch = 0;
        assert!(matches!(Fleet::new(cfg), Err(FleetError::Config(_))));
        let mut cfg = config(2, 15_020.0, 12.0);
        cfg.dtm = FleetDtmPolicy::Throttle {
            speeds: Some((Rpm::new(15_020.0), Rpm::new(-1.0))),
            guard: TempDelta::new(0.3),
            resume_margin: TempDelta::new(0.3),
        };
        assert!(matches!(Fleet::new(cfg), Err(FleetError::Config(_))));
        // A stopped spindle has no rotation period.
        let mut cfg = config(1, 15_020.0, 12.0);
        cfg.dtm = FleetDtmPolicy::SpeedScale {
            high: Rpm::new(0.0),
            low: Rpm::new(0.0),
            guard: TempDelta::new(0.3),
            resume_margin: TempDelta::new(0.3),
        };
        assert!(matches!(Fleet::new(cfg), Err(FleetError::Config(_))));
        // A 25-hour epoch outruns the 24-hour sim-time cap; 24 hours fits.
        let mut cfg = config(2, 15_020.0, 12.0);
        cfg.window = Seconds::new(3_600.0);
        cfg.windows_per_epoch = 25;
        assert!(matches!(Fleet::new(cfg), Err(FleetError::Config(_))));
        let mut cfg = config(2, 15_020.0, 12.0);
        cfg.window = Seconds::new(3_600.0);
        cfg.windows_per_epoch = 24;
        assert!(Fleet::new(cfg).is_ok());
        assert!(FleetConfig::serial(
            0,
            DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
            DriveThermalSpec::new(Inches::new(2.6), 1),
            12.0,
        )
        .is_err());
    }

    #[test]
    fn fail_drive_errors_are_typed_and_rebuild_repairs() {
        // Large stripes keep the degraded reconstruct fan-out (ops per
        // stripe touched) small enough for a whole-volume scan in-test.
        let mut cfg = config(3, 15_020.0, 12.0);
        cfg.array = Some(EnclosureArray { disks: 4, stripe_sectors: 65_536 });
        let mut fleet = Fleet::new(cfg).unwrap();
        assert!(matches!(
            fleet.fail_drive(9, 0, RebuildSpec::default()),
            Err(FleetError::NoSuchEnclosure { enclosure: 9, fleet: 3 })
        ));
        assert!(matches!(
            fleet.fail_drive(1, 9, RebuildSpec::default()),
            Err(FleetError::Sim(disksim::SimError::NoSuchDevice { .. }))
        ));
        // A rate that covers the whole volume in one epoch's budget.
        let flood = RebuildSpec { rate_sectors_per_sec: 1e12, chunk_sectors: 1_000_000 };
        fleet.fail_drive(1, 2, flood).unwrap();
        assert!(matches!(
            fleet.fail_drive(1, 0, RebuildSpec::default()),
            Err(FleetError::Sim(disksim::SimError::AlreadyDegraded { device: 2 }))
        ));
        assert_eq!(fleet.rebuilds().len(), 1);
        assert_eq!(fleet.rebuilds()[0].enclosure(), 1);
        let mut sink = diskobs::Sink::null();
        let mut profile = FleetPhaseProfile::default();
        fleet.step_epoch(&mut sink, &mut profile);
        assert!(fleet.rebuilds().is_empty(), "one-epoch budget must finish the scan");
        // Repaired: the same member can fail again.
        assert!(fleet.fail_drive(1, 2, RebuildSpec::default()).is_ok());
    }

    #[test]
    fn fail_drive_on_a_single_disk_fleet_is_an_error() {
        let mut fleet = Fleet::new(config(2, 15_020.0, 12.0)).unwrap();
        assert!(matches!(
            fleet.fail_drive(0, 0, RebuildSpec::default()),
            Err(FleetError::Sim(disksim::SimError::BadConfig(_)))
        ));
    }

    #[test]
    fn ambient_bias_must_match_the_fleet() {
        let mut fleet = Fleet::new(config(4, 15_020.0, 12.0)).unwrap();
        assert!(fleet.set_ambient_bias(&[1.0; 4]).is_ok());
        assert!(fleet.set_ambient_bias(&[]).is_ok());
        assert!(matches!(
            fleet.set_ambient_bias(&[1.0; 3]),
            Err(FleetError::Config(_))
        ));
    }

    #[test]
    fn zero_bias_is_byte_identical_to_no_bias() {
        let run = |biased: bool| {
            let mut cfg = config(4, 15_020.0, 10.0);
            cfg.dtm = FleetDtmPolicy::SpeedScale {
                high: Rpm::new(15_020.0),
                low: Rpm::new(12_000.0),
                guard: TempDelta::new(0.3),
                resume_margin: TempDelta::new(0.3),
            };
            let mut fleet = Fleet::new(cfg).unwrap();
            if biased {
                fleet.set_ambient_bias(&[0.0; 4]).unwrap();
            }
            fleet.offer(trace(800, 300.0));
            let mut sink = diskobs::Sink::null();
            let mut profile = FleetPhaseProfile::default();
            for _ in 0..12 {
                fleet.step_epoch(&mut sink, &mut profile);
            }
            serde_json::to_string(&fleet.report()).unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn an_early_offer_is_not_stranded_behind_a_later_one() {
        let at = |id, t| Request::new(id, Seconds::new(t), 0, 0, 8, RequestKind::Read);
        // One bay, 1 s epochs.
        let mut fleet = Fleet::new(config(1, 15_020.0, 12.0)).unwrap();
        fleet.offer([at(0, 5.0)]);
        fleet.offer([at(1, 0.1), at(2, 5.0), at(3, 0.1)]);
        let order: Vec<u64> = fleet.incoming.iter().map(|r| r.id).collect();
        assert_eq!(order, [1, 3, 0, 2], "arrival order, ties in offer order");
        let mut sink = diskobs::Sink::null();
        let mut profile = FleetPhaseProfile::default();
        fleet.step_epoch(&mut sink, &mut profile);
        assert_eq!(fleet.report().per_enclosure[0].routed, 2, "both 0.1 s requests route");
        assert_eq!(fleet.stats_count(), fleet.stats().count());
    }

    #[test]
    fn a_restored_fleet_resumes_its_sensor_ramp_and_energy_exactly() {
        // The held sensor reading, the slack-ramp state, boosted time
        // and energy all ride in the checkpoint: a fleet restored
        // mid-run from its JSON state continues byte for byte.
        let mut cfg = config(2, 15_020.0, 10.0);
        cfg.dtm = FleetDtmPolicy::SlackRamp {
            base: Rpm::new(15_020.0),
            high: Rpm::new(26_000.0),
            slack_margin: TempDelta::new(0.5),
        };
        cfg.sensor = TempSensor::smart_style();
        cfg.windows_per_epoch = 1;
        cfg.start = Some(NodeTemps::uniform(Celsius::new(43.8)));
        let mut fleet = Fleet::new(cfg).unwrap();
        fleet.offer(trace(1_200, 300.0));
        let mut sink = diskobs::Sink::null();
        let mut profile = FleetPhaseProfile::default();
        for _ in 0..6 {
            fleet.step_epoch(&mut sink, &mut profile);
        }
        let json = serde_json::to_string(&fleet.capture_state()).unwrap();
        let mut restored = Fleet::restore_state(serde_json::from_str(&json).unwrap()).unwrap();
        for _ in 0..10 {
            fleet.step_epoch(&mut sink, &mut profile);
            restored.step_epoch(&mut sink, &mut profile);
        }
        let (a, b) = (fleet.report(), restored.report());
        assert!(a.per_enclosure.iter().any(|e| e.time_boosted.get() > 0.0));
        assert!(a.per_enclosure.iter().all(|e| e.energy.total_j() > 0.0));
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    /// A copy of `v` whose numeric leaf number `target` (depth first,
    /// counted in `seen`) reads `x`.
    fn with_leaf(
        v: &serde::Value,
        target: usize,
        seen: &mut usize,
        x: serde::Number,
    ) -> serde::Value {
        use serde::Value;
        match v {
            Value::Number(_) => {
                *seen += 1;
                if *seen - 1 == target {
                    Value::Number(x)
                } else {
                    v.clone()
                }
            }
            Value::Array(items) => {
                Value::Array(items.iter().map(|i| with_leaf(i, target, seen, x)).collect())
            }
            Value::Object(m) => Value::Object(
                m.iter().map(|(k, i)| (k.clone(), with_leaf(i, target, seen, x))).collect(),
            ),
            _ => v.clone(),
        }
    }

    /// A copy of `v` whose value at `path` (object keys, and array
    /// indices in decimal) is `x`.
    fn with_path(v: &serde::Value, path: &[&str], x: &serde::Value) -> serde::Value {
        use serde::Value;
        let Some((key, rest)) = path.split_first() else {
            return x.clone();
        };
        match v {
            Value::Object(m) => Value::Object(
                m.iter()
                    .map(|(k, i)| {
                        (
                            k.clone(),
                            if k == key {
                                with_path(i, rest, x)
                            } else {
                                i.clone()
                            },
                        )
                    })
                    .collect(),
            ),
            Value::Array(items) => {
                let at: usize = key.parse().expect("an array index");
                Value::Array(
                    items
                        .iter()
                        .enumerate()
                        .map(|(j, i)| {
                            if j == at {
                                with_path(i, rest, x)
                            } else {
                                i.clone()
                            }
                        })
                        .collect(),
                )
            }
            _ => panic!("no {key:?} in a {}", v.kind()),
        }
    }

    /// Whether a doctored state body ran: it must fail to parse, be
    /// refused with a typed error (both `false`), or restore and step
    /// two epochs (`true`). A panic or a hang fails the calling test.
    fn refused_or_runs(doctored: &serde::Value) -> bool {
        let Ok(state) = serde_json::from_value::<FleetState>(doctored) else {
            return false;
        };
        let Ok(mut restored) = Fleet::restore_state(state) else {
            return false;
        };
        let mut sink = diskobs::Sink::null();
        let mut profile = FleetPhaseProfile::default();
        restored.step_epoch(&mut sink, &mut profile);
        restored.step_epoch(&mut sink, &mut profile);
        true
    }

    #[test]
    fn a_checkpoint_with_any_leaf_corrupted_is_refused_or_runs() {
        // Every numeric leaf of a two-bay hall state captured after its
        // traffic drained (filled histograms, energy, a held sensor
        // reading, a slack ramp in force), set in turn to -1, 0 and
        // 1e300: each body must fail to parse, be refused with a typed
        // error, or restore and step two epochs. A panic or a hang fails
        // the test.
        let mut cfg = config(2, 15_020.0, 10.0);
        cfg.airflow = AirflowGraph::hall(2, 1, 2, Celsius::new(28.0), 0.05, 0.01, 0.004).unwrap();
        cfg.dtm = FleetDtmPolicy::SlackRamp {
            base: Rpm::new(15_020.0),
            high: Rpm::new(20_000.0),
            slack_margin: TempDelta::new(0.5),
        };
        cfg.sensor = TempSensor::smart_style();
        let mut fleet = Fleet::new(cfg).unwrap();
        fleet.offer(trace(600, 400.0));
        let mut sink = diskobs::Sink::null();
        let mut profile = FleetPhaseProfile::default();
        while !fleet.is_drained() {
            fleet.step_epoch(&mut sink, &mut profile);
        }
        let tree = serde::Serialize::to_value(&fleet.capture_state());
        let mut leaves = 0;
        with_leaf(&tree, usize::MAX, &mut leaves, serde::Number::UInt(0));
        assert!(leaves > 500, "the state has {leaves} numeric leaves");
        let corruptions = [
            serde::Number::Int(-1),
            serde::Number::UInt(0),
            serde::Number::Float(1e300),
        ];
        let (mut refused, mut ran) = (0, 0);
        for leaf in 0..leaves {
            for x in corruptions {
                if refused_or_runs(&with_leaf(&tree, leaf, &mut 0, x)) {
                    ran += 1;
                } else {
                    refused += 1;
                }
            }
        }
        assert!(refused > 0 && ran > 0, "{refused} refused, {ran} ran");

        // With requests in flight: a two-bay RAID-5 state captured
        // mid-traffic, one array degraded and rebuilding. The sweep
        // covers every numeric leaf of each bay's storage system (its
        // disks, slot and parent slabs with their free lists, in-service
        // operations, clock and counters), what this state makes the one
        // source of truth — every numeric leaf of the fleet's disk spec,
        // and each bay's failed member also at the array width (one past
        // the last member) — and the two numbers of its serial airflow
        // graph. The traffic is light enough to keep the slabs, and so
        // the sweep, small.
        const WIDTH: u32 = 4;
        let mut cfg = config(2, 15_020.0, 10.0);
        cfg.array = Some(EnclosureArray {
            disks: WIDTH,
            stripe_sectors: 65_536,
        });
        cfg.dtm = FleetDtmPolicy::SpeedScale {
            high: Rpm::new(15_020.0),
            low: Rpm::new(12_000.0),
            guard: TempDelta::new(0.3),
            resume_margin: TempDelta::new(0.3),
        };
        let mut fleet = Fleet::new(cfg).unwrap();
        fleet.offer(trace(1_050, 500.0));
        fleet.step_epoch(&mut sink, &mut profile);
        let rebuild = RebuildSpec {
            rate_sectors_per_sec: 16_384.0,
            chunk_sectors: 1_024,
        };
        fleet.fail_drive(0, 1, rebuild).unwrap();
        fleet.step_epoch(&mut sink, &mut profile);
        assert!(
            fleet.bays.iter().all(|b| b.system.in_flight() > 0),
            "requests are in flight"
        );
        let tree = serde::Serialize::to_value(&fleet.capture_state());
        assert!(refused_or_runs(&tree), "the captured state runs");
        let spec = tree.get("spec").unwrap();
        let mut spec_leaves = 0;
        with_leaf(spec, usize::MAX, &mut spec_leaves, serde::Number::UInt(0));
        let (mut refused, mut ran) = (0, 0);
        let mut tally = |body: &serde::Value| {
            if refused_or_runs(body) {
                ran += 1;
            } else {
                refused += 1;
            }
        };
        for leaf in 0..spec_leaves {
            for x in corruptions {
                let spec = with_leaf(spec, leaf, &mut 0, x);
                tally(&with_path(&tree, &["spec"], &spec));
            }
        }
        let mut system_leaves = 0;
        let bays = tree.get("bays").and_then(serde::Value::as_array).unwrap();
        for (system, bay) in bays.iter().zip(["0", "1"]) {
            let path = ["bays", bay, "system"];
            let system = system.get("system").unwrap();
            let mut leaves = 0;
            with_leaf(system, usize::MAX, &mut leaves, serde::Number::UInt(0));
            for leaf in 0..leaves {
                for x in corruptions {
                    let system = with_leaf(system, leaf, &mut 0, x);
                    tally(&with_path(&tree, &path, &system));
                }
            }
            system_leaves += leaves;
            let width = serde::Number::UInt(WIDTH.into());
            for x in corruptions.into_iter().chain([width]) {
                let path = ["bays", bay, "system", "failed_disk"];
                tally(&with_path(&tree, &path, &serde::Value::Number(x)));
            }
        }
        // A serial airflow graph is its length and its one coupling.
        let serial = tree.get("airflow").and_then(|a| a.get("topology"));
        assert!(serial.and_then(|t| t.get("Serial")).is_some(), "{serial:?}");
        for x in corruptions {
            for leaf in ["drives", "k"] {
                let path = ["airflow", "topology", "Serial", leaf];
                tally(&with_path(&tree, &path, &serde::Value::Number(x)));
            }
        }
        assert!(
            spec_leaves > 200 && system_leaves > 500,
            "the spec has {spec_leaves} numeric leaves, the systems {system_leaves}"
        );
        assert!(
            refused > 0 && ran > 0,
            "in flight: {refused} refused, {ran} ran"
        );
    }

    #[test]
    fn a_restored_speed_gets_its_window_map_or_a_typed_error() {
        // The window maps cover the disk's speed and the policy's, the
        // only speeds a bay is ever set to. A checkpoint whose bay runs
        // at any other speed, plausible or absurd, is refused.
        let mut fleet = Fleet::new(config(2, 15_020.0, 10.0)).unwrap();
        fleet.offer(trace(400, 300.0));
        let mut sink = diskobs::Sink::null();
        let mut profile = FleetPhaseProfile::default();
        fleet.step_epoch(&mut sink, &mut profile);
        let tree = serde::Serialize::to_value(&fleet.capture_state());
        let path = ["bays", "1", "system", "rpm"];
        let at = |rpm: f64| {
            let body = with_path(&tree, &path, &serde::Value::Number(serde::Number::Float(rpm)));
            Fleet::restore_state(serde_json::from_value(&body).unwrap())
        };
        let mut restored = at(15_020.0).unwrap();
        for _ in 0..3 {
            restored.step_epoch(&mut sink, &mut profile);
        }
        assert!(restored.bays[1].air().get().is_finite());
        for other in [12_345.0, 1e300, 1e200] {
            match at(other) {
                Err(FleetError::Config(msg)) => assert!(msg.contains("window map"), "{msg}"),
                Err(e) => panic!("{other} RPM: unexpected error {e}"),
                Ok(_) => panic!("{other} RPM is no speed this fleet sets"),
            }
        }
    }

    #[test]
    fn report_round_trips_through_serde() {
        let fleet = Fleet::new(config(2, 15_020.0, 12.0)).unwrap();
        let report = fleet.run(trace(200, 200.0)).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
