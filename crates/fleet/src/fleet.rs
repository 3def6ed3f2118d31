//! The fleet itself: N enclosures, an airflow graph, a router, and a
//! coordinator, advanced by a sharded deterministic event loop.
//!
//! Each enclosure wraps one [`dtm::WindowedDrive`] (a `StorageSystem`
//! coupled to a `TransientSim`). Between *sync epochs* the enclosures
//! are fully independent, so the loop advances them in parallel. The
//! epoch boundary itself is parallel too: shards *propose* against the
//! epoch-start snapshot (statistics folds, heat estimates, per-rack
//! airflow prefixes, coordinator transitions, pre-sorted per-enclosure
//! event runs) and only two cheap deterministic reduces run serially —
//! the O(log n)-per-request routing commit and the per-level airflow /
//! coordinator commit in enclosure order. When tracing, the routing run
//! and the per-enclosure event runs then stream into the sink through
//! the serial merge `disksim::par::merge_runs_by` — one sort of
//! 16-byte (time key, run, position) entries in a buffer the fleet
//! keeps across epochs — which emits exactly the order of a global
//! stable time-sort. Every
//! cross-enclosure interaction reads epoch-start state and commits in
//! enclosure order, which is why the run is byte-identical at any
//! shard count.

use crate::airflow::{rack_heats, AirflowGraph};
use crate::coordinator::{Coordinator, CoordinatorState, CtlProposal, FleetDtmPolicy};
use crate::error::FleetError;
use crate::routing::{Router, RoutingPolicy, RoutingScratch};
use disksim::{Completion, DiskSpec, Request, ResponseStats, StorageSystem, SystemConfig};
use dtm::{DriveState, WindowSample, WindowedDrive};
use diskthermal::{
    drive_heat_estimate, DriveThermalSpec, OperatingPoint, ThermalModel, ThermalParams,
    THERMAL_ENVELOPE,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use units::{Celsius, Rpm, Seconds};

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
    /// Per-enclosure disk specification (every enclosure is one drive).
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
    /// Control-window length (default 250 ms, matching
    /// `dtm::DtmController`).
    pub window: Seconds,
    /// Control windows between thermal-coupling sync epochs (default 4,
    /// i.e. 1 s epochs).
    pub windows_per_epoch: usize,
    /// Shards for the parallel event loop. Results are byte-identical
    /// at any value; this only trades wall-clock time.
    pub threads: usize,
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
        })
    }
}

/// One drive bay: the windowed drive plus its admission queue,
/// accumulated statistics, and the epoch scratch its shard reuses.
struct Enclosure {
    drive: WindowedDrive,
    pending: VecDeque<Request>,
    capacity: u64,
    routed: u64,
    completed: u64,
    max_air: Celsius,
    max_local_ambient: Celsius,
    air_integral: f64,
    duty_sum: f64,
    windows: u64,
    time_over: Seconds,
    time_gated: Seconds,
    time_scaled: Seconds,
    /// Whether the coordinator gates this bay for the current epoch
    /// (written serially at the epoch boundary, read by the shard).
    epoch_gated: bool,
    /// This epoch's completions; cleared and refilled each epoch so the
    /// shard never allocates in steady state.
    completions: Vec<Completion>,
    /// Per-window sample scratch, reused across epochs.
    samples: Vec<WindowSample>,
    /// Mean actuator duty / utilization over the last epoch.
    epoch_duty: f64,
    epoch_util: f64,
    /// Response-time statistics over this bay's completions, folded by
    /// the shard so the epoch boundary only merges per-bay summaries.
    stats: ResponseStats,
    /// This epoch's pre-sorted event run (the drained drive stream plus
    /// the bay's boundary events), streamed into the sink by the k-way
    /// merge and then cleared, keeping its capacity.
    run: Vec<diskobs::TimedEvent>,
}

/// Complete dynamic state of one [`Enclosure`], captured for
/// checkpointing. Epoch scratch (`epoch_gated`, `completions`,
/// `samples`, `run`) is rebuilt empty on restore: every field of it is
/// overwritten before its next read, so the scratch never carries
/// state across an epoch boundary. The bay's response-time statistics
/// live here (not fleet-wide) since the shards fold them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct EnclosureState {
    drive: DriveState,
    pending: Vec<Request>,
    capacity: u64,
    routed: u64,
    completed: u64,
    max_air: Celsius,
    max_local_ambient: Celsius,
    air_integral: f64,
    duty_sum: f64,
    windows: u64,
    time_over: Seconds,
    time_gated: Seconds,
    time_scaled: Seconds,
    epoch_duty: f64,
    epoch_util: f64,
    stats: ResponseStats,
}

impl Enclosure {
    /// A freshly assembled bay with zeroed statistics.
    fn fresh(drive: WindowedDrive, capacity: u64, ambient: Celsius) -> Self {
        Self {
            max_air: drive.air(),
            drive,
            pending: VecDeque::new(),
            capacity,
            routed: 0,
            completed: 0,
            max_local_ambient: ambient,
            air_integral: 0.0,
            duty_sum: 0.0,
            windows: 0,
            time_over: Seconds::ZERO,
            time_gated: Seconds::ZERO,
            time_scaled: Seconds::ZERO,
            epoch_gated: false,
            completions: Vec::new(),
            samples: Vec::new(),
            epoch_duty: 0.0,
            epoch_util: 0.0,
            stats: ResponseStats::new(),
            run: Vec::new(),
        }
    }

    /// Captures the bay's complete dynamic state.
    fn capture_state(&self) -> EnclosureState {
        EnclosureState {
            drive: self.drive.capture_state(),
            pending: self.pending.iter().copied().collect(),
            capacity: self.capacity,
            routed: self.routed,
            completed: self.completed,
            max_air: self.max_air,
            max_local_ambient: self.max_local_ambient,
            air_integral: self.air_integral,
            duty_sum: self.duty_sum,
            windows: self.windows,
            time_over: self.time_over,
            time_gated: self.time_gated,
            time_scaled: self.time_scaled,
            epoch_duty: self.epoch_duty,
            epoch_util: self.epoch_util,
            stats: self.stats.clone(),
        }
    }

    /// Rebuilds a bay mid-flight from a captured state.
    fn restore_state(state: EnclosureState) -> Result<Self, FleetError> {
        Ok(Self {
            drive: WindowedDrive::restore_state(state.drive)?,
            pending: state.pending.into(),
            capacity: state.capacity,
            routed: state.routed,
            completed: state.completed,
            max_air: state.max_air,
            max_local_ambient: state.max_local_ambient,
            air_integral: state.air_integral,
            duty_sum: state.duty_sum,
            windows: state.windows,
            time_over: state.time_over,
            time_gated: state.time_gated,
            time_scaled: state.time_scaled,
            epoch_gated: false,
            completions: Vec::new(),
            samples: Vec::new(),
            epoch_duty: state.epoch_duty,
            epoch_util: state.epoch_util,
            stats: state.stats,
            run: Vec::new(),
        })
    }

    /// Advances one sync epoch through
    /// [`WindowedDrive::serve_epoch`], folding the window samples into
    /// the bay's accumulated statistics. Everything lands in the bay's
    /// own scratch (`completions`, `samples`, `epoch_duty`,
    /// `epoch_util`), so the parallel phase allocates nothing and
    /// returns nothing.
    fn advance_epoch(
        &mut self,
        first_window: u64,
        windows: usize,
        window: Seconds,
        envelope: Celsius,
    ) {
        self.completions.clear();
        let mut samples = std::mem::take(&mut self.samples);
        self.drive
            .serve_epoch(
                &mut self.pending,
                self.epoch_gated,
                first_window,
                windows,
                window,
                &mut self.completions,
                &mut samples,
            )
            .expect("routed requests are remapped into the drive's range");
        let mut duty_sum = 0.0;
        let mut util_sum = 0.0;
        for sample in &samples {
            duty_sum += sample.duty;
            util_sum += sample.util;
            self.duty_sum += sample.duty;
            self.windows += 1;
            let air = sample.air();
            self.max_air = self.max_air.max(air);
            self.air_integral += air.get() * window.get();
            if air > envelope {
                self.time_over += window;
            }
        }
        self.samples = samples;
        self.epoch_duty = duty_sum / windows as f64;
        self.epoch_util = util_sum / windows as f64;
    }
}

/// Per-epoch constants threaded through the parallel passes.
#[derive(Clone, Copy)]
struct EpochCtx {
    first_window: u64,
    windows_per_epoch: usize,
    window: Seconds,
    envelope: Celsius,
    epoch_end: f64,
    epoch_len: Seconds,
    sink_enabled: bool,
}

/// Hot per-drive state in structure-of-arrays layout. The serial
/// reduces — the routing commit over `air`/`queue`/`gated`, the
/// airflow roll-up over `heat`, the coordinator commit over
/// `proposals` — each walk one dense array instead of hopping across
/// enclosure structs. The parallel passes refresh the arrays through
/// disjoint contiguous chunk splits, which keeps everything in safe
/// code and byte-identical at any worker count.
#[derive(Default)]
struct FleetHotState {
    /// Internal-air temperature per drive at the epoch boundary.
    air: Vec<Celsius>,
    /// Requests held against each drive (in flight + pending).
    queue: Vec<u64>,
    /// Coordinator gating per drive (mirrors the committed state).
    gated: Vec<bool>,
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
    /// restore, or growth the arrays rebuild from the enclosures and
    /// coordinator, after which the epoch passes keep them current.
    fn ensure(&mut self, enclosures: &[Enclosure], coordinator: &Coordinator) {
        let n = enclosures.len();
        if self.air.len() == n {
            return;
        }
        self.air.clear();
        self.queue.clear();
        self.gated.clear();
        for (i, e) in enclosures.iter().enumerate() {
            self.air.push(e.drive.air());
            self.queue.push(e.drive.in_flight() + e.pending.len() as u64);
            self.gated.push(coordinator.gated(i));
        }
        self.heat.clear();
        self.heat.resize(n, 0.0);
        self.proposals.clear();
        self.proposals.resize(n, CtlProposal::noop());
    }

    /// Parallel pass A: advances every enclosure through the epoch's
    /// windows and folds the per-bay outputs — response statistics, the
    /// drained (pre-sorted) event run, the heat estimate, the boundary
    /// air reading — without touching any shared state. Chunks are
    /// contiguous and enclosures never move, so any worker count
    /// produces the same bytes.
    fn pass_a(&mut self, enclosures: &mut [Enclosure], threads: usize, ctx: &EpochCtx) {
        let Self { air, gated, heat, .. } = self;
        let one = |e: &mut Enclosure, heat: &mut f64, air: &mut Celsius, gate: bool| {
            e.epoch_gated = gate;
            e.advance_epoch(ctx.first_window, ctx.windows_per_epoch, ctx.window, ctx.envelope);
            for c in &e.completions {
                // Background rebuild reads heat the drives and contend
                // for the queue but stay out of the foreground numbers.
                if c.request.id < REBUILD_ID_BASE {
                    e.stats.record(c.response_time());
                    e.completed += 1;
                }
            }
            if ctx.sink_enabled {
                e.run.clear();
                e.drive.drain_events_into(&mut e.run);
                debug_assert!(diskobs::is_time_sorted(&e.run), "drive streams are time-sorted");
            }
            let op = OperatingPoint::new(e.drive.rpm(), e.epoch_duty);
            *heat = drive_heat_estimate(e.drive.model().spec(), op).get();
            *air = e.drive.air();
        };

        let n = enclosures.len();
        let workers = threads.clamp(1, n.max(1));
        let chunk = n.div_ceil(workers);
        if workers <= 1 || chunk >= n {
            for ((e, h), (a, &g)) in enclosures
                .iter_mut()
                .zip(heat.iter_mut())
                .zip(air.iter_mut().zip(gated.iter()))
            {
                one(e, h, a, g);
            }
            return;
        }
        std::thread::scope(|scope| {
            let one = &one;
            let mut rest = (enclosures, &mut heat[..], &mut air[..], &gated[..]);
            while !rest.0.is_empty() {
                let take = chunk.min(rest.0.len());
                let (e_c, e_r) = rest.0.split_at_mut(take);
                let (h_c, h_r) = rest.1.split_at_mut(take);
                let (a_c, a_r) = rest.2.split_at_mut(take);
                let (g_c, g_r) = rest.3.split_at(take);
                rest = (e_r, h_r, a_r, g_r);
                scope.spawn(move || {
                    for ((e, h), (a, &g)) in
                        e_c.iter_mut().zip(h_c.iter_mut()).zip(a_c.iter_mut().zip(g_c.iter()))
                    {
                        one(e, h, a, g);
                    }
                });
            }
        });
    }

    /// Parallel pass B: pushes the preheated ambients back into the
    /// thermal models (per-rack prefix sums for the hierarchy, the
    /// precomputed dense ambients for flat graphs), emits each bay's
    /// boundary events into its run, and stages the coordinator's
    /// proposal for the serial commit. Hierarchy chunks align to rack
    /// boundaries so every intra-rack prefix stays on one worker and
    /// the arithmetic matches [`AirflowGraph::local_ambients`] bit for
    /// bit.
    fn pass_b(
        &mut self,
        enclosures: &mut [Enclosure],
        coordinator: &Coordinator,
        airflow: &AirflowGraph,
        threads: usize,
        ctx: &EpochCtx,
        bias: &[f64],
    ) {
        let n = enclosures.len();
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
            air,
            queue,
            gated,
            heat,
            proposals,
            rack_base,
            flat_ambients,
            ..
        } = self;
        let (air, heat) = (&air[..], &heat[..]);
        let (rack_base, flat_ambients) = (&rack_base[..], &flat_ambients[..]);

        // One bay: couple, snapshot, propose, actuate, account.
        let one = |i: usize,
                   e: &mut Enclosure,
                   ambient: Celsius,
                   depth_out: &mut u64,
                   gate_out: &mut bool,
                   proposal_out: &mut CtlProposal| {
            e.drive.set_ambient(ambient);
            e.max_local_ambient = e.max_local_ambient.max(ambient);
            let depth = e.drive.in_flight() + e.pending.len() as u64;
            if ctx.sink_enabled {
                e.run.push(diskobs::TimedEvent {
                    t: ctx.epoch_end,
                    event: diskobs::Event::Snapshot {
                        drive: i,
                        air_c: e.drive.air().get(),
                        ambient_c: e.drive.model().spec().ambient().get(),
                        queue: depth,
                        util: e.epoch_util,
                        duty: e.epoch_duty,
                        rpm: e.drive.rpm().get(),
                        gated: coordinator.gated(i),
                    },
                });
            }
            let p = coordinator.propose(i, air[i]);
            if let Some(rpm) = p.rpm {
                e.drive.set_all_rpm(rpm);
            }
            if ctx.sink_enabled {
                if let Some(action) = p.action {
                    e.run.push(diskobs::TimedEvent {
                        t: ctx.epoch_end,
                        event: diskobs::Event::CoordinatorAction { drive: i, action },
                    });
                }
                e.drive.drain_events_into(&mut e.run);
            }
            if p.gates() {
                e.time_gated += ctx.epoch_len;
            }
            if p.scales() {
                e.time_scaled += ctx.epoch_len;
            }
            *depth_out = depth;
            *gate_out = p.gates();
            *proposal_out = p;
        };

        // One contiguous chunk of bays starting at global index `start`.
        let run_chunk = |start: usize,
                         e_c: &mut [Enclosure],
                         q_c: &mut [u64],
                         g_c: &mut [bool],
                         p_c: &mut [CtlProposal]| {
            match &shape {
                Some(s) => {
                    for (rk, rack) in e_c.chunks_mut(s.per_rack).enumerate() {
                        let rack_start = start + rk * s.per_rack;
                        let base = rack_base[rack_start / s.per_rack];
                        let mut prefix = 0.0;
                        for (off, e) in rack.iter_mut().enumerate() {
                            let i = rack_start + off;
                            let ambient =
                                biased(i, inlet + units::TempDelta::new(base + s.k_drive * prefix));
                            prefix += heat[i];
                            let l = i - start;
                            one(i, e, ambient, &mut q_c[l], &mut g_c[l], &mut p_c[l]);
                        }
                    }
                }
                None => {
                    for (off, e) in e_c.iter_mut().enumerate() {
                        let i = start + off;
                        one(i, e, biased(i, flat_ambients[i]), &mut q_c[off], &mut g_c[off], &mut p_c[off]);
                    }
                }
            }
        };

        let workers = threads.clamp(1, n.max(1));
        // Hierarchy chunks round up to whole racks so each intra-rack
        // prefix is computed by exactly one worker.
        let chunk = match &shape {
            Some(s) => s.per_rack * n.div_ceil(s.per_rack).div_ceil(workers),
            None => n.div_ceil(workers),
        };
        if workers <= 1 || chunk >= n {
            run_chunk(0, enclosures, &mut queue[..], &mut gated[..], &mut proposals[..]);
            return;
        }
        std::thread::scope(|scope| {
            let run_chunk = &run_chunk;
            let mut start = 0usize;
            let mut rest = (enclosures, &mut queue[..], &mut gated[..], &mut proposals[..]);
            while !rest.0.is_empty() {
                let take = chunk.min(rest.0.len());
                let (e_c, e_r) = rest.0.split_at_mut(take);
                let (q_c, q_r) = rest.1.split_at_mut(take);
                let (g_c, g_r) = rest.2.split_at_mut(take);
                let (p_c, p_r) = rest.3.split_at_mut(take);
                rest = (e_r, q_r, g_r, p_r);
                let s = start;
                scope.spawn(move || run_chunk(s, e_c, q_c, g_c, p_c));
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
    enclosures: Vec<Enclosure>,
    router: Router,
    coordinator: Coordinator,
    airflow: AirflowGraph,
    envelope: Celsius,
    window: Seconds,
    windows_per_epoch: usize,
    threads: usize,
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
    // Per-epoch scratch, reused across the whole run so the untraced
    // epoch loop allocates nothing in steady state (the traced path
    // hands its event runs to the merge, which consumes them).
    hot: FleetHotState,
    route: RoutingScratch,
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
    enclosures: Vec<EnclosureState>,
    routing: RoutingPolicy,
    router_cursor: usize,
    coordinator: CoordinatorState,
    airflow: AirflowGraph,
    envelope: Celsius,
    window: Seconds,
    windows_per_epoch: usize,
    threads: usize,
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
        self.enclosures.len()
    }
}

impl Fleet {
    /// Assembles the fleet: one single-disk `StorageSystem` per airflow
    /// node, each thermally hot-started at its *preheated* idle steady
    /// state (the rack has been idling, not sitting in pristine inlet
    /// air).
    ///
    /// # Errors
    ///
    /// Rejects a zero-window or zero-epoch configuration and propagates
    /// simulator construction failures.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        if config.window.get() <= 0.0 {
            return Err(FleetError::Config("control window must be positive".into()));
        }
        if config.windows_per_epoch == 0 {
            return Err(FleetError::Config("an epoch needs at least one window".into()));
        }
        let n = config.airflow.len();

        // Idle preheat decides the starting thermal state of every bay.
        let rpm = config.spec.rpm();
        let idle = OperatingPoint::idle_vcm(rpm);
        let idle_heat = drive_heat_estimate(&config.thermal, idle).get();
        let ambients = config.airflow.local_ambients(&vec![idle_heat; n]);

        let mut enclosures = Vec::with_capacity(n);
        for ambient in ambients {
            let system = StorageSystem::new(bay_config(&config.spec, config.array)?)?;
            let capacity = system.logical_sectors();
            let model = ThermalModel::with_params(
                config.thermal.with_ambient(ambient),
                ThermalParams::default(),
            );
            let start = model.steady_state(idle);
            let drive = WindowedDrive::new(system, model).with_initial_temps(start);
            enclosures.push(Enclosure::fresh(drive, capacity, ambient));
        }

        Ok(Self {
            enclosures,
            router: Router::new(config.routing),
            coordinator: Coordinator::new(config.dtm, config.envelope, n),
            airflow: config.airflow,
            envelope: config.envelope,
            window: config.window,
            windows_per_epoch: config.windows_per_epoch,
            threads: config.threads.max(1),
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
            routing_run: Vec::new(),
            merge_entries: Vec::new(),
        })
    }

    /// Number of enclosures.
    pub fn len(&self) -> usize {
        self.enclosures.len()
    }

    /// Whether the fleet is empty (never true for a validated config).
    pub fn is_empty(&self) -> bool {
        self.enclosures.is_empty()
    }

    /// Runs a logical trace through the fleet. Requests target the fleet
    /// as a whole; the router picks a drive and the request's LBA is
    /// remapped into that drive's range (`device` and `lba` act as a
    /// placement hint, not an address).
    ///
    /// # Errors
    ///
    /// [`FleetError::SimTimeCap`] when 24 hours of sim time pass with
    /// requests still pending (a DTM policy that never releases a gated
    /// drive). Remapping keeps every submission in range, so nothing
    /// else fails after construction.
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
        if sink.is_enabled() {
            self.enable_drive_sinks();
        }
        // Deterministic arrival order whatever the caller produced.
        trace.sort_by(|a, b| {
            a.arrival
                .get()
                .partial_cmp(&b.arrival.get())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        self.incoming = trace.into();

        loop {
            self.step_epoch(sink, profile);
            if self.is_drained() {
                break;
            }
            // A fleet gated forever would never drain.
            if self.now.get() > 24.0 * 3600.0 {
                let pending = self.incoming.len() as u64
                    + self
                        .enclosures
                        .iter()
                        .map(|e| e.pending.len() as u64 + e.drive.in_flight())
                        .sum::<u64>();
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
        for (i, e) in self.enclosures.iter_mut().enumerate() {
            e.drive.set_sink(diskobs::Sink::buffer().with_scope(i));
        }
    }

    /// Reverts every drive to the no-op sink (no per-request events).
    pub fn disable_drive_sinks(&mut self) {
        for e in &mut self.enclosures {
            e.drive.set_sink(diskobs::Sink::null());
        }
    }

    /// Whether no work remains anywhere: nothing queued for routing,
    /// nothing pending admission, nothing in flight.
    pub fn is_drained(&self) -> bool {
        self.incoming.is_empty()
            && self
                .enclosures
                .iter()
                .all(|e| e.pending.is_empty() && e.drive.in_flight() == 0)
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
    /// parallel passes (window sweeps and statistics folds in pass A,
    /// ambient push-back and coordinator proposals in pass B) and only
    /// three cheap reduces run serially — the O(log n)-per-request
    /// routing commit, the O(racks) airflow roll-up, and the in-order
    /// coordinator commit — plus, when tracing, the k-way event merge.
    /// Every proposal reads epoch-start state and every commit happens
    /// in enclosure order, so the results are byte-identical at any
    /// shard count.
    pub fn step_epoch(&mut self, sink: &mut diskobs::Sink, profile: &mut FleetPhaseProfile) {
        if !self.primed {
            self.coordinator
                .prime(|i, rpm| self.enclosures[i].drive.set_all_rpm(rpm));
            self.primed = true;
        }

        let n = self.enclosures.len();
        let epoch_len = self.window * self.windows_per_epoch as f64;
        let epoch_start = std::time::Instant::now();
        let epoch_end = self.now + epoch_len;
        let ctx = EpochCtx {
            first_window: self.epochs * self.windows_per_epoch as u64,
            windows_per_epoch: self.windows_per_epoch,
            window: self.window,
            envelope: self.envelope,
            epoch_end: epoch_end.get(),
            epoch_len,
            sink_enabled: sink.is_enabled(),
        };

        // Serial reduce 1 — the routing commit. Placements score the
        // epoch-start snapshot (the hot arrays, refreshed by the last
        // epoch's parallel passes) plus a running count of this epoch's
        // placements, so the decision sequence is independent of
        // sharding; the tournament tree makes each commit O(log n)
        // instead of the old O(n) scan.
        self.hot.ensure(&self.enclosures, &self.coordinator);
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
            let e = &mut self.enclosures[rb.enclosure];
            let mut budget = rb.rate * epoch_len.get() + rb.carry;
            while budget >= rb.chunk as f64 && rb.done < rb.total {
                let sectors = (rb.chunk as u64).min(rb.total - rb.next_lba) as u32;
                e.pending.push_back(Request::new(
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
                e.drive.system_mut().repair_disk();
                self.rebuilds.remove(k);
            } else {
                k += 1;
            }
        }

        self.route
            .begin(self.router.policy(), &self.hot.air, &self.hot.queue, &self.hot.gated);
        while let Some(front) = self.incoming.front() {
            if front.arrival > epoch_end {
                break;
            }
            let r = *front;
            self.incoming.pop_front();
            let i = self
                .route
                .place(&mut self.router, &self.hot.gated, &mut self.hot.queue);
            if ctx.sink_enabled {
                routing_run.push(diskobs::TimedEvent {
                    t: r.arrival.get(),
                    event: diskobs::Event::RoutingDecision {
                        request: r.id,
                        drive: i,
                    },
                });
            }
            let e = &mut self.enclosures[i];
            e.pending.push_back(remap(r, e.capacity));
            e.routed += 1;
        }

        // Parallel pass A — window sweeps plus per-bay folds.
        let stamp = std::time::Instant::now();
        self.hot.pass_a(&mut self.enclosures, self.threads, &ctx);
        let mut parallel = stamp.elapsed();

        // Serial reduce 2 — the only cross-rack thermal coupling:
        // per-rack heat totals roll up into per-level preheat prefixes,
        // O(racks). Flat graphs keep the dense evaluation.
        if let Some(shape) = self.airflow.hall_shape() {
            self.hot.rack_heat = rack_heats(&shape, &self.hot.heat);
            self.hot.rack_base = self.airflow.rack_preheats(&shape, &self.hot.rack_heat);
        } else {
            self.hot.flat_ambients = self.airflow.local_ambients(&self.hot.heat);
        }

        // Parallel pass B — ambient push-back, boundary events, and
        // coordinator proposals.
        let stamp = std::time::Instant::now();
        self.hot.pass_b(
            &mut self.enclosures,
            &self.coordinator,
            &self.airflow,
            self.threads,
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
            // and so are the merge's sort entries. It counts as serial
            // time.
            let mut runs: Vec<&[diskobs::TimedEvent]> = Vec::with_capacity(n + 1);
            runs.push(&routing_run);
            runs.extend(self.enclosures.iter().map(|e| e.run.as_slice()));
            disksim::par::merge_runs_by(
                &runs,
                |e| disksim::par::total_order_key(e.t),
                &mut self.merge_entries,
                |e| sink.record(e),
            );
            routing_run.clear();
            for e in &mut self.enclosures {
                e.run.clear();
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
        let n = self.enclosures.len();
        let now = self.now;
        let per_enclosure: Vec<EnclosureReport> = self
            .enclosures
            .iter()
            .map(|e| EnclosureReport {
                routed: e.routed,
                completed: e.completed,
                max_air: e.max_air,
                max_local_ambient: e.max_local_ambient,
                mean_air: if now.get() > 0.0 {
                    Celsius::new(e.air_integral / now.get())
                } else {
                    e.drive.air()
                },
                mean_duty: if e.windows == 0 {
                    0.0
                } else {
                    e.duty_sum / e.windows as f64
                },
                final_rpm: e.drive.rpm(),
                time_over_envelope: e.time_over,
                time_gated: e.time_gated,
                time_scaled: e.time_scaled,
            })
            .collect();

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
        for e in &self.enclosures {
            total.merge(&e.stats);
        }
        total
    }

    /// Completions folded into [`Self::stats`] so far: each bay's count,
    /// summed. Equal to `self.stats().count()` (merging adds counts)
    /// without merging and cloning every bay's reservoir.
    pub fn stats_count(&self) -> u64 {
        self.enclosures.iter().map(|e| e.stats.count()).sum()
    }

    /// Discards the accumulated response-time statistics. What-if forks
    /// call this on both the baseline and the perturbed copy at the
    /// fork point so the comparison covers only the forked horizon.
    pub fn reset_stats(&mut self) {
        for e in &mut self.enclosures {
            e.stats = ResponseStats::new();
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
        self.enclosures
            .iter()
            .map(|e| e.drive.air())
            .fold(self.airflow.inlet(), Celsius::max)
    }

    /// The hottest preheated local ambient across the fleet right now.
    pub fn peak_local_ambient(&self) -> Celsius {
        self.enclosures
            .iter()
            .map(|e| e.drive.model().spec().ambient())
            .fold(self.airflow.inlet(), Celsius::max)
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
        let fleet = self.enclosures.len();
        let Some(e) = self.enclosures.get_mut(enclosure) else {
            return Err(FleetError::NoSuchEnclosure { enclosure, fleet });
        };
        e.drive.system_mut().fail_disk(disk)?;
        if rebuild.rate_sectors_per_sec > 0.0 && rebuild.chunk_sectors > 0 {
            self.rebuilds.push(Rebuild {
                enclosure,
                disk,
                next_lba: 0,
                total: e.drive.system().logical_sectors(),
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
        if !bias.is_empty() && bias.len() != self.enclosures.len() {
            return Err(FleetError::Config(format!(
                "ambient bias covers {} drives but the fleet has {}",
                bias.len(),
                self.enclosures.len()
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
    /// ones at the tail. New bays are assembled exactly as
    /// [`Self::new`] would — idle-preheated against the new graph —
    /// and the coordinator primes them through its policy.
    ///
    /// # Errors
    ///
    /// Rejects a graph that does not grow the fleet and propagates
    /// simulator construction failures.
    pub fn add_enclosures(
        &mut self,
        spec: &DiskSpec,
        thermal: &DriveThermalSpec,
        airflow: AirflowGraph,
    ) -> Result<(), FleetError> {
        let old = self.enclosures.len();
        let n = airflow.len();
        if n <= old {
            return Err(FleetError::Config(format!(
                "replacement airflow graph must grow the fleet: {n} nodes for {old} existing bays"
            )));
        }
        let rpm = spec.rpm();
        let idle = OperatingPoint::idle_vcm(rpm);
        let idle_heat = drive_heat_estimate(thermal, idle).get();
        let ambients = airflow.local_ambients(&vec![idle_heat; n]);
        for ambient in ambients.into_iter().skip(old) {
            let system = StorageSystem::new(bay_config(spec, self.array)?)?;
            let capacity = system.logical_sectors();
            let model =
                ThermalModel::with_params(thermal.with_ambient(ambient), ThermalParams::default());
            let start = model.steady_state(idle);
            let drive = WindowedDrive::new(system, model).with_initial_temps(start);
            self.enclosures.push(Enclosure::fresh(drive, capacity, ambient));
        }
        self.airflow = airflow;
        self.coordinator
            .grow(n - old, |i, rpm| self.enclosures[i].drive.set_all_rpm(rpm));
        Ok(())
    }

    /// Captures the fleet's complete dynamic state between sync epochs.
    pub fn capture_state(&self) -> FleetState {
        FleetState {
            enclosures: self.enclosures.iter().map(Enclosure::capture_state).collect(),
            routing: self.router.policy(),
            router_cursor: self.router.cursor(),
            coordinator: self.coordinator.capture_state(),
            airflow: self.airflow.clone(),
            envelope: self.envelope,
            window: self.window,
            windows_per_epoch: self.windows_per_epoch,
            threads: self.threads,
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
    /// coordinator sizes, degenerate windows) and propagates simulator
    /// restore failures — the checks that catch a corrupted checkpoint
    /// body whose JSON still parses.
    pub fn restore_state(state: FleetState) -> Result<Self, FleetError> {
        if state.enclosures.is_empty() {
            return Err(FleetError::Config("fleet state has no enclosures".into()));
        }
        let n = state.enclosures.len();
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
        if state.window.get() <= 0.0 {
            return Err(FleetError::Config("control window must be positive".into()));
        }
        if state.windows_per_epoch == 0 {
            return Err(FleetError::Config("an epoch needs at least one window".into()));
        }
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
        let enclosures = state
            .enclosures
            .into_iter()
            .map(Enclosure::restore_state)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            enclosures,
            router: Router::new(state.routing).with_cursor(state.router_cursor),
            coordinator: Coordinator::restore_state(state.coordinator),
            airflow: state.airflow,
            envelope: state.envelope,
            window: state.window,
            windows_per_epoch: state.windows_per_epoch,
            threads: state.threads.max(1),
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
            routing_run: Vec::new(),
            merge_entries: Vec::new(),
        })
    }
}

/// The per-bay storage configuration: one drive, or a RAID-5 array
/// presented as one logical volume.
fn bay_config(spec: &DiskSpec, array: Option<EnclosureArray>) -> Result<SystemConfig, FleetError> {
    Ok(match array {
        Some(a) => SystemConfig::raid5(spec.clone(), a.disks, a.stripe_sectors)?,
        None => SystemConfig::single_disk(spec.clone()),
    })
}

/// Remaps a fleet-logical request onto one drive: device 0 and an LBA
/// folded into the drive's addressable range (minus the transfer
/// length), preserving arrival time, size, and kind.
fn remap(r: Request, capacity: u64) -> Request {
    let span = capacity.saturating_sub(r.sectors as u64 + 1).max(1);
    Request::new(r.id, r.arrival, 0, r.lba % span, r.sectors, r.kind)
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
        let mut cfg = config(2, 15_020.0, 12.0);
        cfg.window = Seconds::ZERO;
        assert!(matches!(Fleet::new(cfg), Err(FleetError::Config(_))));
        let mut cfg = config(2, 15_020.0, 12.0);
        cfg.windows_per_epoch = 0;
        assert!(matches!(Fleet::new(cfg), Err(FleetError::Config(_))));
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
    fn report_round_trips_through_serde() {
        let fleet = Fleet::new(config(2, 15_020.0, 12.0)).unwrap();
        let report = fleet.run(trace(200, 200.0)).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
