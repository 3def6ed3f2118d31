//! One drive bay of the fleet: a storage system (one disk or a RAID-5
//! array) with its four node temperatures and local ambient, its
//! admission queue, the reading the fleet's sensor holds for it, its
//! energy meter, its accumulated statistics and the epoch scratch its
//! shard reuses.
//!
//! A bay advances one sync epoch at a time in fixed control windows —
//! the paper's §5 loop: each window admits the arrivals due by its end,
//! advances the event simulation, measures the actuator duty the served
//! requests actually produced, and carries the node temperatures across
//! the window at that operating point. Inputs are constant within a
//! window, so that last step is exact: the fleet keeps one
//! [`Propagator`] per spindle speed in a [`WindowMaps`] table, and a bay
//! holds only the index of its speed's map, which costs two 4×4
//! matrix-vector products per window. The fleet queues each bay's routed
//! arrivals ([`Bay::route`]) and runs [`Bay::sweep`] for every bay in
//! pass A of its epoch, and [`Bay::boundary`] in pass B, where the
//! coordinator acts on the sensed air.

use crate::coordinator::{Coordinator, CtlProposal, DriveCtl};
use crate::error::FleetError;
use crate::fleet::{EnclosureReport, REBUILD_ID_BASE};
use crate::routing::RoutingPolicy;
use disksim::{
    Completion, EnergyMeter, EnergyModel, EnergyReport, Request, ResponseStats, SimError,
    StorageSystem, SystemConfig, SystemState,
};
use diskthermal::{
    vcm_power_for_platter, DriveThermalSpec, HeldReading, NodeTemps, Propagator, SpindleHeat,
    TempSensor, ThermalModel,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use units::{Celsius, Rpm, Seconds};

/// The fleet's exact window maps: one [`Propagator`] over the control
/// window per spindle speed a bay can run at — the disk spec's speed and
/// every speed the DTM policy can set — with the speed's terms of the
/// heat estimate beside it. Built serially when the fleet is built or
/// restored and never changed after; both parallel passes only read it.
#[derive(Debug, Clone)]
pub(crate) struct WindowMaps {
    /// The drive's thermal geometry; its ambient is the rack inlet
    /// before preheat and plays no part in the maps.
    spec: DriveThermalSpec,
    window: Seconds,
    /// The actuator power of [`diskthermal::drive_heat_estimate`], watts.
    vcm_watts: f64,
    entries: Vec<SpeedMap>,
}

/// What a bay at one spindle speed needs each epoch: the window map and
/// the speed-fixed terms of its heat estimate.
#[derive(Debug, Clone)]
struct SpeedMap {
    map: Propagator,
    heat: SpindleHeat,
}

impl WindowMaps {
    /// An empty table for `spec`'s drive over `window`-long windows.
    pub fn new(spec: DriveThermalSpec, window: Seconds) -> Self {
        Self {
            spec,
            window,
            vcm_watts: vcm_power_for_platter(spec.platter_diameter()).get(),
            entries: Vec::new(),
        }
    }

    /// The drive's thermal geometry.
    pub fn spec(&self) -> &DriveThermalSpec {
        &self.spec
    }

    /// The index of the map at `rpm`, if the table holds one.
    pub fn index(&self, rpm: Rpm) -> Option<usize> {
        let bits = rpm.get().to_bits();
        self.entries
            .iter()
            .position(|e| e.map.rpm().get().to_bits() == bits)
    }

    /// The index of the map at `rpm`, building it first if the table
    /// lacks one.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when the drive has no finite window map
    /// at `rpm` (see [`Propagator::new`]).
    pub fn ensure(&mut self, rpm: Rpm) -> Result<usize, FleetError> {
        if let Some(i) = self.index(rpm) {
            return Ok(i);
        }
        let map = Propagator::new(&ThermalModel::new(self.spec), rpm, self.window).map_err(|e| {
            FleetError::Config(format!("no thermal window map at {} RPM: {e}", rpm.get()))
        })?;
        self.entries.push(SpeedMap {
            map,
            heat: SpindleHeat::new(&self.spec, rpm),
        });
        Ok(self.entries.len() - 1)
    }

    /// [`diskthermal::drive_heat_estimate`] for a drive at map `i`'s
    /// speed and actuator duty `duty`, in watts, from the terms kept per
    /// speed: bit for bit the same sum, without its power laws.
    pub fn heat(&self, i: usize, duty: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&duty), "duty {duty} outside [0, 1]");
        self.entries[i].heat.with_actuator(self.vcm_watts, duty).get()
    }

    /// The energy coefficients of the bays' disks: the defaults with
    /// the drive's own actuator power.
    pub fn energy_model(&self) -> EnergyModel {
        EnergyModel {
            vcm_watts: self.spec.vcm_power().get(),
            ..EnergyModel::default()
        }
    }
}

/// Per-epoch constants threaded through the parallel passes.
#[derive(Clone, Copy)]
pub(crate) struct EpochCtx<'a> {
    /// The fleet's window maps, read-only during the passes.
    pub maps: &'a WindowMaps,
    pub first_window: u64,
    pub windows_per_epoch: usize,
    pub window: Seconds,
    pub envelope: Celsius,
    pub epoch_end: f64,
    pub epoch_len: Seconds,
    pub sink_enabled: bool,
    pub sensor: TempSensor,
    /// The fleet's routing policy, which pass B stages scores under.
    pub routing: RoutingPolicy,
    /// Shards the passes split the bays over.
    pub threads: usize,
}

/// One drive bay (see the module docs).
pub(crate) struct Bay {
    pub system: StorageSystem,
    /// Node temperatures at the last window's end.
    temps: NodeTemps,
    /// The local (preheated inlet) ambient pass B last coupled the bay
    /// to.
    ambient: Celsius,
    /// The index in the fleet's [`WindowMaps`] of the map at the bay's
    /// spindle speed; pass B moves it with the speed.
    map: usize,
    /// Summed member seek and busy time at the last window's end: the
    /// baselines of the next window's duty and utilization.
    prev_seek: f64,
    prev_busy: f64,
    /// Routed requests awaiting admission, in arrival order.
    pub pending: VecDeque<Request>,
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
    time_boosted: Seconds,
    /// The reading the fleet's sensor holds for this bay between polls.
    held: HeldReading,
    /// Spindle, actuator and electronics energy of the bay's disks.
    energy: EnergyMeter,
    /// This epoch's completions; cleared and refilled each epoch so the
    /// shard never allocates in steady state.
    completions: Vec<Completion>,
    /// Mean actuator duty / utilization over the last epoch.
    epoch_duty: f64,
    epoch_util: f64,
    /// Response-time statistics over this bay's completions, folded by
    /// the shard so the epoch boundary only merges per-bay summaries.
    pub stats: ResponseStats,
    /// This epoch's pre-sorted event run (the drained drive stream plus
    /// the bay's boundary events), streamed into the sink by the k-way
    /// merge and then cleared, keeping its capacity.
    pub run: Vec<diskobs::TimedEvent>,
}

/// What one bay alone knows, captured for checkpointing. The disk and
/// thermal descriptions every bay shares live once in the fleet state;
/// the epoch scratch (completions, the epoch's mean duty and
/// utilization, the event run) is overwritten before its next read, so
/// it is rebuilt empty on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct BayState {
    system: SystemState,
    ambient: Celsius,
    temps: NodeTemps,
    prev_seek: f64,
    prev_busy: f64,
    pending: Vec<Request>,
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
    time_boosted: Seconds,
    held: HeldReading,
    energy: EnergyReport,
    stats: ResponseStats,
}

impl Bay {
    /// A freshly assembled bay at node temperatures `temps` under local
    /// `ambient`, with zeroed statistics. `maps` must hold the map at
    /// the system's speed.
    pub fn new(
        system: StorageSystem,
        maps: &WindowMaps,
        temps: NodeTemps,
        ambient: Celsius,
    ) -> Self {
        Self {
            map: maps.index(system.rpm()).expect("the table holds the disk spec's speed"),
            system,
            temps,
            ambient,
            max_local_ambient: ambient,
            energy: EnergyMeter::new(maps.energy_model()),
            prev_seek: 0.0,
            prev_busy: 0.0,
            pending: VecDeque::new(),
            routed: 0,
            completed: 0,
            max_air: temps.air,
            air_integral: 0.0,
            duty_sum: 0.0,
            windows: 0,
            time_over: Seconds::ZERO,
            time_gated: Seconds::ZERO,
            time_scaled: Seconds::ZERO,
            time_boosted: Seconds::ZERO,
            held: None,
            completions: Vec::new(),
            epoch_duty: 0.0,
            epoch_util: 0.0,
            stats: ResponseStats::new(),
            run: Vec::new(),
        }
    }

    /// Captures what the bay alone knows.
    pub fn capture_state(&self) -> BayState {
        BayState {
            system: self.system.capture_state(),
            ambient: self.ambient,
            temps: self.temps,
            prev_seek: self.prev_seek,
            prev_busy: self.prev_busy,
            pending: self.pending.iter().copied().collect(),
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
            time_boosted: self.time_boosted,
            held: self.held,
            energy: self.energy.report(),
            stats: self.stats.clone(),
        }
    }

    /// Rebuilds bay `i` mid-flight from a captured state, the fleet's
    /// window maps and the storage configuration every bay shares. The
    /// trace sink starts null.
    ///
    /// # Errors
    ///
    /// Rejects response statistics whose counts, span or extremes do not
    /// hold together and a speed `maps` holds no map at (one neither the
    /// disk spec nor the DTM policy sets), and propagates
    /// [`SimError::BadConfig`] for a storage-system state that is
    /// internally inconsistent or does not fit `system`.
    pub fn restore_state(
        i: usize,
        state: BayState,
        maps: &WindowMaps,
        system: SystemConfig,
    ) -> Result<Self, FleetError> {
        state.stats.validate().map_err(|msg| {
            FleetError::Config(format!("enclosure {i} response statistics: {msg}"))
        })?;
        let system = StorageSystem::restore_state(system, state.system)?;
        let map = maps.index(system.rpm()).ok_or_else(|| {
            FleetError::Config(format!(
                "enclosure {i}: no thermal window map at {} RPM, a speed neither the disk \
                 spec nor the DTM policy sets",
                system.rpm().get()
            ))
        })?;
        Ok(Self {
            system,
            temps: state.temps,
            ambient: state.ambient,
            map,
            energy: EnergyMeter::resume(maps.energy_model(), state.energy),
            prev_seek: state.prev_seek,
            prev_busy: state.prev_busy,
            pending: state.pending.into(),
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
            time_boosted: state.time_boosted,
            held: state.held,
            completions: Vec::new(),
            epoch_duty: 0.0,
            epoch_util: 0.0,
            stats: state.stats,
            run: Vec::new(),
        })
    }

    /// Current spindle speed (all members run in lockstep).
    pub fn rpm(&self) -> Rpm {
        self.system.rpm()
    }

    /// Actuates spindle speed `rpm`, one of the speeds `maps` holds.
    pub fn set_rpm(&mut self, rpm: Rpm, maps: &WindowMaps) {
        self.system.set_rpm(rpm);
        self.map = maps
            .index(rpm)
            .expect("the table holds every speed the DTM policy sets");
    }

    /// Current internal-air temperature.
    pub fn air(&self) -> Celsius {
        self.temps.air
    }

    /// The bay's local (preheated inlet) ambient.
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Requests held against the bay: awaiting admission or in flight.
    pub fn depth(&self) -> u64 {
        self.system.in_flight() + self.pending.len() as u64
    }

    /// Queues a routed fleet-logical request, remapped into the bay's
    /// address range.
    pub fn route(&mut self, r: Request) {
        self.pending
            .push_back(remap(r, self.system.logical_sectors()));
        self.routed += 1;
    }

    /// Releases every pending arrival up to `window_end` into the
    /// system, preserving original arrival timestamps (time spent at the
    /// admission gate is part of the measured response time).
    fn admit_until(&mut self, window_end: Seconds) -> Result<(), SimError> {
        while let Some(&r) = self.pending.front() {
            if r.arrival > window_end {
                break;
            }
            self.pending.pop_front();
            self.system.submit(r)?;
        }
        Ok(())
    }

    /// Serves one sync epoch: `ctx.windows_per_epoch` control windows,
    /// each admitting from the pending queue (unless `gated`), advancing
    /// the event simulation, measuring the actuator duty and utilization
    /// the window produced across all member disks, carrying the node
    /// temperatures across the window by the map at the bay's speed,
    /// and folding the window into the bay's accumulators. Window ends
    /// come from the *global* window index, so every bay computes
    /// bit-identical timestamps however the fleet shards them.
    fn serve_epoch(&mut self, gated: bool, ctx: &EpochCtx) -> Result<(), SimError> {
        // Speeds change only at the boundary, so one map serves the epoch.
        let map = &ctx.maps.entries[self.map].map;
        self.completions.clear();
        let window = ctx.window;
        let disks = self.system.disks().len() as f64;
        let (mut duty_sum, mut util_sum) = (0.0, 0.0);
        for w in 0..ctx.windows_per_epoch {
            let window_end = Seconds::new((ctx.first_window + w as u64 + 1) as f64 * window.get());
            if !gated {
                self.admit_until(window_end)?;
            }
            self.system
                .advance_to_into(window_end, &mut self.completions);

            let seek_now: f64 = self
                .system
                .disks()
                .iter()
                .map(|d| d.seek_time().get())
                .sum();
            let duty = ((seek_now - self.prev_seek) / (window.get() * disks)).clamp(0.0, 1.0);
            self.prev_seek = seek_now;
            let busy_now: f64 = self
                .system
                .disks()
                .iter()
                .map(|d| d.busy_time().get())
                .sum();
            let util = ((busy_now - self.prev_busy) / (window.get() * disks)).clamp(0.0, 1.0);
            self.prev_busy = busy_now;

            self.temps = map.advance(self.temps, self.ambient, duty);
            let air = self.air();
            duty_sum += duty;
            util_sum += util;
            self.duty_sum += duty;
            self.windows += 1;
            self.max_air = self.max_air.max(air);
            self.air_integral += air.get() * window.get();
            if air > ctx.envelope {
                self.time_over += window;
            }
        }
        let windows = ctx.windows_per_epoch as f64;
        self.epoch_duty = duty_sum / windows;
        self.epoch_util = util_sum / windows;
        // Speeds change only at epoch boundaries, so the epoch's speed
        // and mean duty meter it exactly.
        let epoch = window * windows;
        self.energy
            .accumulate(self.rpm(), epoch * (self.epoch_duty * disks), epoch * disks);
        Ok(())
    }

    /// Pass A: serves the epoch's windows under `ctl`, the control
    /// state the epoch runs in (gated admission, and the speed the last
    /// boundary set), accounts the epoch's DTM time to that state, folds
    /// the foreground completions into the statistics and, when tracing,
    /// drains the drive's (time-sorted) event stream into the bay's run.
    /// Returns the heat the drive rejected over the epoch, in watts.
    /// Touches nothing outside the bay.
    pub fn sweep(&mut self, ctl: DriveCtl, ctx: &EpochCtx) -> f64 {
        self.serve_epoch(ctl.gated, ctx)
            .expect("routed requests are remapped into the drive's range");
        if ctl.gated {
            self.time_gated += ctx.epoch_len;
        }
        if ctl.scaled_down {
            self.time_scaled += ctx.epoch_len;
        }
        if ctl.boosted {
            self.time_boosted += ctx.epoch_len;
        }
        for c in &self.completions {
            // Background rebuild reads heat the drives and contend for
            // the queue but stay out of the foreground numbers.
            if c.request.id < REBUILD_ID_BASE {
                self.stats.record(c.response_time());
                self.completed += 1;
            }
        }
        if ctx.sink_enabled {
            self.run.clear();
            self.system.drain_events_into(&mut self.run);
            debug_assert!(
                diskobs::is_time_sorted(&self.run),
                "drive streams are time-sorted"
            );
        }
        ctx.maps.heat(self.map, self.epoch_duty)
    }

    /// Pass B for bay `i`: couples the bay to its new local `ambient`,
    /// senses its air, emits the boundary events into its run when
    /// tracing, stages the coordinator's proposal against the
    /// epoch-start hysteresis state, and actuates any speed change.
    /// Returns the bay's queue depth and the proposal for the serial
    /// commit.
    pub fn boundary(
        &mut self,
        i: usize,
        ambient: Celsius,
        coordinator: &Coordinator,
        ctx: &EpochCtx,
    ) -> (u64, CtlProposal) {
        self.ambient = ambient;
        self.max_local_ambient = self.max_local_ambient.max(ambient);
        let depth = self.depth();
        let air = self.air();
        let sensed = ctx
            .sensor
            .read(&mut self.held, Seconds::new(ctx.epoch_end), air);
        if ctx.sink_enabled {
            if !ctx.sensor.is_ideal() {
                self.run.push(diskobs::TimedEvent {
                    t: ctx.epoch_end,
                    event: diskobs::Event::SensorReading {
                        drive: i,
                        sensed_c: sensed.get(),
                        actual_c: air.get(),
                    },
                });
            }
            self.run.push(diskobs::TimedEvent {
                t: ctx.epoch_end,
                event: diskobs::Event::Snapshot {
                    drive: i,
                    air_c: air.get(),
                    ambient_c: ambient.get(),
                    queue: depth,
                    util: self.epoch_util,
                    duty: self.epoch_duty,
                    rpm: self.rpm().get(),
                    gated: coordinator.gated(i),
                },
            });
        }
        let p = coordinator.propose(i, sensed);
        if let Some(rpm) = p.rpm {
            self.set_rpm(rpm, ctx.maps);
        }
        if ctx.sink_enabled {
            if let Some(action) = p.action {
                self.run.push(diskobs::TimedEvent {
                    t: ctx.epoch_end,
                    event: diskobs::Event::CoordinatorAction { drive: i, action },
                });
            }
            self.system.drain_events_into(&mut self.run);
        }
        (depth, p)
    }

    /// The bay's slice of a fleet report at sim time `now`.
    pub fn report(&self, now: Seconds) -> EnclosureReport {
        EnclosureReport {
            routed: self.routed,
            completed: self.completed,
            max_air: self.max_air,
            max_local_ambient: self.max_local_ambient,
            mean_air: if now.get() > 0.0 {
                Celsius::new(self.air_integral / now.get())
            } else {
                self.air()
            },
            mean_duty: if self.windows == 0 {
                0.0
            } else {
                self.duty_sum / self.windows as f64
            },
            final_rpm: self.rpm(),
            time_over_envelope: self.time_over,
            time_gated: self.time_gated,
            time_scaled: self.time_scaled,
            time_boosted: self.time_boosted,
            energy: self.energy.report(),
        }
    }
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
    use crate::FleetDtmPolicy;
    use disksim::{DiskSpec, RequestKind, SystemConfig};
    use diskthermal::THERMAL_ENVELOPE;
    use units::Inches;

    /// A 2.6" single-disk bay at `rpm`, every node at the inlet, and
    /// the window maps it runs on.
    fn bay(rpm: f64) -> (Bay, WindowMaps) {
        let spec = DiskSpec::era(2002, 1, Rpm::new(rpm));
        let system = StorageSystem::new(SystemConfig::single_disk(spec)).unwrap();
        let thermal = DriveThermalSpec::new(Inches::new(2.6), 1);
        let mut maps = WindowMaps::new(thermal, Seconds::from_millis(250.0));
        maps.ensure(system.rpm()).unwrap();
        let inlet = thermal.ambient();
        (Bay::new(system, &maps, NodeTemps::uniform(inlet), inlet), maps)
    }


    /// One 250 ms window per epoch, starting at global window `first`.
    fn ctx(maps: &WindowMaps, first: u64) -> EpochCtx<'_> {
        let window = Seconds::from_millis(250.0);
        EpochCtx {
            maps,
            first_window: first,
            windows_per_epoch: 1,
            window,
            envelope: THERMAL_ENVELOPE,
            epoch_end: (first + 1) as f64 * window.get(),
            epoch_len: window,
            sink_enabled: false,
            sensor: TempSensor::ideal(),
            routing: RoutingPolicy::RoundRobin,
            threads: 1,
        }
    }

    #[test]
    fn a_window_measures_duty_and_steps_the_thermal_state() {
        let (mut b, maps) = bay(15_020.0);
        let cap = b.system.logical_sectors();
        b.pending = (0..200u64)
            .map(|i| {
                let lba = i.wrapping_mul(7_777_777) % (cap - 64);
                Request::new(
                    i,
                    Seconds::new(i as f64 / 400.0),
                    0,
                    lba,
                    8,
                    RequestKind::Read,
                )
            })
            .collect();
        let mut max_duty: f64 = 0.0;
        for w in 0..8 {
            b.serve_epoch(false, &ctx(&maps, w)).unwrap();
            assert!((0.0..=1.0).contains(&b.epoch_duty));
            max_duty = max_duty.max(b.epoch_duty);
        }
        assert!(max_duty > 0.0, "a seeky trace must move the actuator");
        assert!(b.air().get() > 28.0, "served windows must heat the air");
        assert_eq!(b.windows, 8, "every window folds into the accumulators");
    }

    #[test]
    fn re_ambienting_moves_the_boundary_not_the_state() {
        let (mut b, maps) = bay(15_020.0);
        let before = b.temps;
        let coordinator = Coordinator::new(FleetDtmPolicy::None, THERMAL_ENVELOPE, 1);
        b.boundary(0, Celsius::new(35.0), &coordinator, &ctx(&maps, 0));
        assert_eq!(b.temps, before, "node state must survive re-ambienting");
        assert_eq!(b.ambient(), Celsius::new(35.0));
        // The hotter inlet pulls the steady state up, so an idle window
        // now drifts the air upward.
        b.serve_epoch(false, &ctx(&maps, 0)).unwrap();
        assert!(b.air() > before.air);
    }

    #[test]
    fn per_speed_heat_terms_reproduce_the_estimate_bit_for_bit() {
        let (_, mut maps) = bay(15_020.0);
        for rpm in [15_020.0, 12_000.0, 10_000.0] {
            let i = maps.ensure(Rpm::new(rpm)).unwrap();
            for duty in [0.0, 0.125, 0.37, 1.0 / 3.0, 1.0] {
                let op = diskthermal::OperatingPoint::new(Rpm::new(rpm), duty);
                let estimate = diskthermal::drive_heat_estimate(maps.spec(), op).get();
                let heat = maps.heat(i, duty);
                assert_eq!(heat.to_bits(), estimate.to_bits(), "{rpm} RPM, duty {duty}");
            }
        }
    }

    #[test]
    fn admission_keeps_arrival_order_and_respects_the_window_edge() {
        let (mut b, _) = bay(15_020.0);
        let cap = b.system.logical_sectors();
        b.pending = (0..10u64)
            .map(|i| {
                Request::new(
                    i,
                    Seconds::new(i as f64),
                    0,
                    i % (cap - 64),
                    8,
                    RequestKind::Read,
                )
            })
            .collect();
        b.admit_until(Seconds::new(4.0)).unwrap();
        assert_eq!(b.pending.len(), 5, "arrivals after the window stay pending");
        assert_eq!(b.pending.front().unwrap().id, 5);
    }
}
