//! One drive bay of the fleet: a storage system (one disk or a RAID-5
//! array) coupled to its thermal transient, with its admission queue,
//! the reading the fleet's sensor holds for it, its energy meter, its
//! accumulated statistics and the epoch scratch its shard reuses.
//!
//! A bay advances one sync epoch at a time in fixed control windows —
//! the paper's §5 loop: each window admits the arrivals due by its end,
//! advances the event simulation, measures the actuator duty the served
//! requests actually produced, and steps the drive's four node
//! temperatures at that operating point. The fleet runs [`Bay::sweep`]
//! for every bay in pass A of its epoch and [`Bay::boundary`] in pass
//! B, where the coordinator acts on the sensed air.

use crate::coordinator::{Coordinator, CtlProposal};
use crate::error::FleetError;
use crate::fleet::{EnclosureReport, REBUILD_ID_BASE};
use disksim::{
    Completion, EnergyMeter, EnergyModel, EnergyReport, Request, ResponseStats, SimError,
    StorageSystem, SystemConfig, SystemState,
};
use diskthermal::{
    drive_heat_estimate, DriveThermalSpec, HeldReading, NodeTemps, OperatingPoint, TempSensor,
    ThermalModel, TransientSim,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use units::{Celsius, Rpm, Seconds};

/// Integration step of every bay's thermal transient.
const THERMAL_STEP: Seconds = Seconds::new(0.05);

/// Per-epoch constants threaded through the parallel passes.
#[derive(Clone, Copy)]
pub(crate) struct EpochCtx {
    pub first_window: u64,
    pub windows_per_epoch: usize,
    pub window: Seconds,
    pub envelope: Celsius,
    pub epoch_end: f64,
    pub epoch_len: Seconds,
    pub sink_enabled: bool,
    pub sensor: TempSensor,
}

/// One drive bay (see the module docs).
pub(crate) struct Bay {
    pub system: StorageSystem,
    /// The drive's thermal model at the bay's local ambient, rebuilt
    /// whenever pass B moves that ambient.
    model: ThermalModel,
    sim: TransientSim,
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
    /// A freshly assembled bay at node temperatures `temps` under
    /// `model`, with zeroed statistics.
    pub fn new(system: StorageSystem, model: ThermalModel, temps: NodeTemps) -> Self {
        Self {
            system,
            max_local_ambient: model.spec().ambient(),
            energy: EnergyMeter::new(energy_model(&model)),
            model,
            sim: transient(temps),
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
            ambient: self.ambient(),
            temps: self.sim.temps(),
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
    /// shared thermal description and the storage configuration every
    /// bay shares. The trace sink starts null.
    ///
    /// # Errors
    ///
    /// Rejects response statistics whose counts, span or extremes do not
    /// hold together, and propagates [`SimError::BadConfig`] for a
    /// storage-system state that is internally inconsistent or does not
    /// fit `system`.
    pub fn restore_state(
        i: usize,
        state: BayState,
        thermal: &DriveThermalSpec,
        system: SystemConfig,
    ) -> Result<Self, FleetError> {
        state.stats.validate().map_err(|msg| {
            FleetError::Config(format!("enclosure {i} response statistics: {msg}"))
        })?;
        let model = ThermalModel::new(thermal.with_ambient(state.ambient));
        Ok(Self {
            system: StorageSystem::restore_state(system, state.system)?,
            energy: EnergyMeter::resume(energy_model(&model), state.energy),
            model,
            sim: transient(state.temps),
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

    /// Current internal-air temperature.
    pub fn air(&self) -> Celsius {
        self.sim.temps().air
    }

    /// The bay's local (preheated inlet) ambient.
    pub fn ambient(&self) -> Celsius {
        self.model.spec().ambient()
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
    /// the window produced across all member disks, stepping the thermal
    /// transient at that operating point, and folding the window into
    /// the bay's accumulators. Window ends come from the *global* window
    /// index, so every bay computes bit-identical timestamps however the
    /// fleet shards them.
    fn serve_epoch(&mut self, gated: bool, ctx: &EpochCtx) -> Result<(), SimError> {
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

            self.sim
                .advance(&self.model, OperatingPoint::new(self.rpm(), duty), window);
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

    /// Pass A: serves the epoch's windows, folds the foreground
    /// completions into the statistics and, when tracing, drains the
    /// drive's (time-sorted) event stream into the bay's run. Returns
    /// the heat the drive rejected over the epoch, in watts, and the
    /// boundary air temperature. Touches nothing outside the bay.
    pub fn sweep(&mut self, gated: bool, ctx: &EpochCtx) -> (f64, Celsius) {
        self.serve_epoch(gated, ctx)
            .expect("routed requests are remapped into the drive's range");
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
        let op = OperatingPoint::new(self.rpm(), self.epoch_duty);
        (drive_heat_estimate(self.model.spec(), op).get(), self.air())
    }

    /// Pass B for bay `i`: couples the bay to its new local `ambient`,
    /// senses its air, emits the boundary events into its run when
    /// tracing, stages the coordinator's proposal against the
    /// epoch-start hysteresis state, actuates any speed change, and
    /// accounts the DTM time the proposal sets. Returns the bay's queue
    /// depth and the proposal for the serial commit.
    pub fn boundary(
        &mut self,
        i: usize,
        ambient: Celsius,
        coordinator: &Coordinator,
        ctx: &EpochCtx,
    ) -> (u64, CtlProposal) {
        self.model = ThermalModel::new(self.model.spec().with_ambient(ambient));
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
            self.system.set_rpm(rpm);
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
        if p.gates() {
            self.time_gated += ctx.epoch_len;
        }
        if p.scales() {
            self.time_scaled += ctx.epoch_len;
        }
        if p.boosts() {
            self.time_boosted += ctx.epoch_len;
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

/// A thermal transient at `temps` on the bays' integration step.
fn transient(temps: NodeTemps) -> TransientSim {
    TransientSim::with_initial(temps)
        .with_step(THERMAL_STEP)
        .expect("constant step is positive")
}

/// The energy coefficients of a bay's disks: the defaults with the
/// drive's own actuator power.
fn energy_model(model: &ThermalModel) -> EnergyModel {
    EnergyModel {
        vcm_watts: model.spec().vcm_power().get(),
        ..EnergyModel::default()
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

    /// A 2.6" single-disk bay at `rpm`, every node at the inlet.
    fn bay(rpm: f64) -> Bay {
        let spec = DiskSpec::era(2002, 1, Rpm::new(rpm));
        let system = StorageSystem::new(SystemConfig::single_disk(spec)).unwrap();
        let model = ThermalModel::new(DriveThermalSpec::new(Inches::new(2.6), 1));
        let temps = NodeTemps::uniform(model.spec().ambient());
        Bay::new(system, model, temps)
    }

    /// One 250 ms window per epoch, starting at global window `first`.
    fn ctx(first: u64) -> EpochCtx {
        let window = Seconds::from_millis(250.0);
        EpochCtx {
            first_window: first,
            windows_per_epoch: 1,
            window,
            envelope: THERMAL_ENVELOPE,
            epoch_end: (first + 1) as f64 * window.get(),
            epoch_len: window,
            sink_enabled: false,
            sensor: TempSensor::ideal(),
        }
    }

    #[test]
    fn a_window_measures_duty_and_steps_the_thermal_state() {
        let mut b = bay(15_020.0);
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
            b.serve_epoch(false, &ctx(w)).unwrap();
            assert!((0.0..=1.0).contains(&b.epoch_duty));
            max_duty = max_duty.max(b.epoch_duty);
        }
        assert!(max_duty > 0.0, "a seeky trace must move the actuator");
        assert!(b.air().get() > 28.0, "served windows must heat the air");
        assert_eq!(b.windows, 8, "every window folds into the accumulators");
    }

    #[test]
    fn re_ambienting_moves_the_boundary_not_the_state() {
        let mut b = bay(15_020.0);
        let before = b.sim.temps();
        let coordinator = Coordinator::new(FleetDtmPolicy::None, THERMAL_ENVELOPE, 1);
        b.boundary(0, Celsius::new(35.0), &coordinator, &ctx(0));
        assert_eq!(
            b.sim.temps(),
            before,
            "node state must survive re-ambienting"
        );
        assert_eq!(b.ambient(), Celsius::new(35.0));
        // The hotter inlet pulls the steady state up, so an idle window
        // now drifts the air upward.
        b.serve_epoch(false, &ctx(0)).unwrap();
        assert!(b.air() > before.air);
    }

    #[test]
    fn admission_keeps_arrival_order_and_respects_the_window_edge() {
        let mut b = bay(15_020.0);
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
