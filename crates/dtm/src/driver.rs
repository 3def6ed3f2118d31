//! The submit/advance/measure body of the closed DTM loop.
//!
//! Every enclosure of the fleet in `diskfleet` advances a storage
//! simulation in fixed control windows, measures the actuator duty the
//! served requests actually produced, and feeds it to the thermal
//! transient at the drive's current spindle speed. [`WindowedDrive`]
//! owns that loop body: one storage system (a single disk or a whole
//! array) coupled to one thermal transient, advanced a sync epoch at a
//! time through [`WindowedDrive::serve_epoch`].

use disksim::{Completion, Request, SimError, StorageSystem, SystemState};
use diskthermal::{
    DriveThermalSpec, NodeTemps, OperatingPoint, ThermalModel, ThermalParams, TransientSim,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use units::{Celsius, Rpm, Seconds};

/// Integration step shared by every windowed thermal transient.
const THERMAL_STEP: Seconds = Seconds::new(0.05);

/// What one control window measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Spindle speed the window was served at.
    pub rpm: Rpm,
    /// Actuator duty measured over the window, clamped to `[0, 1]`.
    pub duty: f64,
    /// Fraction of the window the member disks spent busy, clamped to
    /// `[0, 1]`.
    pub util: f64,
    /// Node temperatures after the thermal step.
    pub temps: NodeTemps,
}

impl WindowSample {
    /// Internal-air temperature after the thermal step.
    pub fn air(&self) -> Celsius {
        self.temps.air
    }
}

/// A storage system coupled to its thermal transient, advanced in fixed
/// control windows.
pub struct WindowedDrive {
    system: StorageSystem,
    model: ThermalModel,
    sim: TransientSim,
    prev_seek: f64,
    prev_busy: f64,
}

impl WindowedDrive {
    /// Couples an assembled storage system to a thermal model. The
    /// transient starts at the model's ambient; use
    /// [`Self::with_initial_temps`] to start hot.
    pub fn new(system: StorageSystem, model: ThermalModel) -> Self {
        let sim = TransientSim::from_ambient(&model)
            .with_step(THERMAL_STEP)
            .expect("constant step is positive");
        Self {
            system,
            model,
            sim,
            prev_seek: 0.0,
            prev_busy: 0.0,
        }
    }

    /// Restarts the thermal state from explicit node temperatures.
    pub fn with_initial_temps(mut self, temps: NodeTemps) -> Self {
        self.sim = TransientSim::with_initial(temps)
            .with_step(THERMAL_STEP)
            .expect("constant step is positive");
        self
    }

    /// Replaces the local ambient (inlet) temperature, rebuilding the
    /// thermal model around it — how the fleet's airflow coupling
    /// injects upstream exhaust preheat between sync epochs. Node
    /// temperatures are untouched; only the boundary condition moves.
    pub fn set_ambient(&mut self, ambient: Celsius) {
        let spec = self.model.spec().with_ambient(ambient);
        self.model = ThermalModel::with_params(spec, *self.model.params());
    }

    /// Releases every pending arrival up to `window_end` into the
    /// system, preserving original arrival timestamps (time spent at the
    /// admission gate is part of the measured response time).
    ///
    /// # Errors
    ///
    /// Propagates submission errors.
    fn admit_until(
        &mut self,
        pending: &mut VecDeque<Request>,
        window_end: Seconds,
    ) -> Result<(), SimError> {
        while let Some(front) = pending.front() {
            if front.arrival > window_end {
                break;
            }
            let r = *front;
            pending.pop_front();
            self.system.submit(r)?;
        }
        Ok(())
    }

    /// Serves one control window ending at `window_end`: advances the
    /// event simulation (appending completions to `out`), measures the
    /// actuator duty the window actually produced across all member
    /// disks, steps the thermal transient at that operating point, and
    /// returns the sample.
    fn serve_window(
        &mut self,
        window_end: Seconds,
        window: Seconds,
        out: &mut Vec<Completion>,
    ) -> WindowSample {
        self.system.advance_to_into(window_end, out);

        let disks = self.system.disks().len() as f64;
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

        let rpm = self.system.disks()[0].spec().rpm();
        self.sim
            .advance(&self.model, OperatingPoint::new(rpm, duty), window);
        WindowSample {
            rpm,
            duty,
            util,
            temps: self.sim.temps(),
        }
    }

    /// Serves a whole sync epoch: `windows` control windows, each
    /// admitting from `pending` (unless `gated`), serving, and
    /// thermally stepping the drive. Window ends come from the *global*
    /// window index `first_window` so every drive computes bit-identical
    /// timestamps regardless of how a fleet shards them. Completions
    /// append to `completions`; one [`WindowSample`] per window replaces
    /// the contents of `samples` — both are caller scratch, so a whole
    /// epoch reuses one buffer set.
    ///
    /// # Errors
    ///
    /// Propagates admission errors (bad device or range).
    #[allow(clippy::too_many_arguments)]
    pub fn serve_epoch(
        &mut self,
        pending: &mut VecDeque<Request>,
        gated: bool,
        first_window: u64,
        windows: usize,
        window: Seconds,
        completions: &mut Vec<Completion>,
        samples: &mut Vec<WindowSample>,
    ) -> Result<(), SimError> {
        samples.clear();
        for w in 0..windows {
            let window_end = Seconds::new((first_window + w as u64 + 1) as f64 * window.get());
            if !gated {
                self.admit_until(pending, window_end)?;
            }
            samples.push(self.serve_window(window_end, window, completions));
        }
        Ok(())
    }

    /// Sets every member disk's spindle speed, emitting one
    /// `RpmTransition` per actual change into the system's trace sink.
    pub fn set_all_rpm(&mut self, rpm: Rpm) {
        let from = self.system.disks()[0].spec().rpm();
        for d in self.system.disks_mut() {
            d.set_rpm(rpm);
        }
        if from != rpm {
            let now = self.system.clock();
            let sink = self.system.sink_mut();
            let drive = sink.scope();
            sink.emit(now, || diskobs::Event::RpmTransition {
                drive,
                from: from.get(),
                to: rpm.get(),
            });
        }
    }

    /// Installs a trace sink on the underlying storage system.
    pub fn set_sink(&mut self, sink: diskobs::Sink) {
        self.system.set_sink(sink);
    }

    /// Drains buffered trace events from the underlying system's sink,
    /// appending into `out` (the caller's reused batch buffer).
    pub fn drain_events_into(&mut self, out: &mut Vec<diskobs::TimedEvent>) {
        self.system.drain_events_into(out);
    }

    /// Current spindle speed (all members run in lockstep).
    pub fn rpm(&self) -> Rpm {
        self.system.disks()[0].spec().rpm()
    }

    /// Current node temperatures.
    pub fn temps(&self) -> NodeTemps {
        self.sim.temps()
    }

    /// Current internal-air temperature.
    pub fn air(&self) -> Celsius {
        self.sim.temps().air
    }

    /// Requests in flight inside the storage system.
    pub fn in_flight(&self) -> u64 {
        self.system.in_flight()
    }

    /// The underlying storage system.
    pub fn system(&self) -> &StorageSystem {
        &self.system
    }

    /// Mutable access to the underlying storage system (failure
    /// injection and repair; speed control goes through the DTM APIs).
    pub fn system_mut(&mut self) -> &mut StorageSystem {
        &mut self.system
    }

    /// The thermal model currently coupled to the transient.
    pub fn model(&self) -> &ThermalModel {
        &self.model
    }

    /// Captures the complete dynamic state for checkpointing: the
    /// storage system, the thermal boundary conditions (spec + fitted
    /// parameters, from which the model rebuilds exactly), the
    /// transient's node temperatures and clock, and the duty-measurement
    /// baselines.
    pub fn capture_state(&self) -> DriveState {
        DriveState {
            system: self.system.capture_state(),
            spec: *self.model.spec(),
            params: *self.model.params(),
            temps: self.sim.temps(),
            sim_time: self.sim.time(),
            prev_seek: self.prev_seek,
            prev_busy: self.prev_busy,
        }
    }

    /// Rebuilds a drive from a captured state. The trace sink starts
    /// null, as after [`WindowedDrive::new`].
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::BadConfig`] for an internally inconsistent
    /// storage-system state.
    pub fn restore_state(state: DriveState) -> Result<Self, SimError> {
        let system = StorageSystem::restore_state(state.system)?;
        let model = ThermalModel::with_params(state.spec, state.params);
        let sim = TransientSim::with_initial(state.temps)
            .with_step(THERMAL_STEP)
            .expect("constant step is positive")
            .with_time(state.sim_time);
        Ok(Self {
            system,
            model,
            sim,
            prev_seek: state.prev_seek,
            prev_busy: state.prev_busy,
        })
    }
}

/// Complete dynamic state of a [`WindowedDrive`], captured for
/// checkpointing (see [`WindowedDrive::capture_state`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriveState {
    system: SystemState,
    spec: DriveThermalSpec,
    params: ThermalParams,
    temps: NodeTemps,
    sim_time: Seconds,
    prev_seek: f64,
    prev_busy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use disksim::{DiskSpec, RequestKind, SystemConfig};
    use units::Inches;

    fn drive(rpm: f64) -> WindowedDrive {
        let spec = DiskSpec::era(2002, 1, Rpm::new(rpm));
        let system = StorageSystem::new(SystemConfig::single_disk(spec)).unwrap();
        let model =
            ThermalModel::new(diskthermal::DriveThermalSpec::new(Inches::new(2.6), 1));
        WindowedDrive::new(system, model)
    }

    #[test]
    fn serve_window_measures_duty_and_steps_thermal() {
        let mut d = drive(15_020.0);
        let cap = d.system().logical_sectors();
        let mut pending: VecDeque<Request> = (0..200u64)
            .map(|i| {
                Request::new(
                    i,
                    Seconds::new(i as f64 / 400.0),
                    0,
                    i.wrapping_mul(7_777_777) % (cap - 64),
                    8,
                    RequestKind::Read,
                )
            })
            .collect();
        let window = Seconds::from_millis(250.0);
        let mut out = Vec::new();
        let mut max_duty: f64 = 0.0;
        for w in 1..=8u32 {
            let end = Seconds::new(w as f64 * window.get());
            d.admit_until(&mut pending, end).unwrap();
            let sample = d.serve_window(end, window, &mut out);
            assert!((0.0..=1.0).contains(&sample.duty));
            max_duty = max_duty.max(sample.duty);
        }
        assert!(max_duty > 0.0, "a seeky trace must move the actuator");
        assert!(d.air().get() > 28.0, "served windows must heat the air");
    }

    #[test]
    fn set_ambient_shifts_the_boundary_not_the_state() {
        let mut d = drive(15_020.0);
        let before = d.temps();
        d.set_ambient(Celsius::new(35.0));
        assert_eq!(d.temps(), before, "node state must survive re-ambienting");
        assert_eq!(d.model().spec().ambient(), Celsius::new(35.0));
        // The hotter inlet pulls the steady state up, so an idle window
        // now drifts the air upward.
        let mut out = Vec::new();
        let window = Seconds::from_millis(250.0);
        let sample = d.serve_window(window, window, &mut out);
        assert!(sample.air() > before.air);
    }

    #[test]
    fn admit_until_respects_arrival_order_and_window_edge() {
        let mut d = drive(15_020.0);
        let cap = d.system().logical_sectors();
        let mut pending: VecDeque<Request> = (0..10u64)
            .map(|i| {
                Request::new(i, Seconds::new(i as f64), 0, i % (cap - 64), 8, RequestKind::Read)
            })
            .collect();
        d.admit_until(&mut pending, Seconds::new(4.0)).unwrap();
        assert_eq!(pending.len(), 5, "arrivals after the window stay pending");
        assert_eq!(pending.front().unwrap().id, 5);
    }
}
