//! Closed-loop DTM: thermal-aware request admission over the
//! trace-driven simulator.
//!
//! The paper evaluates its two mechanisms analytically and leaves the
//! control-policy evaluation to future work; this module provides that
//! loop. A [`DtmController`] advances the storage simulation in fixed
//! windows, measures the actuator duty the served requests actually
//! produced, feeds it to the thermal transient model, and applies a
//! [`DtmPolicy`] — gating admission (and optionally dropping the spindle
//! speed) near the envelope, or ramping a multi-speed disk up when slack
//! is available.

use crate::driver::WindowedDrive;
use crate::throttle::ThrottlePolicy;
use disksim::{Completion, EnergyMeter, EnergyModel, EnergyReport, Request, ResponseStats, SimError, StorageSystem};
use diskthermal::{NodeTemps, TempSensor, ThermalModel};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use units::{Celsius, Rpm, Seconds, TempDelta};

/// The control window, 250 ms (the fleet's default window too).
const WINDOW: Seconds = Seconds::new(0.25);

/// The trip/resume rule of the §5.2 speed ramp and the §5.3 throttle:
/// the next tripped state of a drive whose sensed air is `sensed`.
/// Trips at `envelope − guard`, releases once the reading falls
/// `resume_margin` below that trip point, and holds otherwise — so a
/// NaN reading holds either state.
#[inline]
pub fn trip(
    tripped: bool,
    sensed: Celsius,
    envelope: Celsius,
    guard: TempDelta,
    resume_margin: TempDelta,
) -> bool {
    let trip = envelope - guard;
    if !tripped && sensed >= trip {
        true
    } else if tripped && sensed <= trip - resume_margin {
        false
    } else {
        tripped
    }
}

/// The control policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DtmPolicy {
    /// No thermal control — the baseline that may violate the envelope.
    None,
    /// Stop admitting requests when the air temperature crosses
    /// `envelope - guard`; resume once it falls `resume_margin` below
    /// that trip point. With [`ThrottlePolicy::VcmAndRpm`] the spindle
    /// also drops while throttled.
    Throttle {
        /// The throttle mechanism (VCM-only or VCM + RPM drop).
        mechanism: ThrottlePolicy,
        /// Safety margin below the envelope at which to trip.
        guard: TempDelta,
        /// Hysteresis below the trip point before resuming.
        resume_margin: TempDelta,
    },
    /// Exploit thermal slack on a two-speed disk: run at `high` RPM
    /// while the air stays `slack_margin` below the envelope, fall back
    /// to `base` RPM otherwise. Service continues in both modes.
    SlackRamp {
        /// Baseline (envelope-design) speed.
        base: Rpm,
        /// Boosted speed while slack lasts.
        high: Rpm,
        /// Required margin below the envelope to stay boosted.
        slack_margin: TempDelta,
    },
    /// DRPM-style speed scaling on a full multi-speed disk (the paper
    /// cites its own DRPM work as the enabling mechanism): near the
    /// envelope the spindle drops to `low` but *keeps serving requests*
    /// — no admission gating at all — and returns to `high` once the
    /// temperature recedes.
    SpeedScale {
        /// Full-performance speed (may exceed the worst-case envelope).
        high: Rpm,
        /// Reduced speed near the envelope.
        low: Rpm,
        /// Safety margin below the envelope at which to downshift.
        guard: TempDelta,
        /// Hysteresis below the trip point before upshifting.
        resume_margin: TempDelta,
    },
}

/// Outcome of a closed-loop run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DtmReport {
    /// Response-time statistics of all completed requests.
    pub stats: ResponseStats,
    /// Hottest internal-air temperature observed.
    pub max_air: Celsius,
    /// Total simulated time.
    pub total_time: Seconds,
    /// Time spent with admission gated (throttle policies).
    pub time_throttled: Seconds,
    /// Time spent boosted above the base speed (slack policy).
    pub time_boosted: Seconds,
    /// Time the air spent above the envelope.
    pub time_over_envelope: Seconds,
    /// Mean actuator duty measured over the run.
    pub mean_vcm_duty: f64,
    /// Time-weighted mean internal-air temperature.
    pub mean_air: Celsius,
    /// Failure-rate acceleration at the mean temperature relative to
    /// ambient (the paper's 2×-per-15 °C law) — the §6 reliability
    /// argument for DTM in one number.
    pub failure_acceleration: f64,
    /// Energy consumed over the run (all member disks).
    pub energy: EnergyReport,
}

/// The closed-loop controller.
pub struct DtmController {
    drive: WindowedDrive,
    policy: DtmPolicy,
    envelope: Celsius,
    service_rpm: Rpm,
    sensor: TempSensor,
}

impl DtmController {
    /// Builds a controller around an assembled storage system and
    /// thermal model. The thermal transient starts at ambient; use
    /// [`Self::with_initial_temps`] to start hot (e.g. at the envelope).
    pub fn new(
        system: StorageSystem,
        model: ThermalModel,
        policy: DtmPolicy,
        envelope: Celsius,
    ) -> Self {
        let service_rpm = system.disks()[0].spec().rpm();
        Self {
            drive: WindowedDrive::new(system, model),
            policy,
            envelope,
            service_rpm,
            sensor: TempSensor::ideal(),
        }
    }

    /// Observes temperature through a realistic sensor instead of the
    /// model's continuous state (e.g. [`TempSensor::smart_style`] for a
    /// SMART-like whole-degree, once-a-second reading). Policy trip
    /// points then need margins covering the sensor's under-reporting.
    pub fn with_sensor(mut self, sensor: TempSensor) -> Self {
        self.sensor = sensor;
        self
    }

    /// Starts the thermal state from explicit node temperatures.
    pub fn with_initial_temps(mut self, temps: NodeTemps) -> Self {
        self.drive.set_initial_temps(temps);
        self
    }

    /// Runs the whole trace under the policy.
    ///
    /// # Errors
    ///
    /// Propagates submission errors (bad devices or ranges in the
    /// trace); [`SimError::SimTimeCap`] when 24 hours of sim time pass
    /// with requests still pending (a policy that never releases its
    /// gate).
    pub fn run(self, trace: Vec<Request>) -> Result<DtmReport, SimError> {
        let mut sink = diskobs::Sink::null();
        self.run_with_sink(trace, &mut sink)
    }

    /// Runs the whole trace, streaming trace events into `sink`: the
    /// storage system's request events, one `SensorReading` and one
    /// `Snapshot` per control window, and a transition event for every
    /// policy actuation. All timestamps are sim time, so equal runs
    /// produce byte-identical traces. With a disabled (null) sink this
    /// is exactly [`Self::run`] — emission sites cost one branch.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_with_sink(
        mut self,
        trace: Vec<Request>,
        sink: &mut diskobs::Sink,
    ) -> Result<DtmReport, SimError> {
        let scope = sink.scope();
        if sink.is_enabled() {
            // Buffer the system's own emissions (request issue/complete,
            // RPM transitions) and fold them into `sink` window by
            // window, keeping one time-ordered stream.
            self.drive.set_sink(diskobs::Sink::buffer().with_scope(scope));
        }
        let mut pending: VecDeque<Request> = trace.into();
        let mut completions: Vec<Completion> = Vec::new();
        let disks = self.drive.system().disks().len() as f64;

        let mut throttled = false;
        let mut boosted = false;
        let mut scaled_down = false;
        let mut time_throttled = Seconds::ZERO;
        let mut time_boosted = Seconds::ZERO;
        let mut time_over = Seconds::ZERO;
        let mut max_air = self.drive.air();
        let mut air_integral = 0.0;
        let mut duty_acc = 0.0;
        let mut windows = 0u64;
        let mut now = Seconds::ZERO;
        let mut meter = EnergyMeter::new(EnergyModel {
            vcm_watts: self.drive.model().spec().vcm_power().get(),
            ..EnergyModel::default()
        });

        // Apply the starting speed of speed-modulating policies.
        match self.policy {
            DtmPolicy::SlackRamp { high, .. } => {
                // Start boosted: the drive is presumed cold.
                self.drive.set_all_rpm(high);
                boosted = true;
            }
            DtmPolicy::SpeedScale { high, .. } => self.drive.set_all_rpm(high),
            _ => {}
        }

        loop {
            let window_end = now + WINDOW;

            // 1. Admission: release pending arrivals up to the window
            //    end unless gated. Original arrival timestamps are
            //    preserved, so time spent waiting at the admission gate
            //    is part of the response time the policy costs.
            if !throttled {
                self.drive.admit_until(&mut pending, window_end)?;
            }

            // 2-4. Serve the window, measure actuator duty, and step
            // the thermal transient at the measured operating point
            // (the shared driver loop body).
            let sample = self
                .drive
                .serve_window(window_end, WINDOW, &mut completions);
            duty_acc += sample.duty;
            windows += 1;
            meter.accumulate(
                sample.rpm,
                WINDOW * (sample.duty * disks),
                WINDOW * disks,
            );
            let true_air = sample.air();
            max_air = max_air.max(true_air);
            air_integral += true_air.get() * WINDOW.get();
            if true_air > self.envelope {
                time_over += WINDOW;
            }
            // Policies act on the *sensed* temperature.
            let air = self.sensor.read(window_end, true_air);
            if sink.is_enabled() {
                sink.extend(self.drive.drain_events());
                sink.emit(window_end, || diskobs::Event::SensorReading {
                    drive: scope,
                    sensed_c: air.get(),
                    actual_c: true_air.get(),
                });
                let queue = pending.len() as u64 + self.drive.in_flight();
                sink.emit(window_end, || diskobs::Event::Snapshot {
                    drive: scope,
                    air_c: true_air.get(),
                    ambient_c: self.drive.model().spec().ambient().get(),
                    queue,
                    util: sample.util,
                    duty: sample.duty,
                    rpm: sample.rpm.get(),
                    gated: throttled,
                });
            }
            if throttled {
                time_throttled += WINDOW;
            }
            if boosted {
                time_boosted += WINDOW;
            }

            // 5. Policy.
            let was_throttled = throttled;
            let was_boosted = boosted;
            let was_scaled = scaled_down;
            match self.policy {
                DtmPolicy::None => {}
                DtmPolicy::Throttle {
                    mechanism,
                    guard,
                    resume_margin,
                } => {
                    throttled = trip(throttled, air, self.envelope, guard, resume_margin);
                    if throttled != was_throttled {
                        if !throttled {
                            self.drive.set_all_rpm(self.service_rpm);
                        } else if let ThrottlePolicy::VcmAndRpm { low, .. } = mechanism {
                            self.drive.set_all_rpm(low);
                        }
                    }
                }
                DtmPolicy::SlackRamp {
                    base,
                    high,
                    slack_margin,
                } => {
                    let boost_ok = air <= self.envelope - slack_margin;
                    if boosted && !boost_ok {
                        self.drive.set_all_rpm(base);
                        boosted = false;
                    } else if !boosted && air <= self.envelope - slack_margin * 1.5 {
                        self.drive.set_all_rpm(high);
                        boosted = true;
                    }
                }
                DtmPolicy::SpeedScale {
                    high,
                    low,
                    guard,
                    resume_margin,
                } => {
                    scaled_down = trip(scaled_down, air, self.envelope, guard, resume_margin);
                    if scaled_down != was_scaled {
                        self.drive.set_all_rpm(if scaled_down { low } else { high });
                    }
                }
            }
            if throttled != was_throttled {
                sink.emit(window_end, || {
                    if throttled {
                        diskobs::Event::ThrottleEngage { drive: scope, sensed_c: air.get() }
                    } else {
                        diskobs::Event::ThrottleDisengage { drive: scope, sensed_c: air.get() }
                    }
                });
            }
            if scaled_down != was_scaled {
                sink.emit(window_end, || diskobs::Event::CoordinatorAction {
                    drive: scope,
                    action: if scaled_down { "downshift" } else { "upshift" },
                });
            }
            if boosted != was_boosted {
                sink.emit(window_end, || diskobs::Event::CoordinatorAction {
                    drive: scope,
                    action: if boosted { "boost" } else { "unboost" },
                });
            }
            if scaled_down {
                time_throttled += WINDOW;
            }

            now = window_end;

            // Exit once the trace is fully served and the queues drained.
            if pending.is_empty() && self.drive.in_flight() == 0 {
                break;
            }
            // A trace gated forever (policy too strict) would never
            // drain.
            if now.get() > 24.0 * 3600.0 {
                return Err(SimError::SimTimeCap {
                    at: now,
                    pending: pending.len() as u64 + self.drive.in_flight(),
                });
            }
        }

        if sink.is_enabled() {
            // A final-window actuation lands in the drive buffer after
            // the last in-loop drain; fold it in before reporting.
            sink.extend(self.drive.drain_events());
        }

        let mean_air = if now.get() > 0.0 {
            Celsius::new(air_integral / now.get())
        } else {
            self.drive.air()
        };
        Ok(DtmReport {
            stats: ResponseStats::from_completions(&completions),
            max_air,
            total_time: now,
            time_throttled,
            time_boosted,
            time_over_envelope: time_over,
            mean_vcm_duty: if windows == 0 { 0.0 } else { duty_acc / windows as f64 },
            mean_air,
            failure_acceleration: diskthermal::reliability::failure_acceleration(
                mean_air,
                self.drive.model().spec().ambient(),
            ),
            energy: meter.report(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskthermal::{DriveThermalSpec, OperatingPoint, ThermalParams, THERMAL_ENVELOPE};
    use disksim::{DiskSpec, RequestKind, SystemConfig};
    use units::Inches;

    /// A hot drive: 24,534 RPM 2.6" single platter (2005's requirement),
    /// worst-case steady state 48.26 C > envelope.
    fn hot_setup(rpm: f64) -> (StorageSystem, ThermalModel) {
        let spec = DiskSpec::era(2002, 1, Rpm::new(rpm));
        let system = StorageSystem::new(SystemConfig::single_disk(spec)).unwrap();
        let model = ThermalModel::with_params(
            DriveThermalSpec::new(Inches::new(2.6), 1),
            ThermalParams::default(),
        );
        (system, model)
    }

    /// A seek-heavy trace that keeps the actuator busy.
    fn heavy_trace(n: usize, rate_per_sec: f64, capacity: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::new(
                    i as u64,
                    Seconds::new(i as f64 / rate_per_sec),
                    0,
                    (i as u64).wrapping_mul(7_777_777) % (capacity - 64),
                    8,
                    if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
                )
            })
            .collect()
    }

    #[test]
    fn a_gate_that_never_opens_is_an_error() {
        // An envelope below the idle temperature trips the throttle in
        // the first window and never releases it. The arrivals come
        // after that window, which admits before anything is sensed.
        let (system, model) = hot_setup(15_020.0);
        let trace: Vec<Request> = heavy_trace(12, 10.0, system.logical_sectors())
            .into_iter()
            .map(|mut r| {
                r.arrival += Seconds::new(1.0);
                r
            })
            .collect();
        let policy = DtmPolicy::Throttle {
            mechanism: ThrottlePolicy::VcmOnly {
                rpm: Rpm::new(15_020.0),
            },
            guard: TempDelta::new(0.1),
            resume_margin: TempDelta::new(0.2),
        };
        let err = DtmController::new(system, model, policy, Celsius::new(20.0))
            .run(trace)
            .unwrap_err();
        let SimError::SimTimeCap { at, pending } = err else {
            panic!("expected the sim-time cap, got {err}");
        };
        assert!(at.get() > 24.0 * 3600.0, "stopped early at {at}");
        assert_eq!(pending, 12);
    }

    #[test]
    fn baseline_overheats_hot_drive() {
        let (system, model) = hot_setup(24_534.0);
        let cap = system.logical_sectors();
        let hot_start = model.steady_state(OperatingPoint::seeking(Rpm::new(24_534.0)));
        let report = DtmController::new(system, model, DtmPolicy::None, THERMAL_ENVELOPE)
            .with_initial_temps(hot_start)
            .run(heavy_trace(2_000, 120.0, cap))
            .unwrap();
        assert!(
            report.max_air > THERMAL_ENVELOPE,
            "uncontrolled hot drive must exceed the envelope, got {}",
            report.max_air
        );
        assert_eq!(report.stats.count(), 2_000);
    }

    #[test]
    fn throttling_caps_temperature() {
        let (system, model) = hot_setup(24_534.0);
        let cap = system.logical_sectors();
        // Start just below the envelope.
        let start = NodeTemps::uniform(Celsius::new(44.5));
        let policy = DtmPolicy::Throttle {
            mechanism: ThrottlePolicy::VcmOnly {
                rpm: Rpm::new(24_534.0),
            },
            guard: TempDelta::new(0.1),
            resume_margin: TempDelta::new(0.2),
        };
        let report = DtmController::new(system, model, policy, THERMAL_ENVELOPE)
            .with_initial_temps(start)
            .run(heavy_trace(2_000, 120.0, cap))
            .unwrap();
        assert!(
            report.max_air <= THERMAL_ENVELOPE + TempDelta::new(0.3),
            "throttled run peaked at {}",
            report.max_air
        );
        assert_eq!(report.stats.count(), 2_000, "all requests still complete");
    }

    #[test]
    fn throttling_trades_latency_for_temperature() {
        let trace_len = 1_500;
        let run = |policy: DtmPolicy| {
            let (system, model) = hot_setup(24_534.0);
            let cap = system.logical_sectors();
            let start = NodeTemps::uniform(Celsius::new(44.8));
            DtmController::new(system, model, policy, THERMAL_ENVELOPE)
                .with_initial_temps(start)
                .run(heavy_trace(trace_len, 150.0, cap))
                .unwrap()
        };
        let baseline = run(DtmPolicy::None);
        let throttled = run(DtmPolicy::Throttle {
            mechanism: ThrottlePolicy::VcmOnly {
                rpm: Rpm::new(24_534.0),
            },
            guard: TempDelta::new(0.1),
            resume_margin: TempDelta::new(0.2),
        });
        assert!(throttled.max_air < baseline.max_air);
        assert!(
            throttled.stats.mean() >= baseline.stats.mean(),
            "gating cannot make requests faster"
        );
        assert!(throttled.time_throttled.get() > 0.0);
    }

    #[test]
    fn slack_ramp_boosts_while_cool_and_respects_envelope() {
        let (system, model) = hot_setup(15_020.0);
        let cap = system.logical_sectors();
        let policy = DtmPolicy::SlackRamp {
            base: Rpm::new(15_020.0),
            high: Rpm::new(24_000.0),
            slack_margin: TempDelta::new(0.5),
        };
        let report = DtmController::new(system, model, policy, THERMAL_ENVELOPE)
            .run(heavy_trace(2_000, 100.0, cap))
            .unwrap();
        assert!(report.time_boosted.get() > 0.0, "cold drive should boost");
        assert!(
            report.max_air <= THERMAL_ENVELOPE + TempDelta::new(0.3),
            "slack ramp peaked at {}",
            report.max_air
        );
    }

    #[test]
    fn slack_ramp_improves_response_over_base() {
        let trace = |cap: u64| heavy_trace(2_500, 140.0, cap);
        let (system, model) = hot_setup(15_020.0);
        let cap = system.logical_sectors();
        let base_report = DtmController::new(system, model, DtmPolicy::None, THERMAL_ENVELOPE)
            .run(trace(cap))
            .unwrap();

        let (system, model) = hot_setup(15_020.0);
        let boost_report = DtmController::new(
            system,
            model,
            DtmPolicy::SlackRamp {
                base: Rpm::new(15_020.0),
                high: Rpm::new(26_000.0),
                slack_margin: TempDelta::new(0.5),
            },
            THERMAL_ENVELOPE,
        )
        .run(trace(cap))
        .unwrap();

        assert!(
            boost_report.stats.mean() < base_report.stats.mean(),
            "slack boost should cut mean response: {} vs {}",
            boost_report.stats.mean().to_millis(),
            base_report.stats.mean().to_millis()
        );
    }

    #[test]
    fn speed_scale_never_gates_and_trims_heat() {
        let trace_len = 2_000;
        let run = |policy: DtmPolicy| {
            let (system, model) = hot_setup(24_534.0);
            let cap = system.logical_sectors();
            DtmController::new(system, model, policy, THERMAL_ENVELOPE)
                .with_initial_temps(NodeTemps::uniform(Celsius::new(44.9)))
                .run(heavy_trace(trace_len, 140.0, cap))
                .unwrap()
        };
        let baseline = run(DtmPolicy::None);
        let scaled = run(DtmPolicy::SpeedScale {
            high: Rpm::new(24_534.0),
            low: Rpm::new(15_020.0),
            guard: TempDelta::new(0.1),
            resume_margin: TempDelta::new(0.2),
        });
        assert_eq!(scaled.stats.count(), trace_len as u64);
        assert!(scaled.max_air <= baseline.max_air);
        assert!(scaled.time_throttled.get() > 0.0, "the downshift must engage");
        // Unlike gating, service continues: the run finishes in
        // comparable wall-clock time.
        assert!(scaled.total_time.get() < baseline.total_time.get() * 2.0);
    }

    #[test]
    fn report_carries_reliability_summary() {
        let (system, model) = hot_setup(15_020.0);
        let cap = system.logical_sectors();
        let report = DtmController::new(system, model, DtmPolicy::None, THERMAL_ENVELOPE)
            .run(heavy_trace(500, 100.0, cap))
            .unwrap();
        assert!(report.mean_air.get() >= 28.0);
        assert!(report.failure_acceleration >= 1.0);
        // The doubling law ties the two fields together.
        let expected = 2f64.powf((report.mean_air.get() - 28.0) / 15.0);
        assert!((report.failure_acceleration - expected).abs() < 1e-9);
    }

    #[test]
    fn speed_scaling_saves_energy() {
        // The DRPM heritage: serving at a reduced speed near the
        // envelope burns less spindle energy than running flat out.
        let run = |policy: DtmPolicy| {
            let (system, model) = hot_setup(24_534.0);
            let cap = system.logical_sectors();
            DtmController::new(system, model, policy, THERMAL_ENVELOPE)
                .with_initial_temps(NodeTemps::uniform(Celsius::new(44.9)))
                .run(heavy_trace(1_500, 120.0, cap))
                .unwrap()
        };
        let flat = run(DtmPolicy::None);
        let scaled = run(DtmPolicy::SpeedScale {
            high: Rpm::new(24_534.0),
            low: Rpm::new(15_020.0),
            guard: TempDelta::new(0.1),
            resume_margin: TempDelta::new(0.2),
        });
        let flat_w = flat.energy.total_j() / flat.energy.elapsed.get();
        let scaled_w = scaled.energy.total_j() / scaled.energy.elapsed.get();
        assert!(
            scaled_w < flat_w,
            "speed scaling should cut mean power: {scaled_w:.1} vs {flat_w:.1} W"
        );
        assert!(flat.energy.total_j() > 0.0);
    }

    #[test]
    fn smart_sensor_needs_a_guard_matching_its_resolution() {
        use diskthermal::TempSensor;
        let trace_len = 2_000;
        let run = |sensor: TempSensor, guard: f64| {
            let (system, model) = hot_setup(24_534.0);
            let cap = system.logical_sectors();
            DtmController::new(
                system,
                model,
                DtmPolicy::Throttle {
                    mechanism: ThrottlePolicy::VcmOnly {
                        rpm: Rpm::new(24_534.0),
                    },
                    guard: TempDelta::new(guard),
                    resume_margin: TempDelta::new(0.2),
                },
                THERMAL_ENVELOPE,
            )
            .with_sensor(sensor)
            .with_initial_temps(NodeTemps::uniform(Celsius::new(43.5)))
            .run(heavy_trace(trace_len, 120.0, cap))
            .unwrap()
        };
        // With a guard covering the sensor's worst-case under-reporting
        // (1 C quantization) plus drift headroom, the envelope holds.
        let sensed = run(TempSensor::smart_style(), 1.3);
        assert_eq!(sensed.stats.count(), trace_len as u64);
        assert!(
            sensed.max_air <= THERMAL_ENVELOPE + TempDelta::new(0.35),
            "sensed control peaked at {}",
            sensed.max_air
        );
        // A guard thinner than the quantization lets the true
        // temperature slip past the sensed trip point.
        let thin = run(TempSensor::smart_style(), 0.05);
        assert!(thin.max_air >= sensed.max_air);
    }

    #[test]
    fn hysteresis_absorbs_smart_sensor_quantization_without_flapping() {
        use diskthermal::TempSensor;
        // Run the throttle policy through the SMART-style sensor (1 C
        // quantization, 1 s polling) and pull the engage/disengage
        // events from the trace sink.
        let run = |resume_margin: f64| {
            let (system, model) = hot_setup(24_534.0);
            let cap = system.logical_sectors();
            let mut sink = diskobs::Sink::buffer();
            let report = DtmController::new(
                system,
                model,
                DtmPolicy::Throttle {
                    // RPM drops while gated, so the drive genuinely
                    // cools, disengages, and reheats — the oscillation
                    // a thin margin turns into flapping.
                    mechanism: ThrottlePolicy::VcmAndRpm {
                        high: Rpm::new(24_534.0),
                        low: Rpm::new(15_020.0),
                    },
                    guard: TempDelta::new(1.3),
                    resume_margin: TempDelta::new(resume_margin),
                },
                THERMAL_ENVELOPE,
            )
            .with_sensor(TempSensor::smart_style())
            .with_initial_temps(NodeTemps::uniform(Celsius::new(44.0)))
            .run_with_sink(heavy_trace(3_000, 120.0, cap), &mut sink)
            .unwrap();
            let transitions: Vec<(f64, bool)> = sink
                .drain()
                .into_iter()
                .filter_map(|e| match e.event {
                    diskobs::Event::ThrottleEngage { .. } => Some((e.t, true)),
                    diskobs::Event::ThrottleDisengage { .. } => Some((e.t, false)),
                    _ => None,
                })
                .collect();
            (report, transitions)
        };

        // With the resume margin wider than the sensor's 1 C
        // quantization, a re-engage needs a genuine >1 C reheat after
        // each disengage — thermal inertia cannot produce that within
        // the 1 s polling interval, so the throttle cannot flap.
        let (report, steady) = run(1.2);
        assert!(report.time_throttled.get() > 0.0, "throttle must engage");
        let mut prev_disengage: Option<f64> = None;
        for &(t, engaged) in &steady {
            if engaged {
                if let Some(d) = prev_disengage {
                    assert!(
                        t - d > 1.0,
                        "re-engaged {:.2}s after a disengage: sensor noise is flapping the throttle",
                        t - d
                    );
                }
            } else {
                prev_disengage = Some(t);
            }
        }

        // A zero resume margin puts trip and resume on the same sensed
        // degree, so quantization chatters the throttle — the wide
        // margin must strictly cut the transition count.
        let (_, chatter) = run(0.0);
        assert!(
            steady.len() < chatter.len(),
            "margin 1.2 C made {} transitions vs {} at zero margin",
            steady.len(),
            chatter.len()
        );
    }

    #[test]
    fn trip_rule_engages_holds_and_releases_at_its_edges() {
        let envelope = Celsius::new(45.0);
        let (guard, margin) = (TempDelta::new(0.5), TempDelta::new(1.0));
        let engage = envelope - guard;
        let release = engage - margin;
        let c = Celsius::new;
        // (tripped before, sensed, tripped after)
        let table = [
            (false, engage, true),
            (false, c(engage.get() - 1e-9), false),
            (false, c(44.0), false),
            (false, release, false),
            (true, c(50.0), true),
            (true, engage, true),
            (true, c(44.0), true),
            (true, c(release.get() + 1e-9), true),
            (true, release, false),
            (true, c(40.0), false),
            (false, c(f64::NAN), false),
            (true, c(f64::NAN), true),
        ];
        for (before, sensed, after) in table {
            assert_eq!(
                trip(before, sensed, envelope, guard, margin),
                after,
                "tripped {before} at {}",
                sensed.get()
            );
        }
    }

    #[test]
    fn duty_measurement_is_sane() {
        let (system, model) = hot_setup(15_020.0);
        let cap = system.logical_sectors();
        let report = DtmController::new(system, model, DtmPolicy::None, THERMAL_ENVELOPE)
            .run(heavy_trace(1_000, 100.0, cap))
            .unwrap();
        assert!(report.mean_vcm_duty > 0.0, "seeky trace has actuator activity");
        assert!(report.mean_vcm_duty <= 1.0);
    }
}
