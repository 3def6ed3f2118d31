//! The DTM coordinator: the policy half of the closed loop.
//!
//! The coordinator observes every enclosure's sensed air at sync-epoch
//! boundaries and applies per-drive actuations — §5.2 speed scaling and
//! the slack ramp (run a multi-speed disk fast while slack lasts, drop
//! it near the envelope) or the §5.3 admission throttle — under one
//! shared envelope. A single drive is a one-bay fleet with one window
//! per epoch, so its decisions land after every control window.
//!
//! The coordinator never touches the enclosures directly: it announces
//! spindle-speed changes through a caller-supplied actuator closure and
//! publishes gating through [`Coordinator::gated`], so the fleet decides
//! where drives live in memory (important for the sharded event loop).

use crate::error::FleetError;
use serde::{Deserialize, Serialize};
use units::{Celsius, Rpm, TempDelta};

/// The trip/resume rule of the §5.2 speed scaling and the §5.3
/// throttle: the next tripped state of a drive whose sensed air is
/// `sensed`. Trips at `envelope − guard`, releases once the reading
/// falls `resume_margin` below that trip point, and holds otherwise —
/// so a NaN reading holds either state.
#[inline]
fn trip(
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

/// The per-drive actuation the coordinator applies fleet-wide.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FleetDtmPolicy {
    /// No control: the baseline that may violate the envelope.
    None,
    /// DRPM-style speed scaling (§5.2): each drive runs at `high` until
    /// its air crosses `envelope − guard`, then serves on at `low` until
    /// it cools `resume_margin` below the trip point.
    SpeedScale {
        /// Full-performance speed.
        high: Rpm,
        /// Reduced speed near the envelope.
        low: Rpm,
        /// Safety margin below the envelope at which to downshift.
        guard: TempDelta,
        /// Hysteresis below the trip point before upshifting.
        resume_margin: TempDelta,
    },
    /// Admission gating (§5.3): a drive crossing `envelope − guard`
    /// stops admitting new requests (in-flight work completes) until it
    /// cools `resume_margin` below the trip point. The router steers
    /// around gated drives.
    Throttle {
        /// `None` gates the actuator only and never touches the spindle
        /// (Figure 6(a)). `Some((high, low))` also drops the spindle
        /// (Figure 6(b)): it runs at `high`, falls to `low` while gated
        /// and resumes at `high`.
        speeds: Option<(Rpm, Rpm)>,
        /// Safety margin below the envelope at which to gate.
        guard: TempDelta,
        /// Hysteresis below the trip point before reopening.
        resume_margin: TempDelta,
    },
    /// The §5.2 slack ramp on a two-speed disk: each drive starts at
    /// `high`, falls back to `base` once its reading rises above
    /// `envelope − slack_margin`, and boosts again once it is at or
    /// below `envelope − 1.5·slack_margin`. Service continues at both
    /// speeds.
    SlackRamp {
        /// Baseline (envelope-design) speed.
        base: Rpm,
        /// Boosted speed while slack lasts.
        high: Rpm,
        /// Required margin below the envelope to stay boosted.
        slack_margin: TempDelta,
    },
}

impl FleetDtmPolicy {
    /// The two spindle speeds the policy can set, `None` when it never
    /// touches the spindle.
    pub(crate) fn speeds(&self) -> Option<[Rpm; 2]> {
        match *self {
            Self::SpeedScale { high, low, .. }
            | Self::Throttle {
                speeds: Some((high, low)),
                ..
            } => Some([high, low]),
            Self::SlackRamp { base, high, .. } => Some([base, high]),
            Self::None | Self::Throttle { speeds: None, .. } => None,
        }
    }

    /// Checks that every spindle speed the policy can set is positive
    /// and finite: a stopped spindle has no rotation period.
    pub(crate) fn check_speeds(&self) -> Result<(), FleetError> {
        match self.speeds().into_iter().flatten().find(|r| !(r.get() > 0.0 && r.is_finite())) {
            Some(r) => Err(FleetError::Config(format!(
                "DTM spindle speeds must be positive and finite, got {} RPM",
                r.get()
            ))),
            None => Ok(()),
        }
    }

    /// The speed every drive starts at, `None` when the policy keeps
    /// the drives' own speed.
    fn start_rpm(&self) -> Option<Rpm> {
        match *self {
            Self::SpeedScale { high, .. }
            | Self::SlackRamp { high, .. }
            | Self::Throttle {
                speeds: Some((high, _)),
                ..
            } => Some(high),
            Self::None | Self::Throttle { .. } => None,
        }
    }
}

/// Per-drive control state: the state a drive serves its next epoch in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct DriveCtl {
    /// Serving at the reduced speed (speed scaling).
    pub scaled_down: bool,
    /// Admission gated (throttle).
    pub gated: bool,
    /// Serving at the boosted speed (slack ramp).
    pub boosted: bool,
}

impl DriveCtl {
    /// A fresh drive's state: untripped, and boosted under the slack
    /// ramp (the drive starts at its high speed).
    fn fresh(policy: FleetDtmPolicy) -> Self {
        Self {
            boosted: matches!(policy, FleetDtmPolicy::SlackRamp { .. }),
            ..Self::default()
        }
    }
}

/// Complete dynamic state of a [`Coordinator`], captured for
/// checkpointing. Hysteresis position (which drives are currently
/// tripped) is part of the state: restoring without it would let a
/// gated drive resume admission one epoch early.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CoordinatorState {
    policy: FleetDtmPolicy,
    envelope: Celsius,
    states: Vec<DriveCtl>,
}

impl CoordinatorState {
    /// Number of drives this state covers (a restore sanity check).
    pub fn drives(&self) -> usize {
        self.states.len()
    }

    /// The policy the coordinator applies.
    pub fn policy(&self) -> FleetDtmPolicy {
        self.policy
    }
}

/// Applies a [`FleetDtmPolicy`] to every enclosure at epoch boundaries.
#[derive(Debug, Clone)]
pub(crate) struct Coordinator {
    policy: FleetDtmPolicy,
    envelope: Celsius,
    states: Vec<DriveCtl>,
}

impl Coordinator {
    /// A coordinator for `drives` enclosures under one envelope.
    pub fn new(policy: FleetDtmPolicy, envelope: Celsius, drives: usize) -> Self {
        Self {
            policy,
            envelope,
            states: vec![DriveCtl::fresh(policy); drives],
        }
    }

    /// Whether drive `i` currently has admission gated.
    pub fn gated(&self, i: usize) -> bool {
        self.states[i].gated
    }

    /// Every drive's committed control state, in enclosure order.
    pub fn states(&self) -> &[DriveCtl] {
        &self.states
    }

    /// Number of drives currently under control action (gated or
    /// scaled down).
    pub fn engaged(&self) -> usize {
        self.states.iter().filter(|s| s.gated || s.scaled_down).count()
    }

    /// Captures the coordinator's full control state for checkpointing.
    pub fn capture_state(&self) -> CoordinatorState {
        CoordinatorState {
            policy: self.policy,
            envelope: self.envelope,
            states: self.states.clone(),
        }
    }

    /// Rebuilds a coordinator mid-flight from a captured state.
    pub fn restore_state(state: CoordinatorState) -> Self {
        Self {
            policy: state.policy,
            envelope: state.envelope,
            states: state.states,
        }
    }

    /// Extends the coordinator with `extra` fresh drives (a what-if
    /// fork adding enclosures). New drives start as at startup and, under
    /// a speed-modulating policy, are primed at the high speed through
    /// the actuator — exactly as [`Self::prime`] would.
    pub fn grow(&mut self, extra: usize, mut set_rpm: impl FnMut(usize, Rpm)) {
        let first = self.states.len();
        self.states.resize(first + extra, DriveCtl::fresh(self.policy));
        if let Some(high) = self.policy.start_rpm() {
            for i in first..self.states.len() {
                set_rpm(i, high);
            }
        }
    }

    /// Announces the starting speed of speed-modulating policies
    /// through the actuator.
    pub fn prime(&self, mut set_rpm: impl FnMut(usize, Rpm)) {
        if let Some(high) = self.policy.start_rpm() {
            for i in 0..self.states.len() {
                set_rpm(i, high);
            }
        }
    }

    /// Phase 1 of the two-phase epoch commit: drive `i`'s control
    /// transition on its sensed air `air` against its *epoch-start*
    /// hysteresis state, without applying it. Each drive's decision
    /// reads only its own state and air reading, so shards propose every
    /// drive in parallel; nothing changes under them because commits
    /// happen strictly afterwards.
    pub(crate) fn propose(&self, i: usize, air: Celsius) -> CtlProposal {
        let state = self.states[i];
        let mut next = state;
        let (mut action, mut rpm) = (None, None);
        match self.policy {
            FleetDtmPolicy::None => {}
            FleetDtmPolicy::SpeedScale {
                high,
                low,
                guard,
                resume_margin,
            } => {
                next.scaled_down =
                    trip(state.scaled_down, air, self.envelope, guard, resume_margin);
                if next.scaled_down != state.scaled_down {
                    action = Some(if next.scaled_down { "downshift" } else { "upshift" });
                    rpm = Some(if next.scaled_down { low } else { high });
                }
            }
            FleetDtmPolicy::Throttle {
                speeds,
                guard,
                resume_margin,
            } => {
                next.gated = trip(state.gated, air, self.envelope, guard, resume_margin);
                if next.gated != state.gated {
                    action = Some(if next.gated { "gate" } else { "ungate" });
                    if let Some((high, low)) = speeds {
                        rpm = Some(if next.gated { low } else { high });
                    }
                }
            }
            FleetDtmPolicy::SlackRamp {
                base,
                high,
                slack_margin,
            } => {
                // A NaN reading has no slack: a boosted drive falls back.
                let slack = air <= self.envelope - slack_margin;
                if state.boosted && !slack {
                    next.boosted = false;
                    (action, rpm) = (Some("unboost"), Some(base));
                } else if !state.boosted && air <= self.envelope - slack_margin * 1.5 {
                    next.boosted = true;
                    (action, rpm) = (Some("boost"), Some(high));
                }
            }
        }
        CtlProposal { next, action, rpm }
    }

    /// Phase 2: installs one proposal per drive in enclosure order — a
    /// cheap deterministic reduce over what the shards proposed.
    ///
    /// # Panics
    ///
    /// Panics if `proposals` does not carry one entry per drive.
    pub(crate) fn commit_all(&mut self, proposals: &[CtlProposal]) {
        assert_eq!(proposals.len(), self.states.len(), "one proposal per drive");
        for (state, p) in self.states.iter_mut().zip(proposals) {
            *state = p.next;
        }
    }
}

/// A proposed per-drive control transition: the next hysteresis state,
/// the trace label when a transition fires (`"gate"`, `"ungate"`,
/// `"downshift"`, `"upshift"`, `"boost"`, `"unboost"`), and the speed
/// to actuate when the transition changes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CtlProposal {
    next: DriveCtl,
    /// Trace label, `None` when the drive holds steady.
    pub action: Option<&'static str>,
    /// Spindle speed to actuate, `None` unless a speed transition fired.
    pub rpm: Option<Rpm>,
}

impl CtlProposal {
    /// A hold-steady proposal for an untripped drive; the fleet's
    /// proposal scratch is initialized with these before every slot is
    /// overwritten by the parallel propose pass.
    pub(crate) fn noop() -> Self {
        Self {
            next: DriveCtl::default(),
            action: None,
            rpm: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnclosureReport, Fleet, FleetConfig, FleetError, FleetReport};
    use disksim::{DiskSpec, Request, RequestKind, StorageSystem, SystemConfig};
    use diskthermal::{
        DriveThermalSpec, NodeTemps, OperatingPoint, TempSensor, ThermalModel, THERMAL_ENVELOPE,
    };
    use units::{Inches, Seconds};

    /// One control pass as the fleet runs it: every drive proposes
    /// against its epoch-start state, speed changes actuate, and the
    /// proposals commit.
    fn pass(c: &mut Coordinator, airs: &[Celsius], mut set_rpm: impl FnMut(usize, Rpm)) {
        let proposals: Vec<CtlProposal> =
            airs.iter().enumerate().map(|(i, &air)| c.propose(i, air)).collect();
        for (i, p) in proposals.iter().enumerate() {
            if let Some(rpm) = p.rpm {
                set_rpm(i, rpm);
            }
        }
        c.commit_all(&proposals);
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
    fn speed_scale_downshifts_only_the_hot_drive_and_recovers() {
        let mut rpms = vec![Rpm::new(0.0); 3];
        let mut c = Coordinator::new(
            FleetDtmPolicy::SpeedScale {
                high: Rpm::new(20_000.0),
                low: Rpm::new(12_000.0),
                guard: TempDelta::new(0.5),
                resume_margin: TempDelta::new(0.5),
            },
            Celsius::new(45.0),
            3,
        );
        c.prime(|i, rpm| rpms[i] = rpm);
        assert_eq!(rpms, vec![Rpm::new(20_000.0); 3]);

        let hot = [Celsius::new(40.0), Celsius::new(44.8), Celsius::new(40.0)];
        pass(&mut c, &hot, |i, rpm| rpms[i] = rpm);
        assert_eq!(rpms[0], Rpm::new(20_000.0));
        assert_eq!(rpms[1], Rpm::new(12_000.0));
        assert!(c.states[1].scaled_down && c.engaged() == 1);

        // Hysteresis: just below the trip point is not enough to resume.
        let warm = [Celsius::new(40.0), Celsius::new(44.2), Celsius::new(40.0)];
        pass(&mut c, &warm, |i, rpm| rpms[i] = rpm);
        assert_eq!(rpms[1], Rpm::new(12_000.0));

        let cool = [Celsius::new(40.0), Celsius::new(43.5), Celsius::new(40.0)];
        pass(&mut c, &cool, |i, rpm| rpms[i] = rpm);
        assert_eq!(rpms[1], Rpm::new(20_000.0));
        assert_eq!(c.engaged(), 0);
    }

    #[test]
    fn throttle_gates_and_reopens_with_hysteresis() {
        let mut c = Coordinator::new(
            FleetDtmPolicy::Throttle {
                speeds: None,
                guard: TempDelta::new(0.2),
                resume_margin: TempDelta::new(0.3),
            },
            Celsius::new(45.0),
            2,
        );
        let no_rpm = |_: usize, _: Rpm| panic!("throttling never touches the spindle");
        pass(&mut c, &[Celsius::new(44.9), Celsius::new(40.0)], no_rpm);
        assert!(c.gated(0) && !c.gated(1));
        pass(&mut c, &[Celsius::new(44.6), Celsius::new(40.0)], no_rpm);
        assert!(c.gated(0), "inside the hysteresis band the gate holds");
        pass(&mut c, &[Celsius::new(44.4), Celsius::new(40.0)], no_rpm);
        assert!(!c.gated(0));
    }

    #[test]
    fn vcm_and_rpm_throttle_drops_and_resumes_the_spindle() {
        let mut rpms = [Rpm::new(0.0); 1];
        let mut c = Coordinator::new(
            FleetDtmPolicy::Throttle {
                speeds: Some((Rpm::new(24_000.0), Rpm::new(15_000.0))),
                guard: TempDelta::new(0.2),
                resume_margin: TempDelta::new(0.3),
            },
            Celsius::new(45.0),
            1,
        );
        c.prime(|i, rpm| rpms[i] = rpm);
        assert_eq!(rpms[0], Rpm::new(24_000.0), "service starts at the high speed");
        pass(&mut c, &[Celsius::new(44.9)], |i, rpm| rpms[i] = rpm);
        assert!(c.gated(0));
        assert_eq!(rpms[0], Rpm::new(15_000.0));
        pass(&mut c, &[Celsius::new(44.4)], |i, rpm| rpms[i] = rpm);
        assert!(!c.gated(0));
        assert_eq!(rpms[0], Rpm::new(24_000.0));
    }

    #[test]
    fn slack_ramp_falls_back_and_reboosts_at_its_edges() {
        let mut rpms = [Rpm::new(0.0); 1];
        let mut c = Coordinator::new(
            FleetDtmPolicy::SlackRamp {
                base: Rpm::new(15_000.0),
                high: Rpm::new(26_000.0),
                slack_margin: TempDelta::new(0.5),
            },
            Celsius::new(45.0),
            1,
        );
        c.prime(|i, rpm| rpms[i] = rpm);
        assert_eq!(rpms[0], Rpm::new(26_000.0), "a fresh drive starts boosted");
        assert!(c.states[0].boosted && c.engaged() == 0);
        // At the slack margin the boost holds; just above it, it falls back.
        pass(&mut c, &[Celsius::new(44.5)], |i, rpm| rpms[i] = rpm);
        assert!(c.states[0].boosted);
        pass(&mut c, &[Celsius::new(44.5 + 1e-9)], |i, rpm| rpms[i] = rpm);
        assert!(!c.states[0].boosted);
        assert_eq!(rpms[0], Rpm::new(15_000.0));
        // Re-boosting needs 1.5 margins of slack.
        pass(&mut c, &[Celsius::new(44.3)], |i, rpm| rpms[i] = rpm);
        assert!(!c.states[0].boosted);
        pass(&mut c, &[Celsius::new(44.25)], |i, rpm| rpms[i] = rpm);
        assert!(c.states[0].boosted);
        assert_eq!(rpms[0], Rpm::new(26_000.0));
        // A NaN reading shows no slack: the boosted drive falls back.
        pass(&mut c, &[Celsius::new(f64::NAN)], |i, rpm| rpms[i] = rpm);
        assert!(!c.states[0].boosted);
    }

    #[test]
    fn none_policy_never_engages() {
        let mut c = Coordinator::new(FleetDtmPolicy::None, Celsius::new(45.0), 2);
        let no_rpm = |_: usize, _: Rpm| panic!("no-control never actuates");
        c.prime(no_rpm);
        pass(&mut c, &[Celsius::new(60.0), Celsius::new(60.0)], no_rpm);
        assert_eq!(c.engaged(), 0);
    }

    // ---- The closed loop on one drive: a one-bay fleet deciding after
    // every 250 ms control window. ----

    /// Ambient of every one-bay test drive (the serial rack's inlet).
    const AMBIENT: f64 = 28.0;

    /// A 2.6" single-platter drive at `rpm` (24,534 RPM is 2005's
    /// requirement, worst-case steady state 48.26 C > envelope) as a
    /// one-bay fleet started at `start` temperatures.
    fn one_bay(rpm: f64, dtm: FleetDtmPolicy, start: NodeTemps) -> FleetConfig {
        let mut config = FleetConfig::serial(
            1,
            DiskSpec::era(2002, 1, Rpm::new(rpm)),
            DriveThermalSpec::new(Inches::new(2.6), 1),
            10.0,
        )
        .unwrap();
        config.dtm = dtm;
        config.windows_per_epoch = 1;
        config.start = Some(start);
        config
    }

    fn cold() -> NodeTemps {
        NodeTemps::uniform(Celsius::new(AMBIENT))
    }

    fn uniform(c: f64) -> NodeTemps {
        NodeTemps::uniform(Celsius::new(c))
    }

    /// A seek-heavy trace that keeps the actuator busy.
    fn heavy_trace(n: usize, rate_per_sec: f64, rpm: f64) -> Vec<Request> {
        let spec = DiskSpec::era(2002, 1, Rpm::new(rpm));
        let capacity =
            StorageSystem::new(SystemConfig::single_disk(spec)).unwrap().logical_sectors();
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

    fn run(config: FleetConfig, trace: Vec<Request>) -> (FleetReport, EnclosureReport) {
        let report = Fleet::new(config).unwrap().run(trace).unwrap();
        let bay = report.per_enclosure[0].clone();
        (report, bay)
    }

    fn vcm_only(guard: f64, resume_margin: f64) -> FleetDtmPolicy {
        FleetDtmPolicy::Throttle {
            speeds: None,
            guard: TempDelta::new(guard),
            resume_margin: TempDelta::new(resume_margin),
        }
    }

    fn speed_scale() -> FleetDtmPolicy {
        FleetDtmPolicy::SpeedScale {
            high: Rpm::new(24_534.0),
            low: Rpm::new(15_020.0),
            guard: TempDelta::new(0.1),
            resume_margin: TempDelta::new(0.2),
        }
    }

    #[test]
    fn a_gate_that_never_opens_is_an_error() {
        // An envelope below the idle temperature trips the throttle in
        // the first window and never releases it. The arrivals come
        // after that window, which admits before anything is sensed.
        let trace: Vec<Request> = heavy_trace(12, 10.0, 15_020.0)
            .into_iter()
            .map(|mut r| {
                r.arrival += Seconds::new(1.0);
                r
            })
            .collect();
        let mut config = one_bay(15_020.0, vcm_only(0.1, 0.2), cold());
        config.envelope = Celsius::new(20.0);
        let err = Fleet::new(config).unwrap().run(trace).unwrap_err();
        let FleetError::SimTimeCap { at, pending } = err else {
            panic!("expected the sim-time cap, got {err}");
        };
        assert!(at.get() > 24.0 * 3600.0, "stopped early at {at}");
        assert_eq!(pending, 12);
    }

    #[test]
    fn baseline_overheats_hot_drive() {
        let model = ThermalModel::new(DriveThermalSpec::new(Inches::new(2.6), 1));
        let hot_start = model.steady_state(OperatingPoint::seeking(Rpm::new(24_534.0)));
        let (report, bay) = run(
            one_bay(24_534.0, FleetDtmPolicy::None, hot_start),
            heavy_trace(2_000, 120.0, 24_534.0),
        );
        assert!(
            bay.max_air > THERMAL_ENVELOPE,
            "uncontrolled hot drive must exceed the envelope, got {}",
            bay.max_air
        );
        assert_eq!(report.stats.count(), 2_000);
    }

    #[test]
    fn throttling_caps_temperature() {
        // Start just below the envelope.
        let (report, bay) = run(
            one_bay(24_534.0, vcm_only(0.1, 0.2), uniform(44.5)),
            heavy_trace(2_000, 120.0, 24_534.0),
        );
        assert!(
            bay.max_air <= THERMAL_ENVELOPE + TempDelta::new(0.3),
            "throttled run peaked at {}",
            bay.max_air
        );
        assert_eq!(report.stats.count(), 2_000, "all requests still complete");
    }

    #[test]
    fn throttling_trades_latency_for_temperature() {
        let go = |dtm| {
            run(one_bay(24_534.0, dtm, uniform(44.8)), heavy_trace(1_500, 150.0, 24_534.0))
        };
        let (baseline, baseline_bay) = go(FleetDtmPolicy::None);
        let (throttled, throttled_bay) = go(vcm_only(0.1, 0.2));
        assert!(throttled_bay.max_air < baseline_bay.max_air);
        assert!(
            throttled.stats.mean() >= baseline.stats.mean(),
            "gating cannot make requests faster"
        );
        assert!(throttled_bay.time_gated.get() > 0.0);
    }

    #[test]
    fn slack_ramp_boosts_while_cool_and_respects_envelope() {
        let policy = FleetDtmPolicy::SlackRamp {
            base: Rpm::new(15_020.0),
            high: Rpm::new(24_000.0),
            slack_margin: TempDelta::new(0.5),
        };
        let (_, bay) = run(one_bay(15_020.0, policy, cold()), heavy_trace(2_000, 100.0, 15_020.0));
        assert!(bay.time_boosted.get() > 0.0, "cold drive should boost");
        assert!(
            bay.max_air <= THERMAL_ENVELOPE + TempDelta::new(0.3),
            "slack ramp peaked at {}",
            bay.max_air
        );
    }

    #[test]
    fn slack_ramp_improves_response_over_base() {
        let trace = || heavy_trace(2_500, 140.0, 15_020.0);
        let (base, _) = run(one_bay(15_020.0, FleetDtmPolicy::None, cold()), trace());
        let ramp = FleetDtmPolicy::SlackRamp {
            base: Rpm::new(15_020.0),
            high: Rpm::new(26_000.0),
            slack_margin: TempDelta::new(0.5),
        };
        let (boost, _) = run(one_bay(15_020.0, ramp, cold()), trace());
        assert!(
            boost.stats.mean() < base.stats.mean(),
            "slack boost should cut mean response: {} vs {}",
            boost.stats.mean().to_millis(),
            base.stats.mean().to_millis()
        );
    }

    #[test]
    fn speed_scale_never_gates_and_trims_heat() {
        let go = |dtm| {
            run(one_bay(24_534.0, dtm, uniform(44.9)), heavy_trace(2_000, 140.0, 24_534.0))
        };
        let (baseline, baseline_bay) = go(FleetDtmPolicy::None);
        let (scaled, scaled_bay) = go(speed_scale());
        assert_eq!(scaled.stats.count(), 2_000);
        assert!(scaled_bay.max_air <= baseline_bay.max_air);
        assert!(scaled_bay.time_scaled.get() > 0.0, "the downshift must engage");
        assert_eq!(scaled_bay.time_gated, Seconds::ZERO);
        // Unlike gating, service continues: the run finishes in
        // comparable simulated time.
        assert!(scaled.total_time.get() < baseline.total_time.get() * 2.0);
    }

    #[test]
    fn report_carries_reliability_summary() {
        let (_, bay) = run(
            one_bay(15_020.0, FleetDtmPolicy::None, cold()),
            heavy_trace(500, 100.0, 15_020.0),
        );
        assert!(bay.mean_air.get() >= AMBIENT);
        let acceleration =
            diskthermal::reliability::failure_acceleration(bay.mean_air, Celsius::new(AMBIENT));
        assert!(acceleration >= 1.0);
        // The doubling law ties the two numbers together.
        let expected = 2f64.powf((bay.mean_air.get() - AMBIENT) / 15.0);
        assert!((acceleration - expected).abs() < 1e-9);
    }

    #[test]
    fn speed_scaling_saves_energy() {
        // The DRPM heritage: serving at a reduced speed near the
        // envelope burns less spindle energy than running flat out.
        let go = |dtm| {
            run(one_bay(24_534.0, dtm, uniform(44.9)), heavy_trace(1_500, 120.0, 24_534.0)).1
        };
        let flat = go(FleetDtmPolicy::None).energy;
        let scaled = go(speed_scale()).energy;
        let flat_w = flat.total_j() / flat.elapsed.get();
        let scaled_w = scaled.total_j() / scaled.elapsed.get();
        assert!(
            scaled_w < flat_w,
            "speed scaling should cut mean power: {scaled_w:.1} vs {flat_w:.1} W"
        );
        assert!(flat.total_j() > 0.0);
    }

    #[test]
    fn smart_sensor_needs_a_guard_matching_its_resolution() {
        let go = |guard: f64| {
            let mut config = one_bay(24_534.0, vcm_only(guard, 0.2), uniform(43.5));
            config.sensor = TempSensor::smart_style();
            run(config, heavy_trace(2_000, 120.0, 24_534.0))
        };
        // With a guard covering the sensor's worst-case under-reporting
        // (1 C quantization) plus drift headroom, the envelope holds.
        let (sensed, sensed_bay) = go(1.3);
        assert_eq!(sensed.stats.count(), 2_000);
        assert!(
            sensed_bay.max_air <= THERMAL_ENVELOPE + TempDelta::new(0.35),
            "sensed control peaked at {}",
            sensed_bay.max_air
        );
        // A guard thinner than the quantization lets the true
        // temperature slip past the sensed trip point.
        let (_, thin_bay) = go(0.05);
        assert!(thin_bay.max_air >= sensed_bay.max_air);
    }

    #[test]
    fn hysteresis_absorbs_smart_sensor_quantization_without_flapping() {
        // Run the throttle policy through the SMART-style sensor (1 C
        // quantization, 1 s polling) and pull the gate/ungate actions
        // from the trace sink.
        let go = |resume_margin: f64| {
            // RPM drops while gated, so the drive genuinely cools,
            // reopens, and reheats — the oscillation a thin margin
            // turns into flapping.
            let policy = FleetDtmPolicy::Throttle {
                speeds: Some((Rpm::new(24_534.0), Rpm::new(15_020.0))),
                guard: TempDelta::new(1.3),
                resume_margin: TempDelta::new(resume_margin),
            };
            let mut config = one_bay(24_534.0, policy, uniform(44.0));
            config.sensor = TempSensor::smart_style();
            let mut sink = diskobs::Sink::buffer();
            let report = Fleet::new(config)
                .unwrap()
                .run_with_sink(heavy_trace(3_000, 120.0, 24_534.0), &mut sink)
                .unwrap();
            let mut events = Vec::new();
            sink.drain_into(&mut events);
            let transitions: Vec<(f64, bool)> = events
                .into_iter()
                .filter_map(|e| match e.event {
                    diskobs::Event::CoordinatorAction { action, .. } => match action {
                        "gate" => Some((e.t, true)),
                        "ungate" => Some((e.t, false)),
                        _ => None,
                    },
                    _ => None,
                })
                .collect();
            (report.per_enclosure[0].clone(), transitions)
        };

        // With the resume margin wider than the sensor's 1 C
        // quantization, a re-engage needs a genuine >1 C reheat after
        // each disengage — thermal inertia cannot produce that within
        // the 1 s polling interval, so the throttle cannot flap.
        let (bay, steady) = go(1.2);
        assert!(bay.time_gated.get() > 0.0, "throttle must engage");
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
        let (_, chatter) = go(0.0);
        assert!(
            steady.len() < chatter.len(),
            "margin 1.2 C made {} transitions vs {} at zero margin",
            steady.len(),
            chatter.len()
        );
    }

    #[test]
    fn duty_measurement_is_sane() {
        let (_, bay) = run(
            one_bay(15_020.0, FleetDtmPolicy::None, cold()),
            heavy_trace(1_000, 100.0, 15_020.0),
        );
        assert!(bay.mean_duty > 0.0, "seeky trace has actuator activity");
        assert!(bay.mean_duty <= 1.0);
    }

}
