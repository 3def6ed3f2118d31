//! The fleet-level DTM coordinator.
//!
//! `dtm::DtmController` runs one drive's policy in the same loop that
//! serves its requests; at rack scale the decisions move to a
//! coordinator that observes every enclosure at sync-epoch boundaries
//! and applies per-drive actuations — the §5.2 speed ramp (run a
//! multi-speed disk fast while slack lasts, drop it near the envelope)
//! or the §5.3 admission throttle — under one shared envelope.
//!
//! The coordinator never touches the enclosures directly: it announces
//! spindle-speed changes through a caller-supplied actuator closure and
//! publishes gating through [`Coordinator::gated`], so the fleet decides
//! where drives live in memory (important for the sharded event loop).

use serde::{Deserialize, Serialize};
use units::{Celsius, Rpm, TempDelta};

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
        /// Safety margin below the envelope at which to gate.
        guard: TempDelta,
        /// Hysteresis below the trip point before reopening.
        resume_margin: TempDelta,
    },
}

/// Per-drive control state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct DriveCtl {
    scaled_down: bool,
    gated: bool,
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
            states: vec![DriveCtl::default(); drives],
        }
    }

    /// Whether drive `i` currently has admission gated.
    pub fn gated(&self, i: usize) -> bool {
        self.states[i].gated
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
    /// fork adding enclosures). New drives start untripped and, under a
    /// speed-scaling policy, are primed at the high speed through the
    /// actuator — exactly as [`Self::prime`] would at startup.
    pub fn grow(&mut self, extra: usize, mut set_rpm: impl FnMut(usize, Rpm)) {
        let first = self.states.len();
        self.states.resize(first + extra, DriveCtl::default());
        if let FleetDtmPolicy::SpeedScale { high, .. } = self.policy {
            for i in first..self.states.len() {
                set_rpm(i, high);
            }
        }
    }

    /// Announces the starting speed of speed-modulating policies
    /// through the actuator.
    pub fn prime(&self, mut set_rpm: impl FnMut(usize, Rpm)) {
        if let FleetDtmPolicy::SpeedScale { high, .. } = self.policy {
            for i in 0..self.states.len() {
                set_rpm(i, high);
            }
        }
    }

    /// Phase 1 of the two-phase epoch commit: drive `i`'s control
    /// transition against its *epoch-start* hysteresis state, without
    /// applying it. Each drive's decision reads only its own state and
    /// air reading, so shards propose every drive in parallel; nothing
    /// changes under them because commits happen strictly afterwards.
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
                    dtm::trip(state.scaled_down, air, self.envelope, guard, resume_margin);
                if next.scaled_down != state.scaled_down {
                    action = Some(if next.scaled_down { "downshift" } else { "upshift" });
                    rpm = Some(if next.scaled_down { low } else { high });
                }
            }
            FleetDtmPolicy::Throttle {
                guard,
                resume_margin,
            } => {
                next.gated = dtm::trip(state.gated, air, self.envelope, guard, resume_margin);
                if next.gated != state.gated {
                    action = Some(if next.gated { "gate" } else { "ungate" });
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
/// `"downshift"`, `"upshift"`), and the speed to actuate for
/// speed-scaling transitions.
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

    /// Whether the proposed state has admission gated.
    pub(crate) fn gates(&self) -> bool {
        self.next.gated
    }

    /// Whether the proposed state runs at the reduced speed.
    pub(crate) fn scales(&self) -> bool {
        self.next.scaled_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn none_policy_never_engages() {
        let mut c = Coordinator::new(FleetDtmPolicy::None, Celsius::new(45.0), 2);
        let no_rpm = |_: usize, _: Rpm| panic!("no-control never actuates");
        c.prime(no_rpm);
        pass(&mut c, &[Celsius::new(60.0), Celsius::new(60.0)], no_rpm);
        assert_eq!(c.engaged(), 0);
    }
}
