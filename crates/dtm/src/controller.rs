//! The trip/resume rule of every closed DTM loop.
//!
//! The paper evaluates its two mechanisms analytically and leaves the
//! control-policy evaluation to future work. The closed loop itself
//! runs in `diskfleet`: a fleet advances every drive in fixed control
//! windows and its coordinator applies the policy at each sync epoch —
//! one drive is a one-bay fleet. This module holds the rule the
//! coordinator's §5.2 speed scaling and §5.3 throttle share.

use units::{Celsius, TempDelta};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
