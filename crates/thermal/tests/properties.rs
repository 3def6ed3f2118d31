//! Property-based tests for the thermal model's physical invariants.

use diskthermal::{
    max_rpm_within_envelope, DriveThermalSpec, EnvelopeSearch, FormFactor, Integrator,
    OperatingPoint, ThermalModel, ThermalParams, TransientSim, THERMAL_ENVELOPE,
};
use proptest::prelude::*;
use units::{Celsius, Inches, Rpm, Seconds};

/// Roadmap-regime drive specs (the model's calibrated validity domain).
fn spec_strategy() -> impl Strategy<Value = DriveThermalSpec> {
    (1.6f64..2.7, 1u32..5).prop_map(|(d, n)| DriveThermalSpec::new(Inches::new(d), n))
}

/// Coefficient sets around the calibrated defaults, with every
/// coefficient that shapes the step matrix or the heat split moved.
fn params_strategy() -> impl Strategy<Value = ThermalParams> {
    let scale = || 0.7f64..1.3;
    (scale(), scale(), scale(), scale(), scale()).prop_map(
        |(conductance, capacity, windage, vcm, external)| {
            let d = ThermalParams::default();
            ThermalParams {
                g_spindle_air: d.g_spindle_air * conductance,
                g_air_base: d.g_air_base / conductance,
                capacity_scale: d.capacity_scale * capacity,
                visc_air_split: d.visc_air_split * windage,
                vcm_air_split: d.vcm_air_split * vcm,
                c_ext_rpm: d.c_ext_rpm * external,
                ..d
            }
        },
    )
}

fn rpm_strategy() -> impl Strategy<Value = Rpm> {
    (10_000.0f64..200_000.0).prop_map(Rpm::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn steady_temps_at_or_above_ambient(spec in spec_strategy(), rpm in rpm_strategy()) {
        let m = ThermalModel::new(spec);
        let t = m.steady_state(OperatingPoint::seeking(rpm));
        let amb = spec.ambient();
        prop_assert!(t.air >= amb);
        prop_assert!(t.spindle >= amb);
        prop_assert!(t.base >= amb);
        prop_assert!(t.vcm >= amb);
    }

    #[test]
    fn air_temp_monotone_in_rpm(spec in spec_strategy(), rpm in 10_000.0f64..150_000.0) {
        let m = ThermalModel::new(spec);
        let lo = m.steady_air_temp(OperatingPoint::seeking(Rpm::new(rpm)));
        let hi = m.steady_air_temp(OperatingPoint::seeking(Rpm::new(rpm * 1.1)));
        prop_assert!(hi > lo, "spinning faster must run hotter");
    }

    #[test]
    fn vcm_duty_monotone(spec in spec_strategy(), rpm in rpm_strategy(), duty in 0.0f64..1.0) {
        let m = ThermalModel::new(spec);
        let some = m.steady_air_temp(OperatingPoint::new(rpm, duty));
        let full = m.steady_air_temp(OperatingPoint::seeking(rpm));
        let none = m.steady_air_temp(OperatingPoint::idle_vcm(rpm));
        prop_assert!(none <= some);
        prop_assert!(some <= full);
    }

    #[test]
    fn energy_balance_holds(spec in spec_strategy(), rpm in rpm_strategy(), duty in 0.0f64..1.0) {
        let m = ThermalModel::new(spec);
        let op = OperatingPoint::new(rpm, duty);
        let t = m.steady_state(op);
        let p = m.power_breakdown(op);
        // At steady state, heat out through the base equals heat in.
        let g = m.conductances(op);
        let out = (g.base_ambient() * (t.base - spec.ambient())).get();
        prop_assert!((out - p.total().get()).abs() < 1e-6,
            "out {out} W vs generated {} W", p.total());
    }

    #[test]
    fn ambient_shift_is_exact(spec in spec_strategy(), rpm in rpm_strategy(), drop in 1.0f64..15.0) {
        let m = ThermalModel::new(spec);
        let cooled_spec = spec.with_ambient(Celsius::new(spec.ambient().get() - drop));
        let mc = ThermalModel::new(cooled_spec);
        let op = OperatingPoint::seeking(rpm);
        let dt = (m.steady_air_temp(op) - mc.steady_air_temp(op)).get();
        prop_assert!((dt - drop).abs() < 1e-6, "linear network shifts exactly");
    }

    #[test]
    fn envelope_rpm_is_exactly_at_boundary(spec in spec_strategy()) {
        let m = ThermalModel::new(spec);
        if let Some(rpm) =
            max_rpm_within_envelope(&m, 1.0, THERMAL_ENVELOPE, EnvelopeSearch::default())
        {
            let t = m.steady_air_temp(OperatingPoint::seeking(rpm));
            prop_assert!(t <= THERMAL_ENVELOPE);
            let t_above = m.steady_air_temp(OperatingPoint::seeking(rpm * 1.02));
            prop_assert!(t_above > THERMAL_ENVELOPE || rpm.get() >= 499_000.0);
        }
    }

    #[test]
    fn transient_approaches_steady_from_both_sides(
        spec in spec_strategy(),
        rpm in 10_000.0f64..60_000.0,
    ) {
        let m = ThermalModel::new(spec);
        let op = OperatingPoint::seeking(Rpm::new(rpm));
        let steady = m.steady_air_temp(op);

        // From cold.
        let mut sim = TransientSim::from_ambient(&m);
        sim.advance(&m, op, Seconds::new(7_200.0));
        prop_assert!((sim.temps().air - steady).abs().get() < 0.6,
            "cold start: {} vs steady {}", sim.temps().air, steady);
        prop_assert!(sim.temps().air <= steady + units::TempDelta::new(1e-6),
            "no overshoot from below");
    }
}

// Long integrations make these cases expensive; a handful suffices
// because every case already sweeps thousands of steps.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cached_factorization_matches_naive_stepping(
        diameter in 1.6f64..2.6,
        platters in 1u32..5,
        params in params_strategy(),
        rpms in prop::collection::vec(10_000.0f64..60_000.0, 10..13),
        bursts in prop::collection::vec(
            (
                any::<usize>(),
                prop::collection::vec(
                    (1u64..13, prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0]),
                    1..5,
                ),
            ),
            600..700,
        ),
    ) {
        // The cached step factorization must reproduce factoring afresh
        // on every step bit for bit: windows of 1-12 steps, the speed
        // drawn from more values than the cache holds and held for a few
        // windows, the duty moving every window and the ambient every
        // few, on both enclosures.
        let dt = 0.05;
        let spec = DriveThermalSpec::new(Inches::new(diameter), platters);
        for form_factor in [FormFactor::Standard35, FormFactor::Small25] {
            let spec = spec.with_form_factor(form_factor);
            let mut m = ThermalModel::with_params(spec, params);
            let mut cached = TransientSim::from_ambient(&m)
                .with_step(Seconds::new(dt))
                .expect("positive step");
            let mut naive = cached.clone().with_step_cache(false);
            let mut window = 0usize;
            for (pick, windows) in &bursts {
                let rpm = Rpm::new(rpms[pick % rpms.len()]);
                for &(steps, duty) in windows {
                    window += 1;
                    if window.is_multiple_of(3) {
                        let ambient = 22.0 + (window % 11) as f64;
                        m = ThermalModel::with_params(spec.with_ambient(Celsius::new(ambient)), params);
                    }
                    let op = OperatingPoint::new(rpm, duty);
                    // Half a step short, so the ceiling lands on `steps`.
                    let span = Seconds::new((steps as f64 - 0.5) * dt);
                    cached.advance(&m, op, span);
                    naive.advance(&m, op, span);
                    let (c, n) = (cached.temps(), naive.temps());
                    for (node, x, y) in [
                        ("air", c.air, n.air),
                        ("spindle", c.spindle, n.spindle),
                        ("base", c.base, n.base),
                        ("vcm", c.vcm, n.vcm),
                    ] {
                        prop_assert_eq!(x.get().to_bits(), y.get().to_bits(),
                            "{form_factor}: {node} {x} vs {y} after window {window}");
                    }
                    prop_assert_eq!(cached.time().get().to_bits(), naive.time().get().to_bits(),
                        "{form_factor}: clock drifted after window {window}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn integrators_converge_to_the_same_steady_state(
        spec in spec_strategy(),
        rpm in 10_000.0f64..60_000.0,
    ) {
        let m = ThermalModel::new(spec);
        let op = OperatingPoint::seeking(Rpm::new(rpm));
        let air_at = |integrator, dt: f64, horizon: f64| {
            let mut sim = TransientSim::from_ambient(&m)
                .with_step(Seconds::new(dt))
                .expect("positive step")
                .with_integrator(integrator);
            sim.advance(&m, op, Seconds::new(horizon));
            sim.temps().air.get()
        };

        // Mid-transient, the schemes' truncation errors are O(dt), so
        // their disagreement must shrink as the step is refined...
        let mut diffs = Vec::new();
        for dt in [0.1, 0.05, 0.025] {
            diffs.push((air_at(Integrator::ForwardEuler, dt, 60.0)
                - air_at(Integrator::BackwardEuler, dt, 60.0)).abs());
        }
        prop_assert!(diffs[2] <= diffs[0] + 1e-9,
            "refining the step widened the scheme gap: {:?}", diffs);
        prop_assert!(diffs[2] < 0.5, "schemes disagree mid-transient: {:?}", diffs);

        // ...and at the horizon both settle onto the same steady state.
        let fe = air_at(Integrator::ForwardEuler, 0.1, 7_200.0);
        let be = air_at(Integrator::BackwardEuler, 0.1, 7_200.0);
        prop_assert!((fe - be).abs() < 0.1, "steady states diverge: {fe} vs {be}");
    }
}
