//! The exact window map of the thermal network.
//!
//! Within one control window the DTM loop holds its inputs — spindle
//! speed, actuator duty, local ambient — constant, so the network
//! `C·dT/dt = b − A·T` is a linear ODE with a constant source, and its
//! solution over a window of length `h` is exact:
//!
//! ```text
//! T(t + h) = Φ·T(t) + Ψ·b,   Φ = e^(−C⁻¹A·h),   Ψ = (I − Φ)·A⁻¹
//! ```
//!
//! `C` is diagonal and `A` symmetric positive definite (every coupling
//! enters through symmetric `couple` calls and the base is tied to
//! ambient), so the generalized problem `A·v = λ·C·v` has real, positive
//! eigenvalues. [`Propagator::new`] solves it once, as a Jacobi
//! eigensolve of `C^-1/2·A·C^-1/2`, with `V` normalized so that
//! `Vᵀ·C·V = I`; then `Φ = V·e^(−Λh)·Vᵀ·C` and
//! `Ψ = V·diag(−expm1(−λh)/λ)·Vᵀ`. A window costs two 4×4
//! matrix-vector products, at any window length, with no truncation
//! error — where backward Euler at the step `dt` is first-order accurate
//! and needs `h/dt` solves.
//!
//! The ambient and the actuator duty enter only `b`, built per window by
//! the same arithmetic as `ThermalModel::source`, so one propagator
//! serves a drive at one spindle speed under any ambient and load. CoMeT
//! (PAPERS.md) makes the same interval argument for processor thermal
//! simulation.

use crate::error::ThermalError;
use crate::linalg::symmetric_eigen;
use crate::model::{NodeTemps, SpeedSources, ThermalModel, NODES};
use units::{Celsius, Rpm, Seconds};

type Matrix = [[f64; NODES]; NODES];

/// The exact map of one drive's node temperatures across one window of
/// fixed length at one spindle speed (see the module docs).
///
/// # Examples
///
/// ```
/// use diskthermal::{DriveThermalSpec, OperatingPoint, Propagator, ThermalModel};
/// use units::{Rpm, Seconds};
///
/// let model = ThermalModel::new(DriveThermalSpec::cheetah_15k3());
/// let rpm = Rpm::new(15_000.0);
/// let hour = Propagator::new(&model, rpm, Seconds::new(3_600.0)).unwrap();
/// // Four hours in, the drive sits at its steady state.
/// let ambient = model.spec().ambient();
/// let mut t = diskthermal::NodeTemps::uniform(ambient);
/// for _ in 0..4 {
///     t = hour.advance(t, ambient, 1.0);
/// }
/// let steady = model.steady_state(OperatingPoint::seeking(rpm));
/// assert!((t.air - steady.air).abs().get() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct Propagator {
    rpm: Rpm,
    phi: Matrix,
    psi: Matrix,
    sources: SpeedSources,
    /// The actuator's power at full duty, watts.
    vcm_watts: f64,
}

impl Propagator {
    /// Builds the window map of `model`'s drive at `rpm` over windows
    /// of length `window`. The model's ambient plays no part: the
    /// ambient enters per window through [`Self::advance`].
    ///
    /// # Errors
    ///
    /// [`ThermalError::NonPositiveStep`] for a window that is not
    /// positive and finite, and [`ThermalError::BadSpec`] for a negative
    /// or non-finite speed, or a network at that speed whose matrices
    /// are not finite or not positive definite (such as one spun at
    /// 1e300 RPM).
    pub fn new(model: &ThermalModel, rpm: Rpm, window: Seconds) -> Result<Self, ThermalError> {
        let h = window.get();
        if !(h.is_finite() && h > 0.0) {
            return Err(ThermalError::NonPositiveStep(h));
        }
        if !(rpm.get().is_finite() && rpm.get() >= 0.0) {
            return Err(ThermalError::BadSpec("spindle speed must be finite and non-negative"));
        }
        let (a, sources) = model.network(rpm);
        if !sources.is_finite() {
            return Err(ThermalError::BadSpec("heat sources at this speed are not finite"));
        }
        let caps = model.capacities().map(|c| c.get());
        // S = C^-1/2·A·C^-1/2 is symmetric; with S = W·Λ·Wᵀ, V = C^-1/2·W
        // solves A·v = λ·C·v and satisfies Vᵀ·C·V = I.
        let d = caps.map(|c| 1.0 / c.sqrt());
        let mut s = a;
        for (i, row) in s.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x *= d[i] * d[j];
            }
        }
        let not_spd =
            ThermalError::BadSpec("thermal network at this speed is not positive definite");
        let (lambda, w) = symmetric_eigen(s).ok_or(not_spd)?;
        if lambda.iter().any(|&l| !(l > 0.0 && l.is_finite())) {
            return Err(not_spd);
        }
        let mut v = w;
        for (i, row) in v.iter_mut().enumerate() {
            for x in row.iter_mut() {
                *x *= d[i];
            }
        }
        let decay = lambda.map(|l| (-l * h).exp());
        let gain = lambda.map(|l| -(-l * h).exp_m1() / l);
        let mut phi = [[0.0; NODES]; NODES];
        let mut psi = [[0.0; NODES]; NODES];
        for i in 0..NODES {
            for j in 0..NODES {
                let (mut p, mut q) = (0.0, 0.0);
                for k in 0..NODES {
                    p += v[i][k] * decay[k] * v[j][k];
                    q += v[i][k] * gain[k] * v[j][k];
                }
                phi[i][j] = p * caps[j];
                psi[i][j] = q;
            }
        }
        if phi.iter().chain(&psi).flatten().any(|x| !x.is_finite()) {
            return Err(not_spd);
        }
        Ok(Self {
            rpm,
            phi,
            psi,
            sources,
            vcm_watts: model.spec().vcm_power().get(),
        })
    }

    /// The spindle speed this map was built for.
    pub fn rpm(&self) -> Rpm {
        self.rpm
    }

    /// Advances node temperatures `temps` by one window under local
    /// `ambient` at actuator duty `vcm_duty` (in `[0, 1]`):
    /// `T ← Φ·T + Ψ·b`, with `b` the source vector the drive's
    /// [`ThermalModel`] assembles at that ambient and duty.
    pub fn advance(&self, temps: NodeTemps, ambient: Celsius, vcm_duty: f64) -> NodeTemps {
        let b = self.sources.vector(ambient.get(), self.vcm_watts * vcm_duty);
        let t = temps.to_array();
        let mut out = [0.0; NODES];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for j in 0..NODES {
                acc += self.phi[i][j] * t[j] + self.psi[i][j] * b[j];
            }
            *o = acc;
        }
        NodeTemps::from_array(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::solve;
    use crate::spec::{DriveThermalSpec, OperatingPoint};
    use crate::transient::TransientSim;
    use rand::{Rng, SeedableRng};
    use units::Inches;

    /// The fleet drives' geometry: 2.6", one platter.
    fn drive() -> DriveThermalSpec {
        DriveThermalSpec::new(Inches::new(2.6), 1)
    }

    fn quarter() -> Seconds {
        Seconds::from_millis(250.0)
    }

    /// One 250-ms window by backward Euler in `steps` equal steps.
    fn euler(model: &ThermalModel, t: NodeTemps, op: OperatingPoint, steps: u32) -> NodeTemps {
        let step = quarter() / f64::from(steps);
        assert_eq!((quarter().get() / step.get()).ceil(), f64::from(steps));
        let mut sim = TransientSim::with_initial(t).with_step(step).unwrap();
        sim.advance(model, op, quarter());
        sim.temps()
    }

    fn gap(a: NodeTemps, b: NodeTemps) -> [f64; NODES] {
        let (a, b) = (a.to_array(), b.to_array());
        [0, 1, 2, 3].map(|i| (a[i] - b[i]).abs())
    }

    #[test]
    fn the_exact_map_beats_the_fifty_ms_step_against_a_fine_euler_reference() {
        // 4,000 seeded windows along one trajectory of the exact map:
        // duty 0–0.8, two speeds, a drifting 28–33 °C ambient. From each
        // window's start, the map, backward Euler at 50 ms (the fleet's
        // former step), 1 ms and 0.1 ms each advance one window.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_2005);
        let spec = drive();
        let base = ThermalModel::new(spec);
        let maps: Vec<Propagator> = [10_000.0, 15_020.0]
            .map(|r| Propagator::new(&base, Rpm::new(r), quarter()).unwrap())
            .into();
        let mut t = base.steady_state(OperatingPoint::idle_vcm(Rpm::new(15_020.0)));
        let (mut exact_vs_1ms, mut coarse_vs_1ms) = ([0.0f64; NODES], [0.0f64; NODES]);
        let (mut fine_err, mut medium_err, mut exact_vs_fine, mut coarse_vs_fine) =
            (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for _ in 0..4_000 {
            let map = &maps[rng.gen_range(0..2usize)];
            let ambient = Celsius::new(rng.gen_range(28.0..33.0));
            let model = ThermalModel::new(spec.with_ambient(ambient));
            let op = OperatingPoint::new(map.rpm(), rng.gen_range(0.0..0.8));
            let exact = map.advance(t, model.spec().ambient(), op.vcm_duty());
            let coarse = euler(&model, t, op, 5);
            let medium = euler(&model, t, op, 250);
            let fine = euler(&model, t, op, 2_500);
            for (i, (e, c)) in gap(exact, medium).iter().zip(gap(coarse, medium)).enumerate() {
                exact_vs_1ms[i] = exact_vs_1ms[i].max(*e);
                coarse_vs_1ms[i] = coarse_vs_1ms[i].max(c);
            }
            let max = |g: [f64; NODES]| g.into_iter().fold(0.0, f64::max);
            medium_err = medium_err.max(max(gap(medium, exact)));
            fine_err = fine_err.max(max(gap(fine, exact)));
            exact_vs_fine = exact_vs_fine.max(max(gap(exact, fine)));
            coarse_vs_fine = coarse_vs_fine.max(max(gap(coarse, fine)));
            t = exact;
        }
        // Node by node, the map's worst window lies closer to the 1 ms
        // reference than the 50-ms step's worst. (Window by window the
        // slow nodes barely move, and the two errors can cross at 1e-9 C.)
        for i in 0..NODES {
            let (e, c) = (exact_vs_1ms[i], coarse_vs_1ms[i]);
            assert!(e < c, "node {i}: map {e:e} vs 50 ms {c:e} off 1 ms Euler");
        }
        // Backward Euler is first order: a tenth of the step, about a
        // tenth of the error against the exact map.
        let ratio = medium_err / fine_err;
        eprintln!(
            "max error: map {exact_vs_fine:e}, 50 ms {coarse_vs_fine:e} against 0.1 ms Euler; \
             1 ms Euler {medium_err:e}, 0.1 ms Euler {fine_err:e} against the map; \
             per node off 1 ms Euler: map {exact_vs_1ms:?}, 50 ms {coarse_vs_1ms:?}"
        );
        assert!((7.0..14.0).contains(&ratio), "1 ms / 0.1 ms error ratio {ratio}");
        assert!(exact_vs_fine < 1e-4, "map vs 0.1 ms Euler: {exact_vs_fine:e}");
        assert!(coarse_vs_fine > 1e-3, "50 ms vs 0.1 ms Euler: {coarse_vs_fine:e}");
    }

    #[test]
    fn two_windows_compose_into_one_twice_as_long() {
        let m = ThermalModel::new(DriveThermalSpec::cheetah_15k3());
        for rpm in [0.0, 10_000.0, 15_000.0, 37_001.0] {
            let rpm = Rpm::new(rpm);
            let one = Propagator::new(&m, rpm, quarter()).unwrap();
            let two = Propagator::new(&m, rpm, quarter() * 2.0).unwrap();
            for i in 0..NODES {
                for j in 0..NODES {
                    let squared: f64 = (0..NODES).map(|k| one.phi[i][k] * one.phi[k][j]).sum();
                    assert!(
                        (squared - two.phi[i][j]).abs() < 1e-12,
                        "{rpm}: Φ(h)² {squared} vs Φ(2h) {} at ({i}, {j})",
                        two.phi[i][j]
                    );
                }
            }
        }
    }

    #[test]
    fn the_fixed_point_is_the_steady_state() {
        for (spec, rpm, duty) in [
            (DriveThermalSpec::cheetah_15k3(), 15_000.0, 1.0),
            (drive(), 15_020.0, 0.3),
            (drive().with_ambient(Celsius::new(33.0)), 10_000.0, 0.0),
            (drive(), 26_750.0, 0.8),
        ] {
            let m = ThermalModel::new(spec);
            let op = OperatingPoint::new(Rpm::new(rpm), duty);
            let p = Propagator::new(&m, op.rpm(), quarter()).unwrap();
            // (I − Φ)·T* = Ψ·b.
            let b = m.source(&p.sources, op);
            let mut lhs = p.phi;
            let mut rhs = [0.0; NODES];
            for i in 0..NODES {
                for j in 0..NODES {
                    lhs[i][j] = if i == j { 1.0 } else { 0.0 } - p.phi[i][j];
                    rhs[i] += p.psi[i][j] * b[j];
                }
            }
            let fixed = NodeTemps::from_array(solve(lhs, rhs).unwrap());
            let steady = m.steady_state(op);
            for (i, g) in gap(fixed, steady).iter().enumerate() {
                assert!(*g < 1e-9, "{rpm} RPM node {i}: off by {g:e} C");
            }
            // And the map leaves the steady state where it is.
            for (i, g) in gap(p.advance(steady, spec.ambient(), duty), steady).iter().enumerate() {
                assert!(*g < 1e-9, "{rpm} RPM node {i}: drifted {g:e} C");
            }
        }
    }

    #[test]
    fn extreme_inputs_are_a_typed_error_or_a_finite_map() {
        let m = ThermalModel::new(drive());
        for rpm in [1e300, f64::INFINITY, f64::NAN, -1.0, 1e30, 1e12, 0.0, 1e-300] {
            match Propagator::new(&m, Rpm::new(rpm), quarter()) {
                Err(ThermalError::BadSpec(_)) => {}
                Err(e) => panic!("{rpm} RPM: unexpected error {e}"),
                Ok(p) => {
                    let warm = Celsius::new(30.0);
                    let t = p.advance(NodeTemps::uniform(warm), warm, 0.5);
                    assert!(t.to_array().iter().all(|x| x.is_finite()), "{rpm} RPM: {t}");
                }
            }
        }
        for window in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = Propagator::new(&m, Rpm::new(15_020.0), Seconds::new(window));
            assert!(matches!(err, Err(ThermalError::NonPositiveStep(_))), "{window}");
        }
        // A window far past every time constant lands on steady state.
        let p = Propagator::new(&m, Rpm::new(15_020.0), Seconds::new(1e12)).unwrap();
        let t = p.advance(NodeTemps::uniform(Celsius::new(90.0)), m.spec().ambient(), 0.0);
        let steady = m.steady_state(OperatingPoint::idle_vcm(Rpm::new(15_020.0)));
        assert!(gap(t, steady).iter().all(|g| *g < 1e-9));
    }

    #[test]
    fn the_source_vector_is_the_models_bit_for_bit() {
        let spec = drive().with_ambient(Celsius::new(31.7));
        let m = ThermalModel::new(spec);
        let p = Propagator::new(&m, Rpm::new(15_020.0), quarter()).unwrap();
        for duty in [0.0, 0.13, 0.5, 1.0] {
            let b = m.source(&p.sources, OperatingPoint::new(p.rpm(), duty));
            let v = p.sources.vector(spec.ambient().get(), p.vcm_watts * duty);
            assert_eq!(b.map(f64::to_bits), v.map(f64::to_bits), "duty {duty}");
        }
    }
}
