//! Transient (time-domain) integration of the thermal network.
//!
//! The paper integrates the finite-difference equations at 600 steps per
//! minute (0.1 s). We offer the same explicit scheme plus an
//! unconditionally stable backward-Euler scheme (the default): the
//! internal air node has a tiny heat capacity, so explicit integration is
//! only conditionally stable at small steps.
//!
//! The implicit step matrix `(C/dt + A)` depends only on the drive's
//! platter stack and enclosure, its coefficient set, the spindle speed
//! and the step size. The ambient and the VCM duty enter only the source
//! vector `b`, so a moving ambient or duty leaves the matrix alone, and
//! the throttling analyses cycle through a handful of speeds.
//! The simulation therefore keeps a small keyed cache of LU
//! factorizations ([`StepCache`]): each [`TransientSim::advance`] looks
//! its factor up once, builds `b` once, and back-substitutes per step
//! instead of re-assembling and re-eliminating the 4×4 system 600 times
//! a simulated minute.
//!
//! These schemes serve the paper-figure paths (Figures 1 and 7, the
//! ablations, the calibration). The fleet's bays, whose inputs are
//! constant within each control window, cross a window exactly instead
//! ([`crate::Propagator`]).

use crate::error::ThermalError;
use crate::linalg::{lu_factor, LuFactors};
use crate::model::{NodeTemps, SpeedSources, ThermalModel, NODES};
use crate::params::ThermalParams;
use crate::spec::{FormFactor, OperatingPoint};
use serde::{Deserialize, Serialize};
use units::{Celsius, Inches, Rpm, Seconds};

/// Time-integration scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Integrator {
    /// Backward (implicit) Euler: unconditionally stable, solves a 4×4
    /// system per step.
    #[default]
    BackwardEuler,
    /// Forward (explicit) Euler: the paper's scheme; stable only when
    /// the step is below each node's thermal time constant.
    ForwardEuler,
}

/// The paper's step size: 600 steps per minute.
pub(crate) const PAPER_STEP: Seconds = Seconds::new(0.1);

/// Everything the step matrix `C/dt + A` and the speed-dependent
/// sources are built from. The ambient and the VCM power are not part of
/// it: they enter only the source vector, which [`ThermalModel::source`]
/// rebuilds per advance.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepKey {
    diameter: Inches,
    platters: u32,
    form_factor: FormFactor,
    params: ThermalParams,
    rpm: Rpm,
    dt: f64,
}

impl StepKey {
    fn new(model: &ThermalModel, rpm: Rpm, dt: f64) -> Self {
        let spec = model.spec();
        Self {
            diameter: spec.platter_diameter(),
            platters: spec.platters(),
            form_factor: spec.form_factor(),
            params: *model.params(),
            rpm,
            dt,
        }
    }
}

/// One factored backward-Euler step matrix and the speed-dependent
/// sources, tagged with the key they were built from.
#[derive(Debug, Clone)]
struct StepFactors {
    key: StepKey,
    lu: LuFactors<NODES>,
    c_over_dt: [f64; NODES],
    sources: SpeedSources,
}

impl StepFactors {
    /// Assembles and factors `(C/dt + A)` at the key's speed and step.
    fn build(model: &ThermalModel, key: StepKey) -> Self {
        let (a, sources) = model.network(key.rpm);
        let caps = model.capacities();
        let mut lhs = a;
        let mut c_over_dt = [0.0; NODES];
        for i in 0..NODES {
            let c_dt = caps[i].get() / key.dt;
            lhs[i][i] += c_dt;
            c_over_dt[i] = c_dt;
        }
        let lu = lu_factor(lhs).expect("implicit step matrix is SPD");
        Self {
            key,
            lu,
            c_over_dt,
            sources,
        }
    }

    /// One implicit step from temperatures `t` with source vector `b`:
    /// `(C/dt + A) T_new = C/dt T_old + b`.
    fn step(&self, b: &[f64; NODES], t: [f64; NODES]) -> [f64; NODES] {
        let mut rhs = *b;
        for i in 0..NODES {
            rhs[i] += self.c_over_dt[i] * t[i];
        }
        self.lu.solve(rhs)
    }
}

/// Most-recently-used cache of step factorizations, one per (drive,
/// speed, step). Eight entries cover the worst realistic churn — a DTM
/// loop alternates two spindle speeds — while keeping the miss scan
/// trivial.
const STEP_CACHE_CAP: usize = 8;

/// The factorizations a simulation has built, keyed by [`StepKey`]:
/// the ambient and the VCM duty may move between lookups without a
/// refactor.
#[derive(Debug, Clone, Default)]
struct StepCache {
    /// Most recently used at the back.
    entries: Vec<StepFactors>,
    disabled: bool,
}

impl StepCache {
    /// Returns a factorization for the model at `rpm` and step `dt`,
    /// reusing a cached one when the key matches.
    fn get(&mut self, model: &ThermalModel, rpm: Rpm, dt: f64) -> &StepFactors {
        let key = StepKey::new(model, rpm, dt);
        match self.entries.iter().rposition(|e| e.key == key) {
            Some(pos) => {
                if pos + 1 != self.entries.len() {
                    let hit = self.entries.remove(pos);
                    self.entries.push(hit);
                }
            }
            None => {
                if self.entries.len() >= STEP_CACHE_CAP {
                    self.entries.remove(0);
                }
                self.entries.push(StepFactors::build(model, key));
            }
        }
        self.entries.last().expect("entry just ensured")
    }
}

/// A transient simulation of one drive's temperatures.
///
/// # Examples
///
/// Reproduce the Figure 1 warm-up from ambient:
///
/// ```
/// use diskthermal::{DriveThermalSpec, OperatingPoint, ThermalModel, TransientSim};
/// use units::{Rpm, Seconds};
///
/// let model = ThermalModel::new(DriveThermalSpec::cheetah_15k3());
/// let mut sim = TransientSim::from_ambient(&model);
/// let op = OperatingPoint::seeking(Rpm::new(15_000.0));
/// sim.advance(&model, op, Seconds::new(60.0)); // one minute in
/// assert!(sim.temps().air.get() > 30.0); // already several degrees up
/// ```
#[derive(Debug, Clone)]
pub struct TransientSim {
    temps: NodeTemps,
    time: Seconds,
    step: Seconds,
    integrator: Integrator,
    cache: StepCache,
}

impl TransientSim {
    /// Starts a simulation with every node at the drive's ambient
    /// temperature (the cold-start condition of Figure 1).
    pub fn from_ambient(model: &ThermalModel) -> Self {
        Self::with_initial(NodeTemps::uniform(model.spec().ambient()))
    }

    /// Starts from explicit initial node temperatures.
    pub fn with_initial(temps: NodeTemps) -> Self {
        Self {
            temps,
            time: Seconds::ZERO,
            step: PAPER_STEP,
            integrator: Integrator::default(),
            cache: StepCache::default(),
        }
    }

    /// Overrides the integration step (default 0.1 s, the paper's
    /// 600 steps/minute).
    ///
    /// # Errors
    ///
    /// [`ThermalError::NonPositiveStep`] when the step is not a
    /// positive, finite number of seconds.
    pub fn with_step(mut self, step: Seconds) -> Result<Self, ThermalError> {
        if !(step.get().is_finite() && step.get() > 0.0) {
            return Err(ThermalError::NonPositiveStep(step.get()));
        }
        self.step = step;
        Ok(self)
    }

    /// Overrides the integration scheme.
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Enables or disables the cached backward-Euler factorization
    /// (enabled by default). With the cache off, every implicit step
    /// assembles and factors the 4×4 system from scratch — the pre-cache
    /// behavior, kept for benchmarking and differential tests; the math
    /// is identical either way.
    pub fn with_step_cache(mut self, enabled: bool) -> Self {
        self.cache.disabled = !enabled;
        self.cache.entries.clear();
        self
    }

    /// Current node temperatures.
    pub fn temps(&self) -> NodeTemps {
        self.temps
    }

    /// Current simulated time.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Advances exactly one integration step at the given operating
    /// point.
    pub fn step(&mut self, model: &ThermalModel, op: OperatingPoint) {
        self.take_steps(model, op, 1);
    }

    /// Advances by (at least) `duration`, in whole steps.
    pub fn advance(&mut self, model: &ThermalModel, op: OperatingPoint, duration: Seconds) {
        let steps = (duration.get() / self.step.get()).ceil() as u64;
        self.take_steps(model, op, steps);
    }

    /// Takes `steps` integration steps at one operating point. The
    /// cached backward-Euler path looks its factor up and builds the
    /// source vector once for all of them.
    fn take_steps(&mut self, model: &ThermalModel, op: OperatingPoint, steps: u64) {
        if steps == 0 {
            return;
        }
        let dt = self.step.get();
        let mut t = self.temps.to_array();
        match self.integrator {
            Integrator::ForwardEuler => {
                for _ in 0..steps {
                    let (a, b) = model.assemble(op);
                    let caps = model.capacities();
                    let mut out = [0.0; NODES];
                    for i in 0..NODES {
                        // C_i dT/dt = b_i - sum_j A_ij T_j
                        let flux: f64 = (0..NODES).map(|j| a[i][j] * t[j]).sum();
                        out[i] = t[i] + dt * (b[i] - flux) / caps[i].get();
                    }
                    t = out;
                }
            }
            Integrator::BackwardEuler if self.cache.disabled => {
                for _ in 0..steps {
                    let factors = StepFactors::build(model, StepKey::new(model, op.rpm(), dt));
                    t = factors.step(&model.source(&factors.sources, op), t);
                }
            }
            Integrator::BackwardEuler => {
                let factors = self.cache.get(model, op.rpm(), dt);
                let b = model.source(&factors.sources, op);
                for _ in 0..steps {
                    t = factors.step(&b, t);
                }
            }
        }
        self.temps = NodeTemps::from_array(t);
        for _ in 0..steps {
            self.time += self.step;
        }
    }

    /// Runs until the air temperature changes by less than `tol` per
    /// minute of simulated time, returning the time taken to converge.
    ///
    /// A hard cap of 24 simulated hours guards against non-convergence.
    pub fn run_to_steady(
        &mut self,
        model: &ThermalModel,
        op: OperatingPoint,
        tol: f64,
    ) -> Seconds {
        let start = self.time;
        let cap = Seconds::new(24.0 * 3600.0);
        loop {
            let before = self.temps.air;
            self.advance(model, op, Seconds::new(60.0));
            let drift = (self.temps.air - before).abs().get();
            if drift < tol || self.time - start > cap {
                return self.time - start;
            }
        }
    }

    /// Advances until the air temperature reaches `target` (useful for
    /// the throttling experiments of §5.3), returning the elapsed time,
    /// or `None` if the operating point can never reach it (checked
    /// against the steady state) or 24 h elapse first.
    pub fn time_to_reach(
        &mut self,
        model: &ThermalModel,
        op: OperatingPoint,
        target: Celsius,
    ) -> Option<Seconds> {
        if self.temps.air == target {
            return Some(Seconds::ZERO);
        }
        let rising = self.temps.air < target;
        let steady = model.steady_air_temp(op);
        if rising && steady < target {
            return None;
        }
        if !rising && steady > target {
            return None;
        }
        let start = self.time;
        let cap = Seconds::new(24.0 * 3600.0);
        loop {
            self.step(model, op);
            let reached = if rising {
                self.temps.air >= target
            } else {
                self.temps.air <= target
            };
            if reached {
                return Some(self.time - start);
            }
            if self.time - start > cap {
                return None;
            }
        }
    }
}

// The factorization cache is derived state: two simulations are the same
// simulation whether or not one has warmed its cache, and the cache must
// not leak into the serialized form (which predates it).
impl PartialEq for TransientSim {
    fn eq(&self, other: &Self) -> bool {
        self.temps == other.temps
            && self.time == other.time
            && self.step == other.step
            && self.integrator == other.integrator
    }
}

impl Serialize for TransientSim {
    fn to_value(&self) -> serde::Value {
        let mut doc = serde::Map::new();
        doc.insert("temps", self.temps.to_value());
        doc.insert("time", self.time.to_value());
        doc.insert("step", self.step.to_value());
        doc.insert("integrator", self.integrator.to_value());
        serde::Value::Object(doc)
    }
}

impl Deserialize for TransientSim {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name).ok_or_else(|| {
                serde::Error::custom(format!("missing field `{name}` in TransientSim"))
            })
        };
        Ok(Self {
            temps: Deserialize::from_value(field("temps")?)?,
            time: Deserialize::from_value(field("time")?)?,
            step: Deserialize::from_value(field("step")?)?,
            integrator: Deserialize::from_value(field("integrator")?)?,
            cache: StepCache::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DriveThermalSpec;
    use units::Rpm;

    fn model() -> ThermalModel {
        ThermalModel::new(DriveThermalSpec::cheetah_15k3())
    }

    fn op() -> OperatingPoint {
        OperatingPoint::seeking(Rpm::new(15_000.0))
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let m = model();
        let steady = m.steady_air_temp(op());
        let mut sim = TransientSim::from_ambient(&m);
        sim.run_to_steady(&m, op(), 0.001);
        assert!(
            (sim.temps().air - steady).abs().get() < 0.05,
            "transient {} vs steady {}",
            sim.temps().air,
            steady
        );
    }

    #[test]
    fn temperature_rises_monotonically_from_cold() {
        let m = model();
        let mut sim = TransientSim::from_ambient(&m);
        let mut prev = sim.temps().air;
        for _ in 0..100 {
            sim.advance(&m, op(), Seconds::new(30.0));
            let now = sim.temps().air;
            assert!(now >= prev, "cold-start warm-up must be monotone");
            prev = now;
        }
    }

    #[test]
    fn explicit_and_implicit_agree_at_small_steps() {
        let m = model();
        let mut implicit = TransientSim::from_ambient(&m)
            .with_step(Seconds::new(0.05))
            .expect("positive step");
        let mut explicit = TransientSim::from_ambient(&m)
            .with_step(Seconds::new(0.05))
            .expect("positive step")
            .with_integrator(Integrator::ForwardEuler);
        implicit.advance(&m, op(), Seconds::new(600.0));
        explicit.advance(&m, op(), Seconds::new(600.0));
        let diff = (implicit.temps().air - explicit.temps().air).abs().get();
        assert!(diff < 0.1, "schemes diverged by {diff} C");
    }

    #[test]
    fn cooling_transient_descends_to_new_steady() {
        let m = model();
        // Start hot (steady at high RPM), then drop the RPM.
        let hot = m.steady_state(OperatingPoint::seeking(Rpm::new(25_000.0)));
        let cool_op = OperatingPoint::idle_vcm(Rpm::new(10_000.0));
        let mut sim = TransientSim::with_initial(hot);
        sim.run_to_steady(&m, cool_op, 0.001);
        let target = m.steady_air_temp(cool_op);
        assert!((sim.temps().air - target).abs().get() < 0.05);
    }

    #[test]
    fn time_to_reach_is_consistent_with_advance() {
        let m = model();
        let target = Celsius::new(40.0);
        let mut sim = TransientSim::from_ambient(&m);
        let t = sim
            .time_to_reach(&m, op(), target)
            .expect("steady state exceeds 40 C");
        assert!(t.get() > 0.0);
        assert!(sim.temps().air >= target);
    }

    #[test]
    fn time_to_reach_unreachable_returns_none() {
        let m = model();
        let mut sim = TransientSim::from_ambient(&m);
        // A slow, idle spindle can never hit 100 C.
        let cold_op = OperatingPoint::idle_vcm(Rpm::new(5_000.0));
        assert!(sim.time_to_reach(&m, cold_op, Celsius::new(100.0)).is_none());
    }

    #[test]
    fn air_heats_quickly_then_crawls() {
        // The Figure 1 signature: several degrees in the first minute,
        // then a ~45-minute crawl to steady state.
        let m = model();
        let steady = m.steady_air_temp(op());
        let mut sim = TransientSim::from_ambient(&m);
        sim.advance(&m, op(), Seconds::new(60.0));
        let after_minute = sim.temps().air;
        assert!(after_minute.get() > 30.0, "air {after_minute}");
        assert!(
            after_minute < steady - units::TempDelta::new(2.0),
            "most of the rise is still ahead after one minute"
        );
        // Ten minutes in, the air is still crawling upward.
        sim.advance(&m, op(), Seconds::new(540.0));
        let after_ten = sim.temps().air;
        assert!(after_ten > after_minute);
        assert!(after_ten < steady);
    }

    #[test]
    fn with_step_rejects_non_positive_and_non_finite_steps() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = TransientSim::with_initial(NodeTemps::uniform(Celsius::new(28.0)))
                .with_step(Seconds::new(bad));
            assert!(matches!(err, Err(ThermalError::NonPositiveStep(_))), "{bad}");
        }
    }

    #[test]
    fn cached_factorization_is_bitwise_identical_to_fresh_solves() {
        let m = model();
        // Alternate operating points the way the DTM throttle loop does,
        // so the cache cycles between entries.
        let ops = [
            OperatingPoint::seeking(Rpm::new(24_534.0)),
            OperatingPoint::idle_vcm(Rpm::new(24_534.0)),
            OperatingPoint::new(Rpm::new(22_001.0), 0.4),
        ];
        let mut cached = TransientSim::from_ambient(&m);
        let mut naive = TransientSim::from_ambient(&m).with_step_cache(false);
        for i in 0..3_000 {
            let op = ops[i % ops.len()];
            cached.step(&m, op);
            naive.step(&m, op);
            let a = cached.temps().to_array();
            let b = naive.temps().to_array();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "step {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn step_cache_eviction_keeps_answers_exact() {
        let m = model();
        // More distinct operating points than cache slots.
        let ops: Vec<OperatingPoint> = (0..STEP_CACHE_CAP + 3)
            .map(|i| OperatingPoint::new(Rpm::new(12_000.0 + 1_000.0 * i as f64), 0.25))
            .collect();
        let mut cached = TransientSim::from_ambient(&m);
        let mut naive = TransientSim::from_ambient(&m).with_step_cache(false);
        for round in 0..4 {
            for op in &ops {
                cached.step(&m, *op);
                naive.step(&m, *op);
            }
            assert_eq!(cached.temps(), naive.temps(), "round {round}");
        }
    }

    #[test]
    fn ambient_and_duty_changes_share_one_factorization() {
        // The windowed DTM loop at one spindle speed: the duty moves
        // every window and the airflow push-back moves the ambient every
        // epoch, and neither enters the step matrix.
        let spec = DriveThermalSpec::cheetah_15k3();
        let mut m = model();
        let mut cached = TransientSim::from_ambient(&m)
            .with_step(Seconds::new(0.05))
            .expect("positive step");
        let mut naive = cached.clone().with_step_cache(false);
        for i in 0..40 {
            if i % 4 == 3 {
                m = ThermalModel::new(spec.with_ambient(Celsius::new(28.0 + 0.5 * i as f64)));
            }
            let op = OperatingPoint::new(Rpm::new(15_000.0), (i % 5) as f64 / 4.0);
            cached.advance(&m, op, Seconds::new(0.25));
            naive.advance(&m, op, Seconds::new(0.25));
            assert_eq!(cached, naive, "advance {i}");
        }
        assert_eq!(cached.cache.entries.len(), 1);
    }

    #[test]
    fn serialization_shape_omits_the_cache() {
        let m = model();
        let mut sim = TransientSim::from_ambient(&m);
        sim.advance(&m, op(), Seconds::new(10.0));
        let value = sim.to_value();
        let obj = value.as_object().expect("object");
        let keys: Vec<&String> = obj.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["temps", "time", "step", "integrator"]);
        let back = TransientSim::from_value(&value).expect("round trip");
        assert_eq!(back, sim);
    }
}
