//! The four-node thermal network: assembly and steady-state solution.

use crate::cache::{steady_or_insert, SteadyKey};
use crate::linalg::solve;
use crate::params::ThermalParams;
use crate::sources::viscous_dissipation;
use crate::spec::{DriveThermalSpec, FormFactor, OperatingPoint};
use serde::{Deserialize, Serialize};
use units::{Celsius, HeatCapacity, Power, Rpm, ThermalConductance};

/// Number of thermal nodes.
pub(crate) const NODES: usize = 4;

/// Node indices.
pub(crate) const AIR: usize = 0;
pub(crate) const SPINDLE: usize = 1;
pub(crate) const BASE: usize = 2;
pub(crate) const VCM: usize = 3;

/// Specific heat of aluminium, J/(kg·K) — platters, hub, arms and case
/// castings are all modeled as aluminium (§3.3).
const C_ALUMINIUM: f64 = 896.0;

/// Density of aluminium, kg/m³.
const RHO_ALUMINIUM: f64 = 2700.0;

/// Density and specific heat of air at ~40 °C.
const RHO_AIR: f64 = 1.127;
const C_AIR: f64 = 1007.0;

/// Platter substrate thickness in meters (~0.05″, measured by the paper
/// with vernier calipers on the Cheetah 15K.3).
const PLATTER_THICKNESS_M: f64 = 0.05 * 0.0254;

/// Spindle hub mass in kg.
const HUB_MASS_KG: f64 = 0.030;

/// Base + cover casting mass for the 3.5″ enclosure, kg.
const CASE_MASS_KG: f64 = 0.25;

/// Actuator (VCM magnets + coil + arms) mass, kg.
const VCM_MASS_KG: f64 = 0.05;

/// Temperatures of the four nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeTemps {
    /// Internal drive air — the temperature the envelope constrains.
    pub air: Celsius,
    /// Spindle-motor assembly: hub and platter stack.
    pub spindle: Celsius,
    /// Base and cover casting.
    pub base: Celsius,
    /// Voice-coil motor and disk arms.
    pub vcm: Celsius,
}

impl NodeTemps {
    /// All four nodes at the same temperature (the transient initial
    /// condition: everything starts at ambient).
    pub fn uniform(t: Celsius) -> Self {
        Self {
            air: t,
            spindle: t,
            base: t,
            vcm: t,
        }
    }

    pub(crate) fn to_array(self) -> [f64; NODES] {
        [
            self.air.get(),
            self.spindle.get(),
            self.base.get(),
            self.vcm.get(),
        ]
    }

    pub(crate) fn from_array(a: [f64; NODES]) -> Self {
        Self {
            air: Celsius::new(a[AIR]),
            spindle: Celsius::new(a[SPINDLE]),
            base: Celsius::new(a[BASE]),
            vcm: Celsius::new(a[VCM]),
        }
    }

    /// The hottest node.
    pub fn hottest(&self) -> Celsius {
        self.air.max(self.spindle).max(self.base).max(self.vcm)
    }
}

impl core::fmt::Display for NodeTemps {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "air {:.2}, spindle {:.2}, base {:.2}, vcm {:.2}",
            self.air, self.spindle, self.base, self.vcm
        )
    }
}

/// Heat generated at an operating point, by source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// Air shear on the platter stack, deposited in the internal air.
    pub viscous: Power,
    /// Spindle-motor electrical loss working against that drag.
    pub spm_loss: Power,
    /// Bearing friction, deposited in the spindle assembly.
    pub bearing: Power,
    /// Voice-coil power (scaled by seek duty), deposited in the actuator.
    pub vcm: Power,
}

impl PowerBreakdown {
    /// Total heat entering the drive.
    pub fn total(&self) -> Power {
        self.viscous + self.spm_loss + self.bearing + self.vcm
    }
}

/// Pairwise conductances of the network at an operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Conductances {
    pub(crate) spindle_air: ThermalConductance,
    pub(crate) air_base: ThermalConductance,
    pub(crate) vcm_air: ThermalConductance,
    pub(crate) vcm_base: ThermalConductance,
    pub(crate) spindle_base: ThermalConductance,
    pub(crate) base_ambient: ThermalConductance,
}

impl Conductances {
    /// Spindle/platter stack ↔ internal air convection.
    pub fn spindle_air(&self) -> ThermalConductance {
        self.spindle_air
    }

    /// Internal air ↔ base/cover convection.
    pub fn air_base(&self) -> ThermalConductance {
        self.air_base
    }

    /// Actuator ↔ internal air convection.
    pub fn vcm_air(&self) -> ThermalConductance {
        self.vcm_air
    }

    /// Actuator ↔ base conduction (mounting).
    pub fn vcm_base(&self) -> ThermalConductance {
        self.vcm_base
    }

    /// Spindle ↔ base conduction (bearing cartridge).
    pub fn spindle_base(&self) -> ThermalConductance {
        self.spindle_base
    }

    /// Base ↔ external ambient (case conduction + fan-driven external
    /// convection).
    pub fn base_ambient(&self) -> ThermalConductance {
        self.base_ambient
    }
}

/// The heat sources of the network that a spindle speed fixes, in
/// watts (and the base's coupling to ambient, in W/K): everything in
/// the source vector `b` except the ambient temperature and the VCM
/// power, which [`ThermalModel::source`] applies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpeedSources {
    /// Base ↔ ambient conductance, the ambient's weight in `b[BASE]`.
    base_ambient: f64,
    /// Windage deposited in the recirculating air core.
    windage_air: f64,
    /// Windage shed on the case walls, heating the base.
    windage_base: f64,
    /// Spindle-motor loss plus bearing drag, deposited in the base.
    motor_bearing: f64,
    /// Share of the VCM power shed straight into the air.
    vcm_direct: f64,
}

impl SpeedSources {
    /// The source vector `b` at `ambient` °C with the actuator drawing
    /// `vcm_watts`: the body of [`ThermalModel::source`], which the
    /// exact window map shares.
    pub(crate) fn vector(&self, ambient: f64, vcm_watts: f64) -> [f64; NODES] {
        let mut b = [0.0; NODES];
        b[BASE] += self.base_ambient * ambient;
        b[AIR] += self.windage_air;
        b[BASE] += self.windage_base;
        b[BASE] += self.motor_bearing;
        b[AIR] += vcm_watts * self.vcm_direct;
        b[VCM] += vcm_watts * (1.0 - self.vcm_direct);
        b
    }

    /// Whether every source and coupling is a finite number.
    pub(crate) fn is_finite(&self) -> bool {
        [
            self.base_ambient,
            self.windage_air,
            self.windage_base,
            self.motor_bearing,
            self.vcm_direct,
        ]
        .iter()
        .all(|x| x.is_finite())
    }
}

/// The assembled thermal model of one drive.
///
/// # Examples
///
/// ```
/// use diskthermal::{DriveThermalSpec, OperatingPoint, ThermalModel};
/// use units::Rpm;
///
/// let model = ThermalModel::new(DriveThermalSpec::cheetah_15k3());
/// let op = OperatingPoint::seeking(Rpm::new(15_000.0));
/// // Energy balance: at steady state, the heat crossing the enclosure
/// // equals the heat generated inside.
/// let t = model.steady_state(op);
/// assert!(t.air > model.spec().ambient());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalModel {
    spec: DriveThermalSpec,
    params: ThermalParams,
}

impl ThermalModel {
    /// Builds a model with the calibrated default parameters.
    pub fn new(spec: DriveThermalSpec) -> Self {
        Self::with_params(spec, ThermalParams::default())
    }

    /// Builds a model with explicit parameters (used by the calibration
    /// harness and sensitivity studies).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are not physical (non-positive or
    /// non-finite coefficients).
    pub fn with_params(spec: DriveThermalSpec, params: ThermalParams) -> Self {
        assert!(params.is_physical(), "thermal parameters must be positive");
        Self { spec, params }
    }

    /// The drive description.
    pub fn spec(&self) -> &DriveThermalSpec {
        &self.spec
    }

    /// The coefficient set in use.
    pub fn params(&self) -> &ThermalParams {
        &self.params
    }

    /// Heat sources at an operating point.
    pub fn power_breakdown(&self, op: OperatingPoint) -> PowerBreakdown {
        let viscous = viscous_dissipation(
            self.spec.platter_diameter(),
            self.spec.platters(),
            op.rpm(),
        );
        let rel_rpm = op.rpm().get() / ThermalParams::REF_RPM;
        PowerBreakdown {
            viscous,
            spm_loss: viscous * self.params.beta_spm_loss,
            bearing: Power::new(self.params.p_bearing_ref * rel_rpm),
            vcm: self.spec.vcm_power() * op.vcm_duty(),
        }
    }

    /// Pairwise conductances at an operating point.
    pub fn conductances(&self, op: OperatingPoint) -> Conductances {
        let p = &self.params;
        let rel_rpm = op.rpm().get() / ThermalParams::REF_RPM;
        let rel_d = self.spec.platter_diameter().get() / ThermalParams::REF_DIAMETER;
        let area = self.spec.form_factor().area_ratio();

        // Rotating-disk convection: h ~ Re^0.8, Re = omega r^2 / nu, and
        // wetted area ~ n d^2.
        let spindle_air = p.g_spindle_air
            * self.spec.platters() as f64
            * rel_d.powi(2)
            * (rel_rpm * rel_d.powi(2)).powf(0.8);

        // Case-interior convection driven by the air circulation the
        // platters entrain; calibrated power laws in RPM and diameter,
        // floored at 5% of the reference value so a slow spindle still
        // sees the natural-convection path (the correlation is
        // calibrated for the roadmap regime, rpm >= ~10k and d <= 2.6").
        let air_base = p.g_air_base
            * area
            * (rel_rpm.powf(p.p_air_base_rpm) * rel_d.powf(p.p_air_base_dia)).max(0.05);

        // External rejection: the fan-driven baseline plus the
        // enhancement that tracks the operating point (surrogate for
        // natural-convection/radiation growth at the hot extremes).
        let base_ambient =
            p.g_base_ambient * area * (1.0 + p.c_ext_rpm * rel_rpm.powf(p.p_ext_rpm));

        Conductances {
            spindle_air: ThermalConductance::new(spindle_air),
            air_base: ThermalConductance::new(air_base),
            vcm_air: ThermalConductance::new(p.g_vcm_air),
            vcm_base: ThermalConductance::new(p.g_vcm_base),
            spindle_base: ThermalConductance::new(p.g_spindle_base),
            base_ambient: ThermalConductance::new(base_ambient),
        }
    }

    /// Lumped heat capacities of the four nodes, J/K.
    pub(crate) fn capacities(&self) -> [HeatCapacity; NODES] {
        let scale = self.params.capacity_scale;
        let ff = self.spec.form_factor();
        let r = self.spec.platter_diameter().to_meters() / 2.0;
        let platter_mass =
            core::f64::consts::PI * r * r * PLATTER_THICKNESS_M * RHO_ALUMINIUM;
        let spindle =
            (self.spec.platters() as f64 * platter_mass + HUB_MASS_KG) * C_ALUMINIUM;
        let base = CASE_MASS_KG * ff.area_ratio() * C_ALUMINIUM;
        let vcm = VCM_MASS_KG * C_ALUMINIUM;
        let air = ff.air_volume_m3() * RHO_AIR * C_AIR;
        [
            HeatCapacity::new(air * scale),
            HeatCapacity::new(spindle * scale),
            HeatCapacity::new(base * scale),
            HeatCapacity::new(vcm * scale),
        ]
    }

    /// Assembles the conductance matrix `A` and source vector `b` such
    /// that the steady state satisfies `A T = b`, on the stack.
    pub(crate) fn assemble(&self, op: OperatingPoint) -> ([[f64; NODES]; NODES], [f64; NODES]) {
        let (a, sources) = self.network(op.rpm());
        (a, self.source(&sources, op))
    }

    /// The half of the assembly a spindle speed fixes: the conductance
    /// matrix `A` at `rpm` and the speed-dependent heat sources that
    /// [`Self::source`] completes into `b`. Nothing here depends on the
    /// ambient or the VCM power, so every operating point at one speed
    /// shares one `A` — and one backward-Euler step matrix.
    pub(crate) fn network(&self, rpm: Rpm) -> ([[f64; NODES]; NODES], SpeedSources) {
        // The conductances and every source but the actuator's depend
        // on the operating point through its speed alone.
        let op = OperatingPoint::idle_vcm(rpm);
        let g = self.conductances(op);
        let p = self.power_breakdown(op);
        let mut a = [[0.0; NODES]; NODES];

        let mut couple = |i: usize, j: usize, g: ThermalConductance| {
            let g = g.get();
            a[i][i] += g;
            a[j][j] += g;
            a[i][j] -= g;
            a[j][i] -= g;
        };
        couple(SPINDLE, AIR, g.spindle_air);
        couple(AIR, BASE, g.air_base);
        couple(VCM, AIR, g.vcm_air);
        couple(VCM, BASE, g.vcm_base);
        couple(SPINDLE, BASE, g.spindle_base);

        // Base couples to the fixed ambient: appears on the diagonal and
        // as a source term.
        a[BASE][BASE] += g.base_ambient.get();

        // Windage dissipates partly in the recirculating air core and
        // partly in the boundary layer on the stationary case walls.
        let visc_air = self.params.visc_air_split / (1.0 + self.params.visc_air_split);
        let sources = SpeedSources {
            base_ambient: g.base_ambient.get(),
            windage_air: p.viscous.get() * visc_air,
            windage_base: p.viscous.get() * (1.0 - visc_air),
            // Motor electrical loss and bearing drag dissipate in the
            // stator windings and bearing cartridge, both pressed into
            // the base casting; the spindle node itself carries no
            // source — it is the platter stack's thermal inertia.
            motor_bearing: p.spm_loss.get() + p.bearing.get(),
            // The moving coil and arms shed part of the seek power
            // straight into the airstream; the remainder heats the
            // actuator casting (whose thermal mass sets the slow half of
            // the DTM response).
            vcm_direct: self.params.vcm_air_split / (1.0 + self.params.vcm_air_split),
        };
        (a, sources)
    }

    /// The source vector `b` at this model's ambient and `op`'s actuator
    /// duty, from the speed-dependent `sources` that [`Self::network`]
    /// built at `op`'s speed. The only place the ambient and the VCM
    /// power enter the assembly.
    pub(crate) fn source(&self, sources: &SpeedSources, op: OperatingPoint) -> [f64; NODES] {
        let vcm = (self.spec.vcm_power() * op.vcm_duty()).get();
        sources.vector(self.spec.ambient().get(), vcm)
    }

    /// The full bit pattern of every scalar that feeds the assembly at
    /// `op` — the exact (collision-free) memoization key for the
    /// steady-state solve.
    fn steady_key(&self, op: OperatingPoint) -> SteadyKey {
        let s = &self.spec;
        let p = &self.params;
        [
            s.platter_diameter().get().to_bits(),
            u64::from(s.platters()),
            match s.form_factor() {
                FormFactor::Standard35 => 0,
                FormFactor::Small25 => 1,
            },
            s.vcm_power().get().to_bits(),
            s.ambient().get().to_bits(),
            p.g_spindle_air.to_bits(),
            p.g_air_base.to_bits(),
            p.p_air_base_rpm.to_bits(),
            p.p_air_base_dia.to_bits(),
            p.g_vcm_air.to_bits(),
            p.g_vcm_base.to_bits(),
            p.g_spindle_base.to_bits(),
            p.g_base_ambient.to_bits(),
            p.beta_spm_loss.to_bits(),
            p.p_bearing_ref.to_bits(),
            p.capacity_scale.to_bits(),
            p.vcm_air_split.to_bits(),
            p.visc_air_split.to_bits(),
            p.c_ext_rpm.to_bits(),
            p.p_ext_rpm.to_bits(),
            op.rpm().get().to_bits(),
            op.vcm_duty().to_bits(),
        ]
    }

    /// Steady-state node temperatures at an operating point.
    ///
    /// Solves are memoized per thread on the full bit pattern of the
    /// inputs: the envelope bisection and the roadmap planner re-query
    /// identical `(model, op)` pairs heavily, and the solve is a pure
    /// function of them.
    ///
    /// # Panics
    ///
    /// Panics if the network is singular, which cannot happen for
    /// physical (positive) parameters since every node has a path to
    /// ambient.
    pub fn steady_state(&self, op: OperatingPoint) -> NodeTemps {
        let x = steady_or_insert(self.steady_key(op), || {
            let (a, b) = self.assemble(op);
            solve(a, b).expect("thermal network is connected to ambient")
        });
        NodeTemps::from_array(x)
    }

    /// Steady-state internal air temperature — the quantity the thermal
    /// envelope constrains.
    pub fn steady_air_temp(&self, op: OperatingPoint) -> Celsius {
        self.steady_state(op).air
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::{Inches, Rpm};

    fn cheetah() -> ThermalModel {
        ThermalModel::new(DriveThermalSpec::cheetah_15k3())
    }

    #[test]
    fn stopped_cold_drive_sits_at_ambient() {
        let m = cheetah();
        let op = OperatingPoint::idle_vcm(Rpm::new(0.0));
        let t = m.steady_state(op);
        let amb = m.spec().ambient();
        for temp in [t.air, t.spindle, t.base, t.vcm] {
            assert!((temp - amb).abs().get() < 1e-9, "{t}");
        }
    }

    #[test]
    fn every_node_is_at_or_above_ambient() {
        let m = cheetah();
        let t = m.steady_state(OperatingPoint::seeking(Rpm::new(15_000.0)));
        let amb = m.spec().ambient();
        assert!(t.air > amb);
        assert!(t.spindle > amb);
        assert!(t.base > amb);
        assert!(t.vcm > amb);
    }

    #[test]
    fn steady_air_temp_is_monotone_in_rpm() {
        let m = cheetah();
        let mut prev = Celsius::new(0.0);
        for rpm in [5_000.0, 10_000.0, 15_000.0, 25_000.0, 40_000.0, 80_000.0] {
            let t = m.steady_air_temp(OperatingPoint::seeking(Rpm::new(rpm)));
            assert!(t > prev, "air temp dipped at {rpm} RPM");
            prev = t;
        }
    }

    #[test]
    fn vcm_off_runs_cooler() {
        let m = cheetah();
        let on = m.steady_air_temp(OperatingPoint::seeking(Rpm::new(15_000.0)));
        let off = m.steady_air_temp(OperatingPoint::idle_vcm(Rpm::new(15_000.0)));
        assert!(off < on, "turning off the VCM must cool the drive");
    }

    #[test]
    fn more_platters_run_hotter() {
        let op = OperatingPoint::seeking(Rpm::new(15_000.0));
        let one = ThermalModel::new(DriveThermalSpec::new(Inches::new(2.6), 1));
        let four = ThermalModel::new(DriveThermalSpec::new(Inches::new(2.6), 4));
        assert!(four.steady_air_temp(op) > one.steady_air_temp(op));
    }

    #[test]
    fn smaller_platters_run_cooler_at_same_rpm() {
        let op = OperatingPoint::seeking(Rpm::new(24_533.0));
        let d26 = ThermalModel::new(DriveThermalSpec::new(Inches::new(2.6), 1));
        let d16 = ThermalModel::new(DriveThermalSpec::new(Inches::new(1.6), 1));
        assert!(d16.steady_air_temp(op) < d26.steady_air_temp(op));
    }

    #[test]
    fn small_enclosure_runs_hotter() {
        use crate::spec::FormFactor;
        let op = OperatingPoint::seeking(Rpm::new(15_000.0));
        let big = ThermalModel::new(DriveThermalSpec::cheetah_15k3());
        let small = ThermalModel::new(
            DriveThermalSpec::cheetah_15k3().with_form_factor(FormFactor::Small25),
        );
        assert!(small.steady_air_temp(op) > big.steady_air_temp(op));
    }

    #[test]
    fn cooler_ambient_shifts_temperatures_down() {
        let op = OperatingPoint::seeking(Rpm::new(15_000.0));
        let base = ThermalModel::new(DriveThermalSpec::cheetah_15k3());
        let cooled = ThermalModel::new(
            DriveThermalSpec::cheetah_15k3().with_ambient(Celsius::new(23.0)),
        );
        let dt = base.steady_air_temp(op) - cooled.steady_air_temp(op);
        // A 5 C ambient drop shifts the whole linear network down 5 C.
        assert!((dt.get() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn energy_balance_at_steady_state() {
        let m = cheetah();
        let op = OperatingPoint::seeking(Rpm::new(15_000.0));
        let t = m.steady_state(op);
        let g = m.conductances(op);
        let p = m.power_breakdown(op);
        // Heat leaving through the enclosure equals heat generated.
        let out = g.base_ambient * (t.base - m.spec().ambient());
        assert!(
            (out.get() - p.total().get()).abs() < 1e-9,
            "out {out} vs in {}",
            p.total()
        );
    }

    #[test]
    fn power_breakdown_totals() {
        let m = cheetah();
        let p = m.power_breakdown(OperatingPoint::seeking(Rpm::new(15_098.0)));
        assert!((p.viscous.get() - 0.91).abs() < 0.01);
        assert!((p.vcm.get() - 3.9).abs() < 1e-12);
        assert!(p.total().get() > p.viscous.get() + p.vcm.get());
    }

    #[test]
    fn capacities_scale_with_platters() {
        let one = ThermalModel::new(DriveThermalSpec::new(Inches::new(2.6), 1));
        let four = ThermalModel::new(DriveThermalSpec::new(Inches::new(2.6), 4));
        let c1 = one.capacities();
        let c4 = four.capacities();
        assert!(c4[SPINDLE] > c1[SPINDLE]);
        assert_eq!(c4[BASE], c1[BASE]);
        assert_eq!(c4[VCM], c1[VCM]);
    }

    #[test]
    fn hottest_node_is_a_source_node() {
        let m = cheetah();
        let t = m.steady_state(OperatingPoint::seeking(Rpm::new(15_000.0)));
        // The base only sinks heat, so it can never be the hottest node.
        assert!(t.hottest() > t.base);
    }
}
