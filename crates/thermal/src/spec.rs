//! Drive description and operating point for the thermal model.

use crate::error::ThermalError;
use crate::sources::vcm_power_for_platter;
use serde::{Deserialize, Serialize};
use units::{Celsius, Inches, Power, Rpm};

/// Enclosure form factor, which sets the case surface area available for
/// heat rejection and the internal air volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FormFactor {
    /// Standard 3.5″ enclosure (5.75″ × 4.0″ × 1.0″), the baseline of the
    /// paper's roadmap.
    #[default]
    Standard35,
    /// 2.5″ enclosure (3.96″ × 2.75″ × 0.75″, per the StorageReview
    /// reference guide cited in §4.2.2) — still large enough to house a
    /// 2.6″ platter.
    Small25,
}

impl FormFactor {
    /// Exterior dimensions `(length, width, height)` in inches.
    pub fn dimensions(self) -> (Inches, Inches, Inches) {
        match self {
            Self::Standard35 => (Inches::new(5.75), Inches::new(4.0), Inches::new(1.0)),
            Self::Small25 => (Inches::new(3.96), Inches::new(2.75), Inches::new(0.75)),
        }
    }

    /// Total case surface area in square inches (all six faces).
    pub fn case_area(self) -> f64 {
        let (l, w, h) = self.dimensions();
        let (l, w, h) = (l.get(), w.get(), h.get());
        2.0 * (l * w + l * h + w * h)
    }

    /// Interior air volume in cubic meters (the enclosure shell is thin;
    /// platters and mechanics displace roughly half the box).
    pub fn air_volume_m3(self) -> f64 {
        let (l, w, h) = self.dimensions();
        let m3 = l.to_meters() * w.to_meters() * h.to_meters();
        0.5 * m3
    }

    /// Case area relative to the 3.5″ baseline; scales every
    /// enclosure-coupled conductance in the model.
    pub fn area_ratio(self) -> f64 {
        self.case_area() / Self::Standard35.case_area()
    }

    /// Largest platter the enclosure can physically house.
    pub fn max_platter(self) -> Inches {
        match self {
            Self::Standard35 => Inches::new(3.7),
            Self::Small25 => Inches::new(2.6),
        }
    }
}

impl core::fmt::Display for FormFactor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Standard35 => write!(f, "3.5\" form factor"),
            Self::Small25 => write!(f, "2.5\" form factor"),
        }
    }
}

/// Physical description of a drive for thermal purposes.
///
/// # Examples
///
/// ```
/// use diskthermal::DriveThermalSpec;
/// use units::{Celsius, Inches};
///
/// let spec = DriveThermalSpec::new(Inches::new(2.1), 2)
///     .with_ambient(Celsius::new(23.0)); // 5 C cooler machine room
/// assert_eq!(spec.platters(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriveThermalSpec {
    platter_diameter: Inches,
    platters: u32,
    form_factor: FormFactor,
    vcm_power: Power,
    ambient: Celsius,
}

impl DriveThermalSpec {
    /// Maximum operating wet-bulb external temperature assumed throughout
    /// the paper: 28 °C.
    pub const DEFAULT_AMBIENT: Celsius = Celsius::new(28.0);

    /// Creates a spec with the default 3.5″ enclosure, the VCM power
    /// implied by the platter-size correlation, and 28 °C ambient.
    ///
    /// # Panics
    ///
    /// Panics if `platters == 0` or the diameter is not positive, or if
    /// the platter does not fit the default enclosure; use
    /// [`Self::try_new`] to handle those as errors.
    pub fn new(platter_diameter: Inches, platters: u32) -> Self {
        Self::try_new(platter_diameter, platters).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Self::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::BadSpec`] when `platters == 0`, the
    /// diameter is not positive and finite, or the platter does not fit
    /// the default 3.5″ enclosure.
    pub fn try_new(platter_diameter: Inches, platters: u32) -> Result<Self, ThermalError> {
        let mut spec = Self {
            platter_diameter,
            platters,
            form_factor: FormFactor::Standard35,
            vcm_power: Power::ZERO,
            ambient: Self::DEFAULT_AMBIENT,
        };
        spec.validate()?;
        // The correlation is defined only for a valid diameter.
        spec.vcm_power = vcm_power_for_platter(platter_diameter);
        Ok(spec)
    }

    /// Checks the rules [`Self::try_new`] enforces on a spec that
    /// arrived some other way, such as a restored checkpoint: at least
    /// one platter, and a positive, finite diameter that fits the spec's
    /// enclosure.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::BadSpec`] naming the first rule broken.
    pub fn validate(&self) -> Result<(), ThermalError> {
        if self.platters == 0 {
            return Err(ThermalError::BadSpec("a drive needs at least one platter"));
        }
        if self.platter_diameter.get() <= 0.0 || !self.platter_diameter.is_finite() {
            return Err(ThermalError::BadSpec("platter diameter must be positive"));
        }
        if self.platter_diameter > self.form_factor.max_platter() {
            return Err(ThermalError::BadSpec("platter does not fit its enclosure"));
        }
        Ok(())
    }

    /// The Seagate Cheetah 15K.3 configuration the paper disassembled and
    /// validated against: one 2.6″ platter in a 3.5″ enclosure, VCM power
    /// measured at 3.9 W, 28 °C ambient.
    pub fn cheetah_15k3() -> Self {
        Self::new(Inches::new(2.6), 1).with_vcm_power(Power::new(3.9))
    }

    /// Replaces the enclosure form factor.
    ///
    /// # Panics
    ///
    /// Panics if the platter no longer fits.
    pub fn with_form_factor(mut self, form_factor: FormFactor) -> Self {
        assert!(
            self.platter_diameter <= form_factor.max_platter(),
            "platter does not fit the requested enclosure"
        );
        self.form_factor = form_factor;
        self
    }

    /// Overrides the VCM power (e.g. a measured value).
    pub fn with_vcm_power(mut self, vcm_power: Power) -> Self {
        self.vcm_power = vcm_power;
        self
    }

    /// Sets the external ambient temperature the cooling system holds.
    pub fn with_ambient(mut self, ambient: Celsius) -> Self {
        self.ambient = ambient;
        self
    }

    /// Platter media diameter.
    pub fn platter_diameter(&self) -> Inches {
        self.platter_diameter
    }

    /// Number of platters in the stack.
    pub fn platters(&self) -> u32 {
        self.platters
    }

    /// Enclosure form factor.
    pub fn form_factor(&self) -> FormFactor {
        self.form_factor
    }

    /// Voice-coil motor power while seeking.
    pub fn vcm_power(&self) -> Power {
        self.vcm_power
    }

    /// External ambient (wet-bulb) temperature.
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }
}

impl core::fmt::Display for DriveThermalSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:.1}\" x{} in {}, VCM {:.2}, ambient {:.1}",
            self.platter_diameter.get(),
            self.platters,
            self.form_factor,
            self.vcm_power,
            self.ambient
        )
    }
}

/// An operating point: spindle speed and seek activity.
///
/// # Examples
///
/// ```
/// use diskthermal::OperatingPoint;
/// use units::Rpm;
///
/// // Worst case: the actuator never rests (the envelope-setting case).
/// let busy = OperatingPoint::seeking(Rpm::new(15_000.0));
/// assert_eq!(busy.vcm_duty(), 1.0);
///
/// // Sequential streaming or idling: VCM off.
/// let calm = OperatingPoint::idle_vcm(Rpm::new(15_000.0));
/// assert_eq!(calm.vcm_duty(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    rpm: Rpm,
    vcm_duty: f64,
}

impl OperatingPoint {
    /// Spinning at `rpm` with the VCM continuously active (the
    /// worst-case assumption that defines the thermal envelope).
    pub fn seeking(rpm: Rpm) -> Self {
        Self::new(rpm, 1.0)
    }

    /// Spinning at `rpm` with the VCM off (no seeks).
    pub fn idle_vcm(rpm: Rpm) -> Self {
        Self::new(rpm, 0.0)
    }

    /// Spinning at `rpm` with the VCM active a fraction `vcm_duty` of
    /// the time.
    ///
    /// # Panics
    ///
    /// Panics if `vcm_duty` is outside `[0, 1]` or `rpm` is negative;
    /// use [`Self::try_new`] to handle those as errors.
    pub fn new(rpm: Rpm, vcm_duty: f64) -> Self {
        Self::try_new(rpm, vcm_duty).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Self::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::BadSpec`] when `vcm_duty` falls outside
    /// `[0, 1]` or `rpm` is negative or non-finite.
    pub fn try_new(rpm: Rpm, vcm_duty: f64) -> Result<Self, ThermalError> {
        if !(0.0..=1.0).contains(&vcm_duty) {
            return Err(ThermalError::BadSpec("vcm duty outside [0, 1]"));
        }
        if rpm.get() < 0.0 || !rpm.is_finite() {
            return Err(ThermalError::BadSpec(
                "spindle speed must be non-negative and finite",
            ));
        }
        Ok(Self { rpm, vcm_duty })
    }

    /// Spindle speed.
    pub fn rpm(&self) -> Rpm {
        self.rpm
    }

    /// Fraction of time the VCM is drawing power.
    pub fn vcm_duty(&self) -> f64 {
        self.vcm_duty
    }

    /// Returns the same point at a different spindle speed.
    pub fn at_rpm(&self, rpm: Rpm) -> Self {
        Self::new(rpm, self.vcm_duty)
    }
}

impl core::fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:.0} RPM, VCM {:.0}%",
            self.rpm.get(),
            self.vcm_duty * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn form_factor_areas() {
        // 3.5" FF: 2*(5.75*4 + 5.75*1 + 4*1) = 2*32.75 = 65.5 in^2.
        assert!((FormFactor::Standard35.case_area() - 65.5).abs() < 1e-9);
        // The 2.5" enclosure rejects less heat.
        assert!(FormFactor::Small25.area_ratio() < 0.6);
        assert!((FormFactor::Standard35.area_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_enclosure_still_houses_26_platter() {
        // §4.2.2's whole point: a 2.6" platter in a 2.5" case.
        let spec = DriveThermalSpec::new(Inches::new(2.6), 1)
            .with_form_factor(FormFactor::Small25);
        assert_eq!(spec.form_factor(), FormFactor::Small25);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_platter_rejected() {
        let _ = DriveThermalSpec::new(Inches::new(3.3), 1)
            .with_form_factor(FormFactor::Small25);
    }

    #[test]
    fn cheetah_spec_matches_paper() {
        let spec = DriveThermalSpec::cheetah_15k3();
        assert_eq!(spec.platter_diameter(), Inches::new(2.6));
        assert_eq!(spec.platters(), 1);
        assert_eq!(spec.vcm_power(), Power::new(3.9));
        assert_eq!(spec.ambient(), Celsius::new(28.0));
    }

    #[test]
    fn vcm_power_defaults_from_correlation() {
        let spec = DriveThermalSpec::new(Inches::new(2.1), 1);
        assert!((spec.vcm_power().get() - 2.28).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_duty_rejected() {
        let _ = OperatingPoint::new(Rpm::new(10_000.0), 1.5);
    }

    #[test]
    fn operating_point_helpers() {
        let op = OperatingPoint::seeking(Rpm::new(20_000.0));
        let slower = op.at_rpm(Rpm::new(15_000.0));
        assert_eq!(slower.vcm_duty(), 1.0);
        assert_eq!(slower.rpm(), Rpm::new(15_000.0));
    }
}
