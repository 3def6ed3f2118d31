//! Disk-array thermal coupling.
//!
//! §2 points at temperature-aware disk-array design (Huang and Chung):
//! drives in an array do not each see pristine ambient air — the cooling
//! stream preheats as it passes over upstream bays, so downstream drives
//! run hotter. The coupling graph itself is `diskfleet::AirflowGraph`;
//! this module supplies the heat each drive rejects into the stream.

use crate::sources::{vcm_power_for_platter, viscous_dissipation};
use crate::spec::{DriveThermalSpec, OperatingPoint};
use units::{Power, Rpm};

/// Physical heat a drive rejects into the cooling stream, in watts.
///
/// The calibrated network's internal source terms are *effective*
/// coefficients (see `ThermalParams`), so the preheat computation uses a
/// physical estimate instead: windage (the anchored §3.3 power law),
/// ~25 % motor loss on top of it, the measured VCM power scaled by seek
/// duty, a ~0.5 W bearing floor and ~4 W of electronics.
pub fn drive_heat_estimate(spec: &DriveThermalSpec, op: OperatingPoint) -> Power {
    let vcm = vcm_power_for_platter(spec.platter_diameter()).get();
    SpindleHeat::new(spec, op.rpm()).with_actuator(vcm, op.vcm_duty())
}

/// The terms of [`drive_heat_estimate`] fixed by the drive and its
/// spindle speed — windage with its motor loss, and the bearing floor —
/// so a fleet estimating many drives at a few speeds evaluates the power
/// laws once per speed. [`SpindleHeat::with_actuator`] adds the rest in
/// the same order, so the estimate is the same to the bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpindleHeat {
    /// Windage plus ~25 % motor loss, watts.
    windage: f64,
    /// Bearing floor, watts.
    bearing: f64,
}

impl SpindleHeat {
    /// The speed-fixed terms for `spec`'s drive at `rpm`.
    pub fn new(spec: &DriveThermalSpec, rpm: Rpm) -> Self {
        let visc = viscous_dissipation(spec.platter_diameter(), spec.platters(), rpm);
        Self {
            windage: visc.get() * 1.25,
            bearing: 0.5 * (rpm.get() / 10_000.0),
        }
    }

    /// The estimate with an actuator drawing `vcm_watts` a fraction
    /// `vcm_duty` of the time (see [`vcm_power_for_platter`]), plus ~4 W
    /// of electronics.
    pub fn with_actuator(&self, vcm_watts: f64, vcm_duty: f64) -> Power {
        let electronics = 4.0;
        Power::new(self.windage + vcm_watts * vcm_duty + self.bearing + electronics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Inches;

    #[test]
    fn heat_estimate_is_pinned_to_the_bit() {
        // Values of the single-expression estimate this split replaced.
        for (diameter, platters, rpm, duty, bits) in [
            (2.6, 1, 15_020.0, 0.0, 0x4017_7d0d_8647_9763_u64),
            (2.6, 1, 15_020.0, 0.37, 0x401d_42af_5108_1a76),
            (2.6, 1, 10_000.0, 1.0, 0x4021_848e_ed62_d4b0),
            (3.7, 4, 7_200.0, 0.5, 0x4026_0b5a_b66a_7436),
            (1.6, 2, 26_750.0, 0.123_456_789, 0x401a_0b99_d457_4624),
        ] {
            let spec = DriveThermalSpec::new(Inches::new(diameter), platters);
            let op = OperatingPoint::new(Rpm::new(rpm), duty);
            let watts = drive_heat_estimate(&spec, op).get();
            assert_eq!(watts.to_bits(), bits, "{diameter}\" x{platters} at {rpm} RPM, duty {duty}");
        }
    }
}
