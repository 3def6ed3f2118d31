//! Disk-array thermal coupling.
//!
//! §2 points at temperature-aware disk-array design (Huang and Chung):
//! drives in an array do not each see pristine ambient air — the cooling
//! stream preheats as it passes over upstream bays, so downstream drives
//! run hotter. The coupling graph itself is `diskfleet::AirflowGraph`;
//! this module supplies the heat each drive rejects into the stream.

use crate::sources::{vcm_power_for_platter, viscous_dissipation};
use crate::spec::{DriveThermalSpec, OperatingPoint};
use units::Power;

/// Physical heat a drive rejects into the cooling stream, in watts.
///
/// The calibrated network's internal source terms are *effective*
/// coefficients (see `ThermalParams`), so the preheat computation uses a
/// physical estimate instead: windage (the anchored §3.3 power law),
/// ~25 % motor loss on top of it, the measured VCM power scaled by seek
/// duty, a ~0.5 W bearing floor and ~4 W of electronics.
pub fn drive_heat_estimate(spec: &DriveThermalSpec, op: OperatingPoint) -> Power {
    let visc = viscous_dissipation(spec.platter_diameter(), spec.platters(), op.rpm());
    let vcm = vcm_power_for_platter(spec.platter_diameter()) * op.vcm_duty();
    let bearing = 0.5 * (op.rpm().get() / 10_000.0);
    let electronics = 4.0;
    Power::new(visc.get() * 1.25 + vcm.get() + bearing + electronics)
}
