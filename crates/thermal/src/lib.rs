//! Lumped finite-difference thermal model of a disk drive (§3.3).
//!
//! Following Clauss and Eibeck, the drive is divided into four thermal
//! nodes — the internal air, the spindle-motor assembly (hub + platters),
//! the base-and-cover casting, and the voice-coil motor with the disk
//! arms. Heat flows between nodes by convection and conduction under
//! Newton's law of cooling, and out of the drive through the enclosure to
//! external air held at constant temperature by the cooling system.
//!
//! Heat enters the system three ways:
//!
//! - **viscous dissipation** in the internal air, growing linearly with
//!   platter count, with the 2.8th power of RPM and the 4.8th power of
//!   platter diameter (§3.3, citing Schirle & Lieu);
//! - **spindle-motor losses** (the motor works against that same air
//!   drag, plus bearing friction), deposited in the spindle assembly;
//! - **voice-coil motor power** while seeking, deposited in the actuator.
//!
//! The free coefficients of the convection correlations were calibrated
//! by Nelder–Mead descent against the paper's published anchors — the
//! Figure 1 transient (28 → 45.22 °C), all 33 steady-state temperatures
//! of Table 3, and the VCM-off temperatures of §5.2–5.3 — and the fitted
//! values are baked into [`ThermalParams::default`]. The calibration
//! harness itself ships in [`calibrate`] and can be re-run with
//! `cargo run -p diskthermal --example calibrate --release`.
//!
//! # Examples
//!
//! Steady state of the modeled Cheetah 15K.3 (Figure 1's end point):
//!
//! ```
//! use diskthermal::{DriveThermalSpec, OperatingPoint, ThermalModel};
//! use units::{Celsius, Inches, Rpm};
//!
//! let spec = DriveThermalSpec::cheetah_15k3();
//! let model = ThermalModel::new(spec);
//! let op = OperatingPoint::seeking(Rpm::new(15_000.0));
//! let steady = model.steady_state(op);
//! assert!((steady.air.get() - 45.22).abs() < 0.6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod calibrate;
pub mod reliability;
mod cache;
mod envelope;
mod error;
mod linalg;
mod model;
mod params;
mod propagator;
mod sensor;
mod sources;
mod spec;
mod transient;

pub use array::{drive_heat_estimate, SpindleHeat};
pub use envelope::{ambient_for_envelope, max_rpm_within_envelope, EnvelopeSearch, THERMAL_ENVELOPE};
pub use error::ThermalError;
pub use model::{Conductances, NodeTemps, PowerBreakdown, ThermalModel};
pub use params::ThermalParams;
pub use propagator::Propagator;
pub use sensor::{HeldReading, TempSensor};
pub use sources::{vcm_power_for_platter, viscous_dissipation, VCM_POWER_ANCHORS};
pub use spec::{DriveThermalSpec, FormFactor, OperatingPoint};
pub use transient::{Integrator, TransientSim};
