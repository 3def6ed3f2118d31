//! Drive energy accounting.
//!
//! The paper grew out of the authors' DRPM work on disk *power*
//! management, and §5's throttling mechanisms modulate exactly the two
//! dominant consumers: the spindle (windage + motor loss, scaling with
//! the same ~2.8th power of RPM as the heat it becomes) and the actuator
//! (drawn only while seeking). This module meters those components so
//! DTM policies can report the energy side of their decisions.

use serde::{Deserialize, Serialize};
use units::{Power, Rpm, Seconds};

/// Power coefficients of one drive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Spindle power at [`Self::ref_rpm`], watts (windage + motor +
    /// bearing, era server drive ≈ 8 W at 10 kRPM).
    pub spindle_ref_watts: f64,
    /// Reference speed for the spindle coefficient.
    pub ref_rpm: Rpm,
    /// RPM exponent of spindle power (the paper's 2.8).
    pub rpm_exponent: f64,
    /// Actuator power while seeking, watts.
    pub vcm_watts: f64,
    /// Controller/electronics floor, watts (always on).
    pub electronics_watts: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            spindle_ref_watts: 8.0,
            ref_rpm: Rpm::new(10_000.0),
            rpm_exponent: 2.8,
            vcm_watts: 3.9,
            electronics_watts: 4.0,
        }
    }
}

impl EnergyModel {
    /// Instantaneous spindle power at a speed.
    ///
    /// # Examples
    ///
    /// ```
    /// use disksim::EnergyModel;
    /// use units::Rpm;
    ///
    /// let m = EnergyModel::default();
    /// let p = m.spindle_power(Rpm::new(20_000.0));
    /// // Doubling RPM costs 2^2.8 ~ 7x the spindle power.
    /// assert!((p.get() / 8.0 - 2f64.powf(2.8)).abs() < 1e-9);
    /// ```
    pub fn spindle_power(&self, rpm: Rpm) -> Power {
        Power::new(
            self.spindle_ref_watts * (rpm.get() / self.ref_rpm.get()).powf(self.rpm_exponent),
        )
    }
}

/// Accumulated energy, by component, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Spindle energy.
    pub spindle_j: f64,
    /// Actuator energy.
    pub vcm_j: f64,
    /// Electronics energy.
    pub electronics_j: f64,
    /// Time metered, summed over the metered disks (a meter covering
    /// a four-disk array for one second reports four).
    pub elapsed: Seconds,
}

impl EnergyReport {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.spindle_j + self.vcm_j + self.electronics_j
    }

    /// Mean power per metered disk over the metered interval.
    pub fn mean_power(&self) -> Power {
        if self.elapsed.get() <= 0.0 {
            Power::ZERO
        } else {
            Power::new(self.total_j() / self.elapsed.get())
        }
    }
}

/// Integrates drive energy over windows of operation.
///
/// The meter is sampling-based so it stays correct when a DTM policy
/// changes the spindle speed mid-run: the caller reports each window's
/// speed and the seek time that actually occurred in it. The spindle
/// power is recomputed only when the reported speed changes, so a meter
/// whose speed holds evaluates no power law per window.
///
/// # Examples
///
/// ```
/// use disksim::{EnergyMeter, EnergyModel};
/// use units::{Rpm, Seconds};
///
/// let mut meter = EnergyMeter::new(EnergyModel::default());
/// // One second at 10 kRPM with the actuator busy half the time:
/// meter.accumulate(Rpm::new(10_000.0), Seconds::new(0.5), Seconds::new(1.0));
/// let report = meter.report();
/// assert!((report.spindle_j - 8.0).abs() < 1e-9);
/// assert!((report.vcm_j - 3.9 * 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyMeter {
    model: EnergyModel,
    report: EnergyReport,
    /// Spindle power at the last metered speed, watts.
    spindle: Option<(Rpm, f64)>,
}

impl EnergyMeter {
    /// Creates a meter with the given coefficients.
    pub fn new(model: EnergyModel) -> Self {
        Self::resume(model, EnergyReport::default())
    }

    /// A meter that continues from an earlier `report` (a restored
    /// checkpoint).
    pub fn resume(model: EnergyModel, report: EnergyReport) -> Self {
        Self {
            model,
            report,
            spindle: None,
        }
    }

    /// The coefficients in use.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// Adds one window: the spindle ran at `rpm` for `elapsed`, of which
    /// the actuator was seeking for `seek_time`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `seek_time > elapsed` or either is
    /// negative.
    #[inline]
    pub fn accumulate(&mut self, rpm: Rpm, seek_time: Seconds, elapsed: Seconds) {
        debug_assert!(elapsed.get() >= 0.0 && seek_time.get() >= 0.0);
        debug_assert!(
            seek_time.get() <= elapsed.get() + 1e-9,
            "actuator cannot seek longer than the window"
        );
        let dt = elapsed.get();
        let spindle_w = match self.spindle {
            Some((at, watts)) if at == rpm => watts,
            _ => {
                let watts = self.model.spindle_power(rpm).get();
                self.spindle = Some((rpm, watts));
                watts
            }
        };
        self.report.spindle_j += spindle_w * dt;
        self.report.vcm_j += self.model.vcm_watts * seek_time.get();
        self.report.electronics_j += self.model.electronics_watts * dt;
        self.report.elapsed += elapsed;
    }

    /// The accumulated energy so far.
    pub fn report(&self) -> EnergyReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spindle_power_scaling() {
        let m = EnergyModel::default();
        let base = m.spindle_power(Rpm::new(10_000.0)).get();
        assert!((base - 8.0).abs() < 1e-12);
        let half = m.spindle_power(Rpm::new(5_000.0)).get();
        assert!((half - 8.0 / 2f64.powf(2.8)).abs() < 1e-9);
    }

    #[test]
    fn meter_integrates_components() {
        let mut meter = EnergyMeter::new(EnergyModel::default());
        for _ in 0..10 {
            meter.accumulate(
                Rpm::new(10_000.0),
                Seconds::from_millis(100.0),
                Seconds::new(1.0),
            );
        }
        let r = meter.report();
        assert!((r.elapsed.get() - 10.0).abs() < 1e-12);
        assert!((r.spindle_j - 80.0).abs() < 1e-9);
        assert!((r.vcm_j - 3.9).abs() < 1e-9);
        assert!((r.electronics_j - 40.0).abs() < 1e-9);
        assert!((r.total_j() - (80.0 + 3.9 + 40.0)).abs() < 1e-9);
        assert!((r.mean_power().get() - r.total_j() / 10.0).abs() < 1e-12);
    }

    #[test]
    fn speed_drop_saves_energy() {
        // The DRPM premise: a window at 12 kRPM costs far less spindle
        // energy than one at 20 kRPM.
        let m = EnergyModel::default();
        let mut fast = EnergyMeter::new(m);
        let mut slow = EnergyMeter::new(m);
        fast.accumulate(Rpm::new(20_000.0), Seconds::ZERO, Seconds::new(1.0));
        slow.accumulate(Rpm::new(12_000.0), Seconds::ZERO, Seconds::new(1.0));
        assert!(slow.report().spindle_j < fast.report().spindle_j * 0.3);
    }

    #[test]
    fn a_speed_change_reprices_the_spindle() {
        // The cached spindle power follows every change of speed.
        let m = EnergyModel::default();
        let mut meter = EnergyMeter::new(m);
        let mut expected = 0.0;
        for rpm in [10_000.0, 10_000.0, 20_000.0, 10_000.0] {
            meter.accumulate(Rpm::new(rpm), Seconds::ZERO, Seconds::new(1.0));
            expected += m.spindle_power(Rpm::new(rpm)).get();
        }
        assert_eq!(meter.report().spindle_j, expected);
    }

    #[test]
    fn empty_meter_reports_zero() {
        let meter = EnergyMeter::new(EnergyModel::default());
        assert_eq!(meter.report().total_j(), 0.0);
        assert_eq!(meter.report().mean_power(), Power::ZERO);
    }
}
