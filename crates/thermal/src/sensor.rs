//! Thermal sensor emulation.
//!
//! The paper notes that "there are disks in the market today that are
//! equipped with temperature sensors" (the IBM Drive-TIP lineage) — but
//! a real DTM controller does not see the model's continuous state: it
//! sees a SMART-style reading, quantized to whole degrees and refreshed
//! at a polling interval. This module wraps the model temperature in
//! that observation channel so control policies can be evaluated
//! against realistic sensing. A [`TempSensor`] is the channel's
//! characteristics only; the reading it holds between polls lives with
//! each observed drive (a [`HeldReading`]), so one sensor model serves a
//! whole fleet.

use serde::{Deserialize, Serialize};
use units::{Celsius, Seconds, TempDelta};

/// A quantized, periodically-sampled temperature sensor.
///
/// # Examples
///
/// ```
/// use diskthermal::TempSensor;
/// use units::{Celsius, Seconds};
///
/// let sensor = TempSensor::smart_style();
/// let mut held = None;
/// let r = sensor.read(&mut held, Seconds::ZERO, Celsius::new(45.87));
/// assert_eq!(r.get(), 45.0); // whole-degree quantization
///
/// // Within the polling interval the reading is held.
/// let r = sensor.read(&mut held, Seconds::new(0.4), Celsius::new(46.9));
/// assert_eq!(r.get(), 45.0);
///
/// // After the interval it refreshes.
/// let r = sensor.read(&mut held, Seconds::new(1.2), Celsius::new(46.9));
/// assert_eq!(r.get(), 46.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TempSensor {
    /// Reading granularity (SMART reports whole degrees).
    quantization: f64,
    /// Minimum time between refreshes.
    sample_interval: Seconds,
    /// Fixed calibration bias added to every reading.
    bias: TempDelta,
}

/// What a sensor last reported and when (`None` before the first
/// poll): the state a [`TempSensor`] holds between polls.
pub type HeldReading = Option<(Seconds, Celsius)>;

impl TempSensor {
    /// A SMART-style sensor: 1 °C quantization, 1 s polling, no bias.
    pub fn smart_style() -> Self {
        Self::new(1.0, Seconds::new(1.0), TempDelta::ZERO)
    }

    /// An ideal sensor: continuous, instantaneous, unbiased (useful as
    /// the control experiment).
    pub fn ideal() -> Self {
        Self::new(0.0, Seconds::ZERO, TempDelta::ZERO)
    }

    /// Builds a sensor with explicit characteristics.
    ///
    /// # Panics
    ///
    /// Panics if `quantization` is negative or the interval is negative.
    pub fn new(quantization: f64, sample_interval: Seconds, bias: TempDelta) -> Self {
        assert!(quantization >= 0.0, "negative quantization");
        assert!(sample_interval.get() >= 0.0, "negative sample interval");
        Self {
            quantization,
            sample_interval,
            bias,
        }
    }

    /// Whether every reading is the true temperature itself (no
    /// quantization, polling interval or bias).
    #[inline]
    pub fn is_ideal(&self) -> bool {
        self.quantization == 0.0 && self.sample_interval.get() == 0.0 && self.bias.get() == 0.0
    }

    /// Observes the true temperature at time `now`, returning what the
    /// controller would see: the `held` reading until the polling
    /// interval elapses, then the biased, quantized current value,
    /// which becomes the new held reading.
    #[inline]
    pub fn read(&self, held: &mut HeldReading, now: Seconds, actual: Celsius) -> Celsius {
        if let Some((at, reading)) = *held {
            if (now - at).get() < self.sample_interval.get() {
                return reading;
            }
        }
        let biased = actual + self.bias;
        let reading = if self.quantization > 0.0 {
            Celsius::new((biased.get() / self.quantization).floor() * self.quantization)
        } else {
            biased
        };
        *held = Some((now, reading));
        reading
    }

    /// Worst-case under-reporting of this sensor: quantization floor
    /// plus any negative bias. A controller must trip at least this far
    /// below the envelope to guarantee the true temperature respects it
    /// (staleness adds rate × interval on top).
    pub fn max_under_report(&self) -> TempDelta {
        TempDelta::new(self.quantization + (-self.bias.get()).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sensor_is_transparent() {
        let s = TempSensor::ideal();
        assert!(s.is_ideal() && !TempSensor::smart_style().is_ideal());
        let mut held = None;
        for (t, v) in [(0.0, 45.217), (0.1, 46.9), (0.2, 44.0)] {
            let r = s.read(&mut held, Seconds::new(t), Celsius::new(v));
            assert_eq!(r.get(), v);
        }
    }

    #[test]
    fn quantization_floors() {
        let s = TempSensor::new(1.0, Seconds::ZERO, TempDelta::ZERO);
        let mut held = None;
        assert_eq!(s.read(&mut held, Seconds::ZERO, Celsius::new(45.99)).get(), 45.0);
        assert_eq!(s.read(&mut held, Seconds::new(1.0), Celsius::new(46.0)).get(), 46.0);
    }

    #[test]
    fn readings_are_held_between_polls() {
        let s = TempSensor::smart_style();
        let mut held = None;
        let first = s.read(&mut held, Seconds::ZERO, Celsius::new(40.0));
        // The temperature spikes but the sensor has not refreshed.
        let stale = s.read(&mut held, Seconds::new(0.9), Celsius::new(50.0));
        assert_eq!(first, stale);
        let fresh = s.read(&mut held, Seconds::new(1.0), Celsius::new(50.0));
        assert_eq!(fresh.get(), 50.0);
    }

    #[test]
    fn bias_shifts_readings() {
        let cold = TempSensor::new(0.0, Seconds::ZERO, TempDelta::new(-2.0));
        assert_eq!(cold.read(&mut None, Seconds::ZERO, Celsius::new(45.0)).get(), 43.0);
        assert!((cold.max_under_report().get() - 2.0).abs() < 1e-12);

        let s = TempSensor::smart_style();
        assert!((s.max_under_report().get() - 1.0).abs() < 1e-12);
    }
}
