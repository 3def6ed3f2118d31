//! The surrogate training sweep: full-sim evaluation of machine-room
//! hall configurations over a knob grid.
//!
//! Every point is one complete fleet simulation — a [`HallSpec`]
//! geometry under thermal-aware routing, driven by one of the workload
//! presets — reduced to the deterministic target vector a
//! [`disksurrogate::GridSurrogate`] fits, named by [`TARGETS`]: DTM
//! engagement rate, the mean, p50 and p95 response times read straight
//! off the fleet's response-time histogram, and peak exit-air
//! temperature. Points run in parallel through the same work-stealing
//! [`parallel_map`] the fleet shards its event loop with; each point
//! runs its fleet single-threaded and is a pure function of its
//! coordinates, so sweep results are byte-identical at any `threads`.
//!
//! The per-point reduction is allocation-free: the trace buffer
//! refills via `TraceGenerator::generate_into`, and [`reduce_targets`]
//! returns a fixed-size array. `tests/alloc_budget.rs` pins that path
//! at zero heap allocations per point.

use crate::error::LabError;
use diskfleet::{Fleet, FleetDtmPolicy, FleetReport, HallSpec, RoutingPolicy};
use disksim::par::parallel_map;
use disksim::{DiskSpec, Request};
use disksurrogate::{Axis, TrainingSample};
use diskthermal::{DriveThermalSpec, THERMAL_ENVELOPE};
use serde::Serialize;
use std::cell::RefCell;
use units::{Celsius, Inches, Rpm, TempDelta};
use workloads::TraceGenerator;

/// Knob names, in axis order. `dtm` is a two-level factor (0 = none,
/// 1 = the §5.2 speed-scaling coordinator); the others are numeric.
pub const KNOBS: [&str; 5] = ["rate", "per_rack", "racks_per_row", "inlet_c", "dtm"];

/// Axis index of `per_rack` — the capacity-planning objective knob.
pub const PER_RACK_AXIS: usize = 1;

/// Target names, in the order [`reduce_targets`] returns their values.
/// `p95_ms` is the output capacity planning gates on.
pub const TARGETS: [&str; 5] = ["dtm_engaged", "mean_ms", "p50_ms", "p95_ms", "peak_air_c"];

/// Full spindle speed (the 2002 15k-RPM point every fleet experiment
/// uses).
const HIGH_RPM: f64 = 15_020.0;
/// The speed-scaling coordinator's fallback speed.
const LOW_RPM: f64 = 12_000.0;

/// A training/holdout sweep over hall knobs for one workload preset.
///
/// The grid is the Cartesian product of the five knob value lists;
/// `rows`, `requests`, and `seed` are held fixed across the sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepSpec {
    /// Workload preset name (see `workloads::presets`).
    pub preset: String,
    /// Rows in every hall (geometry beyond the two swept knobs).
    pub rows: usize,
    /// Requests per simulated trace.
    pub requests: usize,
    /// Trace-generator seed.
    pub seed: u64,
    /// Fleet-wide offered load values, requests/s.
    pub rates: Vec<f64>,
    /// Drive bays per rack (integral values).
    pub per_rack: Vec<f64>,
    /// Racks per row (integral values).
    pub racks_per_row: Vec<f64>,
    /// Cold-aisle inlet temperatures, degrees Celsius.
    pub inlets_c: Vec<f64>,
    /// DTM factor levels; each must be 0.0 or 1.0.
    pub dtm: Vec<f64>,
}

impl SweepSpec {
    /// The sweep's surrogate axes, in [`KNOBS`] order.
    ///
    /// # Errors
    ///
    /// Any knob list empty or not strictly increasing.
    pub fn axes(&self) -> Result<Vec<Axis>, LabError> {
        let lists = [
            &self.rates,
            &self.per_rack,
            &self.racks_per_row,
            &self.inlets_c,
            &self.dtm,
        ];
        KNOBS
            .iter()
            .zip(lists)
            .map(|(name, values)| {
                Axis::new(*name, values.clone())
                    .map_err(|e| LabError::Experiment(format!("sweep axes: {e}")))
            })
            .collect()
    }

    /// Every grid point, row-major with the last knob fastest — the
    /// same cell order `GridSurrogate` stores.
    pub fn grid(&self) -> Vec<Vec<f64>> {
        let mut points = vec![Vec::new()];
        for values in [
            &self.rates,
            &self.per_rack,
            &self.racks_per_row,
            &self.inlets_c,
            &self.dtm,
        ] {
            let mut next = Vec::with_capacity(points.len() * values.len());
            for prefix in &points {
                for &v in values.iter() {
                    let mut p = prefix.clone();
                    p.push(v);
                    next.push(p);
                }
            }
            points = next;
        }
        points
    }

    /// Held-out cross-validation points: for each DTM level, the
    /// midpoint of the first adjacent node pair on every numeric axis
    /// (integer knobs round to the nearest bay/rack). These never enter
    /// the fit, so the surrogate's error on them is an honest estimate
    /// of its screening error between grid nodes.
    pub fn holdout(&self) -> Vec<Vec<f64>> {
        let mid = |v: &[f64]| {
            if v.len() >= 2 {
                (v[0] + v[1]) / 2.0
            } else {
                v[0]
            }
        };
        let int_mid = |v: &[f64]| mid(v).round();
        self.dtm
            .iter()
            .map(|&dtm| {
                vec![
                    mid(&self.rates),
                    int_mid(&self.per_rack),
                    int_mid(&self.racks_per_row),
                    mid(&self.inlets_c),
                    dtm,
                ]
            })
            .collect()
    }

    /// Runs the full simulator at one knob point and reduces the fleet
    /// report to the target vector.
    ///
    /// # Errors
    ///
    /// Malformed coordinates (wrong arity, fractional integer knobs, a
    /// DTM level other than 0/1, an unknown preset) or any simulator
    /// failure.
    pub fn evaluate(&self, coords: &[f64]) -> Result<TrainingSample, LabError> {
        let report = TRACE.with(|cell| self.simulate(coords, &mut cell.borrow_mut()))?;
        let targets = extract_targets(&report);
        Ok(TrainingSample::new(coords.to_vec(), targets))
    }

    /// Evaluates many points across `threads` workers. Points map to
    /// results in order, and every point is a pure function of its
    /// coordinates, so the result is byte-identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// The first failing point (in input order).
    pub fn run(
        &self,
        points: &[Vec<f64>],
        threads: usize,
    ) -> Result<Vec<TrainingSample>, LabError> {
        parallel_map(points.to_vec(), threads, |coords| self.evaluate(&coords))
            .into_iter()
            .collect()
    }

    /// One full fleet simulation at `coords`, generating its trace into
    /// the reused buffer `trace`. Public so `tests/alloc_budget.rs` can
    /// obtain a report to reduce on its own; everything else goes
    /// through [`Self::evaluate`].
    pub fn simulate(
        &self,
        coords: &[f64],
        trace: &mut Vec<Request>,
    ) -> Result<FleetReport, LabError> {
        let fail =
            |e: &dyn std::fmt::Display| LabError::Experiment(format!("sweep point {coords:?}: {e}"));
        let [rate, per_rack, racks_per_row, inlet_c, dtm] = coords else {
            return Err(fail(&format!(
                "expected {} coordinates, got {}",
                KNOBS.len(),
                coords.len()
            )));
        };
        let as_count = |name: &str, v: f64| -> Result<usize, LabError> {
            if v.fract() != 0.0 || v < 1.0 {
                return Err(fail(&format!("{name} must be a positive integer, got {v}")));
            }
            Ok(v as usize)
        };
        let per_rack = as_count("per_rack", *per_rack)?;
        let racks_per_row = as_count("racks_per_row", *racks_per_row)?;
        if *dtm != 0.0 && *dtm != 1.0 {
            return Err(fail(&format!("dtm level must be 0 or 1, got {dtm}")));
        }

        let spec = DiskSpec::era(2002, 1, Rpm::new(HIGH_RPM));
        let thermal = DriveThermalSpec::new(Inches::new(2.6), 1);
        let hall = HallSpec::new(per_rack, racks_per_row, self.rows, Celsius::new(*inlet_c));
        let mut config = hall.config(spec.clone(), thermal).map_err(|e| fail(&e))?;
        config.routing = RoutingPolicy::ThermalAware {
            envelope: THERMAL_ENVELOPE,
        };
        config.dtm = if *dtm == 1.0 {
            FleetDtmPolicy::SpeedScale {
                high: Rpm::new(HIGH_RPM),
                low: Rpm::new(LOW_RPM),
                guard: TempDelta::new(0.3),
                resume_margin: TempDelta::new(0.3),
            }
        } else {
            FleetDtmPolicy::None
        };
        // Each point is one worker's job; parallelism lives across
        // points, and a serial fleet keeps the point's cost minimal.
        config.threads = 1;

        let preset = workloads::preset_by_key(&self.preset)
            .ok_or_else(|| fail(&format!("unknown workload preset {:?}", self.preset)))?;
        let capacity = spec.geometry().total_sectors().get();
        let generator = TraceGenerator::new(
            preset.profile.clone(),
            preset.arrivals.with_mean_rate(*rate),
            1,
            capacity,
        )
        .map_err(|e| fail(&e))?;
        generator.generate_into(self.requests, self.seed, trace);

        let fleet = Fleet::new(config).map_err(|e| fail(&e))?;
        fleet.run(trace.clone()).map_err(|e| fail(&e))
    }
}

thread_local! {
    /// Each worker's trace buffer, refilled by `generate_into` every
    /// point.
    static TRACE: RefCell<Vec<Request>> = const { RefCell::new(Vec::new()) };
}

/// Reduces a fleet report to its target values, in [`TARGETS`] order:
/// DTM engagement rate, the mean, p50 and p95 response times in ms,
/// and peak exit-air temperature. Performs no heap allocation — the
/// property `tests/alloc_budget.rs` pins.
pub fn reduce_targets(report: &FleetReport) -> [f64; TARGETS.len()] {
    let stats = &report.stats;
    [
        engagement_rate(report),
        stats.mean().to_millis(),
        stats.percentile(50.0).to_millis(),
        stats.percentile(95.0).to_millis(),
        report.max_air.get(),
    ]
}

/// [`reduce_targets`] with each value named, the vector a
/// [`TrainingSample`] carries.
pub fn extract_targets(report: &FleetReport) -> Vec<(String, f64)> {
    TARGETS
        .iter()
        .map(|name| name.to_string())
        .zip(reduce_targets(report))
        .collect()
}

/// Fraction of fleet drive-time spent under active DTM actuation
/// (speed-scaled or admission-gated), 0 when the fleet served no time.
pub fn engagement_rate(report: &FleetReport) -> f64 {
    let total = report.total_time.get() * report.enclosures as f64;
    if total <= 0.0 {
        return 0.0;
    }
    let actuated: f64 = report
        .per_enclosure
        .iter()
        .map(|e| e.time_scaled.get() + e.time_gated.get())
        .sum();
    actuated / total
}

/// The sweepable workload presets, by their `workloads::preset_by_key`
/// keys.
pub const PRESET_SLUGS: [&str; 5] = ["openmail", "oltp", "search_engine", "tpcc", "tpch"];

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            preset: "oltp".into(),
            rows: 1,
            requests: 120,
            seed: 7,
            rates: vec![200.0, 400.0],
            per_rack: vec![4.0, 8.0],
            racks_per_row: vec![2.0],
            inlets_c: vec![28.0],
            dtm: vec![0.0, 1.0],
        }
    }

    #[test]
    fn grid_is_the_row_major_cartesian_product() {
        let spec = tiny_spec();
        let grid = spec.grid();
        // 2 rates x 2 per_rack x 1 racks x 1 inlet x 2 dtm levels.
        assert_eq!(grid.len(), 8);
        assert_eq!(grid[0], vec![200.0, 4.0, 2.0, 28.0, 0.0]);
        assert_eq!(grid[1], vec![200.0, 4.0, 2.0, 28.0, 1.0]);
        assert_eq!(grid[7], vec![400.0, 8.0, 2.0, 28.0, 1.0]);
    }

    #[test]
    fn holdout_sits_between_the_first_nodes_at_each_dtm_level() {
        let spec = tiny_spec();
        let holdout = spec.holdout();
        assert_eq!(holdout.len(), 2);
        assert_eq!(holdout[0], vec![300.0, 6.0, 2.0, 28.0, 0.0]);
        assert_eq!(holdout[1][4], 1.0);
    }

    #[test]
    fn evaluate_produces_the_flattened_target_vector() {
        let spec = tiny_spec();
        let sample = spec.evaluate(&[200.0, 4.0, 2.0, 28.0, 0.0]).unwrap();
        let names: Vec<&str> = sample.outputs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, TARGETS);
        let value = |name: &str| sample.outputs.iter().find(|(n, _)| n == name).unwrap().1;
        let peak = value("peak_air_c");
        assert!(peak > 28.0, "exit air must exceed the inlet, got {peak}");
        assert_eq!(value("dtm_engaged"), 0.0, "no DTM at level 0");
        assert!(value("p95_ms") >= value("p50_ms"), "{:?}", sample.outputs);
    }

    #[test]
    fn malformed_coordinates_are_rejected() {
        let spec = tiny_spec();
        assert!(spec.evaluate(&[200.0, 4.5, 2.0, 28.0, 0.0]).is_err());
        assert!(spec.evaluate(&[200.0, 4.0, 2.0, 28.0, 0.5]).is_err());
        assert!(spec.evaluate(&[200.0, 4.0]).is_err());
        let mut bad = tiny_spec();
        bad.preset = "no_such_preset".into();
        assert!(bad.evaluate(&[200.0, 4.0, 2.0, 28.0, 0.0]).is_err());
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        let spec = tiny_spec();
        let points = spec.grid();
        let serial = spec.run(&points, 1).unwrap();
        let threaded = spec.run(&points, 8).unwrap();
        assert_eq!(serial, threaded);
        assert_eq!(serial.len(), points.len());
    }

    #[test]
    fn dtm_level_engages_under_load() {
        // Three 1-s epochs of traffic: DTM time counts only the epochs
        // served downshifted, so the run must outlast the first
        // boundary's decision.
        let spec = SweepSpec {
            requests: 1_200,
            ..tiny_spec()
        };
        // Hot inlet so the envelope binds and speed scaling actuates.
        let on = spec.evaluate(&[400.0, 8.0, 2.0, 44.0, 1.0]).unwrap();
        let off = spec.evaluate(&[400.0, 8.0, 2.0, 44.0, 0.0]).unwrap();
        assert_eq!(off.outputs[0].1, 0.0);
        assert!(
            on.outputs[0].1 > 0.0,
            "speed scaling should engage at a 44C inlet: {:?}",
            on.outputs
        );
    }
}

