//! The metrics registry: counters, gauges, histograms, and snapshot
//! timeseries.
//!
//! Every histogram is a [`Histogram`], the same log-linear distribution
//! `disksim::ResponseStats` wraps, so one shape covers response times,
//! queue depths, and temperatures alike with no layout to choose.
//! Everything here exports to JSON (through the registry's `Serialize`)
//! or CSV ([`Timeseries::to_csv`]) under `results/`.

use crate::Histogram;
use serde::Serialize;
use std::collections::BTreeMap;

/// Counters, gauges, and histograms under one namespace, exportable as
/// JSON (insertion-independent: maps are ordered by key).
#[derive(Debug, Default, Serialize)]
pub struct Registry {
    /// Monotonic event counts.
    counters: BTreeMap<String, u64>,
    /// Last-write-wins instantaneous values.
    gauges: BTreeMap<String, f64>,
    /// Distributions.
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to a counter, creating it at zero.
    pub fn count(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge. Re-setting an existing gauge does not allocate.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.gauges.get_mut(name) {
            *slot = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records into a histogram, creating it on first use. Recording
    /// into an existing histogram allocates only when the value widens
    /// its span.
    ///
    /// # Panics
    ///
    /// As [`Histogram::record`]: `value` must be finite and
    /// non-negative.
    pub fn observe(&mut self, name: &str, value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Pretty JSON for `results/` export.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }
}

/// A fixed-schema table of snapshot rows for CSV export — the
/// per-drive/per-bay probe timeline `lab trace` writes alongside the
/// event stream.
#[derive(Debug, Clone)]
pub struct Timeseries {
    columns: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Timeseries {
    /// A table with the given column names.
    ///
    /// # Panics
    ///
    /// Panics if no columns are given.
    pub fn new(columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a timeseries needs columns");
        Self {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width disagrees with the header.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Rows recorded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as CSV (header + rows). Values print through
    /// Rust's shortest-roundtrip float formatting, so equal runs render
    /// equal bytes.
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            let mut first = true;
            for v in row {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("{v}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_geometric_and_cdf_closes_at_one() {
        let mut h = Histogram::new();
        for v in [0.5, 1.5, 3.0, 6.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        // Powers of two are bucket boundaries, so these fractions are
        // exact: 1/5 <= 1, 2/5 <= 2, 3/5 <= 4, 4/5 <= 8.
        let cdf = h.cdf(&[1.0, 2.0, 4.0, 8.0]);
        let want = [(1.0, 0.2), (2.0, 0.4), (4.0, 0.6), (8.0, 0.8), (f64::INFINITY, 1.0)];
        assert_eq!(cdf, want);
        let mut prev = 0.0;
        for &(_, f) in &cdf {
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn histogram_quantile_brackets_the_data() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 5.0); // 0.2 .. 200 ms
        }
        // Rank round(0.5 * 999) = 500 holds 100.2.
        let p50 = h.percentile(50.0);
        assert!((p50 - 100.2).abs() <= 100.2 / 128.0, "p50 was {p50}");
        assert!(h.percentile(100.0) >= p50);
        assert_eq!(h.percentile(0.0), 0.2);
        assert_eq!(h.percentile(100.0), 200.0);
        assert!((h.mean() - 100.1).abs() < 1e-9);
    }

    #[test]
    fn histogram_handles_non_finite_values() {
        // A non-finite or negative value has no bucket: recording one
        // panics instead of corrupting the sum, and leaves the
        // histogram as it was.
        let mut h = Histogram::new();
        h.record(1.0);
        let before = h.clone();
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.record(bad)));
            assert!(outcome.is_err(), "{bad} was accepted");
            assert_eq!(h, before);
        }
    }

    #[test]
    fn registry_counts_gauges_and_observes() {
        let mut r = Registry::new();
        r.count("requests", 2);
        r.count("requests", 1);
        r.gauge_set("max_air_c", 44.5);
        r.observe("response_ms", 12.0);
        r.observe("response_ms", 80.0);
        assert_eq!(r.counter("requests"), 3);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("max_air_c"), Some(44.5));
        assert_eq!(r.histogram("response_ms").unwrap().count(), 2);
        let json = r.to_json_pretty();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"response_ms\""));
    }

    #[test]
    fn timeseries_renders_stable_csv() {
        let mut ts = Timeseries::new(&["t", "drive", "air_c"]);
        ts.push(vec![0.25, 0.0, 40.5]);
        ts.push(vec![0.5, 1.0, 41.0]);
        assert_eq!(ts.len(), 2);
        let csv = ts.to_csv();
        assert_eq!(csv, "t,drive,air_c\n0.25,0,40.5\n0.5,1,41\n");
        assert_eq!(csv, ts.to_csv());
    }
}
