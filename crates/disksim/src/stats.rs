//! Response-time statistics with the paper's CDF buckets.

use crate::request::Completion;
use diskobs::Histogram;
use serde::{Deserialize, Serialize};
use units::Seconds;

/// The bucket edges (in milliseconds) of the Figure 4 CDF plots:
/// 5, 10, 20, 40, 60, 90, 120, 150, 200, and "200+".
pub const CDF_BUCKETS_MS: [f64; 9] = [5.0, 10.0, 20.0, 40.0, 60.0, 90.0, 120.0, 150.0, 200.0];

/// Aggregated response-time statistics: a [`diskobs::Histogram`] of
/// response times in milliseconds, typed in [`Seconds`].
///
/// Counts, mean and max are exact. The Figure 4 edges are histogram
/// bucket boundaries, so [`Self::cdf`] is exact too, and percentiles
/// are within 1/128 (0.79%) of the exact sorted value at any count.
///
/// # Examples
///
/// ```
/// use disksim::ResponseStats;
/// use units::Seconds;
///
/// let mut stats = ResponseStats::new();
/// for ms in [2.0, 8.0, 15.0, 300.0] {
///     stats.record(Seconds::from_millis(ms));
/// }
/// assert_eq!(stats.count(), 4);
/// assert!((stats.mean().to_millis() - 81.25).abs() < 1e-9);
/// // 3 of 4 requests finished within 20 ms.
/// let cdf = stats.cdf();
/// assert!((cdf[2].1 - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ResponseStats(Histogram);

impl ResponseStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one response time.
    ///
    /// # Panics
    ///
    /// Panics if `response` is negative or not finite.
    pub fn record(&mut self, response: Seconds) {
        self.0.record(response.to_millis());
    }

    /// Folds a batch of completions in.
    pub fn record_all<'a>(&mut self, completions: impl IntoIterator<Item = &'a Completion>) {
        for c in completions {
            self.record(c.response_time());
        }
    }

    /// Builds statistics from a completion slice.
    pub fn from_completions(completions: &[Completion]) -> Self {
        let mut s = Self::new();
        s.record_all(completions);
        s
    }

    /// Folds another statistics object into this one. Counts, min and
    /// max merge exactly and sums add, so folding per-enclosure
    /// statistics in enclosure order is bit-identical at any shard
    /// count.
    pub fn merge(&mut self, other: &ResponseStats) {
        self.0.merge(&other.0);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Mean response time.
    pub fn mean(&self) -> Seconds {
        Seconds::from_millis(self.0.mean())
    }

    /// Largest observed response time.
    pub fn max(&self) -> Seconds {
        Seconds::from_millis(self.0.max())
    }

    /// Cumulative distribution at the Figure 4 bucket edges: pairs of
    /// `(edge_ms, fraction_at_or_below)`. A final `(f64::INFINITY, 1.0)`
    /// entry closes the distribution ("200+").
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        self.0.cdf(&CDF_BUCKETS_MS)
    }

    /// Percentile `p` (0–100) of the response times; see
    /// [`Histogram::percentile`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Seconds {
        Seconds::from_millis(self.0.percentile(p))
    }

    /// Checks the invariants of statistics read back from outside (a
    /// checkpoint); see [`Histogram::validate`].
    ///
    /// # Errors
    ///
    /// A message naming the first broken invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.0.validate()
    }
}

impl core::fmt::Display for ResponseStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} requests, mean {:.2} ms, p95 {:.2} ms, max {:.2} ms",
            self.count(),
            self.mean().to_millis(),
            self.percentile(95.0).to_millis(),
            self.max().to_millis()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(values_ms: &[f64]) -> ResponseStats {
        let mut s = ResponseStats::new();
        for &v in values_ms {
            s.record(Seconds::from_millis(v));
        }
        s
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ResponseStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), Seconds::ZERO);
        assert_eq!(s.percentile(50.0), Seconds::ZERO);
    }

    #[test]
    fn mean_and_max() {
        let s = stats_of(&[10.0, 20.0, 30.0]);
        assert!((s.mean().to_millis() - 20.0).abs() < 1e-12);
        assert!((s.max().to_millis() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let s = stats_of(&[1.0, 7.0, 15.0, 55.0, 500.0]);
        let cdf = s.cdf();
        let mut prev = 0.0;
        for &(_, frac) in &cdf {
            assert!(frac >= prev);
            prev = frac;
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
        // 1/5 <= 5ms, 2/5 <= 10ms, 3/5 <= 20ms.
        assert!((cdf[0].1 - 0.2).abs() < 1e-12);
        assert!((cdf[1].1 - 0.4).abs() < 1e-12);
        assert!((cdf[2].1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn bucket_edges_match_figure4() {
        assert_eq!(
            CDF_BUCKETS_MS,
            [5.0, 10.0, 20.0, 40.0, 60.0, 90.0, 120.0, 150.0, 200.0]
        );
    }

    #[test]
    fn percentiles_bracket_the_data() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = stats_of(&values);
        assert!((s.percentile(50.0).to_millis() - 50.0).abs() <= 1.0);
        assert!((s.percentile(95.0).to_millis() - 95.0).abs() <= 1.0);
        assert!((s.percentile(0.0).to_millis() - 1.0).abs() < 1e-9);
        assert!((s.percentile(100.0).to_millis() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_percentile_panics() {
        let _ = stats_of(&[1.0]).percentile(150.0);
    }

    #[test]
    fn percentiles_stay_unbiased_past_the_reservoir_cap() {
        // Three times the 65,536 samples the statistics once kept as a
        // reservoir, fed as an increasing ramp: the worst case for a
        // subsample, which must admit late (large) samples to stay
        // unbiased. The histogram keeps every sample, so each
        // percentile stays within 1/128 of the exact sorted value.
        let n = 3 * 65_536_u64;
        let mut s = ResponseStats::new();
        for i in 1..=n {
            s.record(Seconds::from_millis(i as f64));
        }
        for p in [25.0, 50.0, 75.0, 90.0, 99.0] {
            let exact = ((p / 100.0) * (n - 1) as f64).round() + 1.0;
            let got = s.percentile(p).to_millis();
            assert!(
                (got - exact).abs() <= exact / 128.0,
                "p{p}: histogram said {got}, exact {exact}"
            );
        }
        let mut again = ResponseStats::new();
        for i in 1..=n {
            again.record(Seconds::from_millis(i as f64));
        }
        assert_eq!(s, again);
    }

    #[test]
    fn merge_below_the_cap_is_exact() {
        // Merging adds bucket counts, so a merged statistic answers
        // every query exactly as one pass over the whole stream does.
        let values: Vec<f64> = (1..=1000).map(|i| (i as f64 * 7.3) % 211.0 + 0.5).collect();
        let global = stats_of(&values);
        let mut merged = ResponseStats::new();
        for chunk in values.chunks(137) {
            merged.merge(&stats_of(chunk));
        }
        assert_eq!(merged.count(), global.count());
        assert_eq!(merged.cdf(), global.cdf());
        assert_eq!(merged.max(), global.max());
        for p in [0.0, 25.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(merged.percentile(p), global.percentile(p), "p{p}");
        }
        assert!((merged.mean().to_millis() - global.mean().to_millis()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let s = stats_of(&[3.0, 9.0, 27.0]);
        let mut left = s.clone();
        left.merge(&ResponseStats::new());
        assert_eq!(left, s);
        let mut right = ResponseStats::new();
        right.merge(&s);
        assert_eq!(right, s);
    }

    #[test]
    fn display_is_informative() {
        let s = stats_of(&[5.0, 10.0]);
        let text = s.to_string();
        assert!(text.contains("2 requests"));
        assert!(text.contains("mean 7.50 ms"));
    }
}
