//! The one distribution type: a mergeable log-linear histogram.
//!
//! Every response-time distribution in the workspace — each drive's
//! `disksim::ResponseStats`, the fleet's merged statistics, the twin's
//! query latency and the `lab trace` metrics — is a [`Histogram`]. Its
//! buckets are read off the `f64` bit pattern, in the style of HDR
//! Histogram and DDSketch (Masson et al., VLDB 2019): the index of a
//! finite `x >= 0` is `(x.to_bits() - 1) >> 46`, that is the exponent
//! and the top six mantissa bits, so every octave holds 64 buckets.
//! Bucket `i` covers `(lo, hi]` with `hi - lo <= lo / 64`, and the
//! paper's Figure 4 edges (5, 10, 20, 40, 60, 90, 120, 150 and 200 ms)
//! are all bucket boundaries, so `≤ edge` fractions read off the counts
//! exactly.
//!
//! The histogram keeps exact count, sum, min and max; merging adds
//! counts, so a merge in any grouping and order equals one pass.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Bits of an `f64` below the bucket index: 52 mantissa bits less the
/// six that pick one of 64 sub-buckets per octave.
const SHIFT: u32 = 46;

/// The bucket index of the largest finite value, `f64::MAX`.
const MAX_INDEX: u32 = ((f64::MAX.to_bits() - 1) >> SHIFT) as u32;

/// The bucket index of a finite `x >= +0.0`. Zero maps to bucket 0.
fn index(x: f64) -> u32 {
    (x.to_bits().saturating_sub(1) >> SHIFT) as u32
}

/// The bucket's exclusive lower and inclusive upper bound.
fn bounds(i: u32) -> (f64, f64) {
    let lo = u64::from(i) << SHIFT;
    (f64::from_bits(lo), f64::from_bits(lo + (1 << SHIFT)))
}

/// The value a quantile in bucket `i` reports before clamping: the
/// bucket's midpoint, within `1/128` of any value in it. Bucket 0
/// (zero and the smallest subnormals) reports zero.
fn midpoint(i: u32) -> f64 {
    if i == 0 {
        return 0.0;
    }
    let (lo, hi) = bounds(i);
    lo + (hi - lo) / 2.0
}

/// A log-linear histogram of finite, non-negative values.
///
/// # Examples
///
/// ```
/// use diskobs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [2.0, 8.0, 15.0, 300.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.mean(), 81.25);
/// // 15.0 holds rank round(0.5 · 3) = 2; its bucket's midpoint is
/// // within 1/128 of it.
/// assert!((h.percentile(50.0) - 15.0).abs() <= 15.0 / 128.0);
/// assert_eq!(h.percentile(100.0), 300.0);
/// // 3 of 4 values are at most 20, a bucket boundary.
/// assert_eq!(h.cdf(&[20.0])[0], (20.0, 0.75));
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Histogram {
    /// Values recorded.
    count: u64,
    /// Their sum, in recording (and merge) order.
    sum: f64,
    /// Smallest value recorded (0 while empty).
    min: f64,
    /// Largest value recorded (0 while empty).
    max: f64,
    /// Count of bucket 0 — zero and the smallest subnormals — kept
    /// apart from the span, so exact zeros (an idle queue) do not
    /// stretch the span across a thousand empty octaves.
    zeros: u64,
    /// Index of the first bucket in `counts`.
    first: u32,
    /// Counts of buckets `first, first + 1, ...` over the occupied
    /// span, sized to the span. Shared copy-on-write: a what-if fork
    /// clones a captured fleet and resets its statistics at once, so
    /// clones share the buffer until one of them records.
    counts: Arc<[u32]>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or not finite, or if one bucket
    /// would pass `u32::MAX` values.
    pub fn record(&mut self, value: f64) {
        assert!(
            (0.0..=f64::MAX).contains(&value),
            "histogram value {value} is not finite and non-negative"
        );
        // -0.0 passes the check above; abs() folds it into +0.0.
        let value = value.abs();
        let i = index(value);
        if i == 0 {
            self.zeros += 1;
        } else {
            self.cover(i, i);
            let slot = &mut Arc::make_mut(&mut self.counts)[(i - self.first) as usize];
            *slot = slot
                .checked_add(1)
                .expect("histogram bucket count overflows u32");
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Folds `other` in: counts add, min and max combine and the sums
    /// add, so folding per-drive histograms in a fixed order gives
    /// bit-identical results at any shard count.
    ///
    /// # Panics
    ///
    /// Panics if one bucket would pass `u32::MAX` values.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        if let Some(last) = other.last() {
            self.cover(other.first, last);
            let offset = (other.first - self.first) as usize;
            let counts = &mut Arc::make_mut(&mut self.counts)[offset..];
            // One check after the loop keeps the loop branch-free.
            let mut overflow = false;
            for (mine, &theirs) in counts.iter_mut().zip(other.counts.iter()) {
                let (sum, wrapped) = mine.overflowing_add(theirs);
                *mine = sum;
                overflow |= wrapped;
            }
            assert!(!overflow, "histogram bucket count overflows u32");
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `p`th percentile, `p` in 0–100: the midpoint of the bucket
    /// holding the value of rank `round(p/100 · (n − 1))`, clamped to
    /// `[min, max]`. That is within `1/128` (0.79%) of the exact sorted
    /// value at any `n`; ranks 0 and `n − 1` return min and max
    /// exactly. Zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * (self.count - 1) as f64).round() as u64;
        if rank == 0 {
            return self.min;
        }
        if rank == self.count - 1 {
            return self.max;
        }
        let mut below = self.zeros;
        let mut bucket = 0;
        if rank >= below {
            for (i, &n) in (self.first..).zip(self.counts.iter()) {
                below += u64::from(n);
                if rank < below {
                    bucket = i;
                    break;
                }
            }
        }
        midpoint(bucket).clamp(self.min, self.max)
    }

    /// `(edge, fraction of values <= edge)` for each of `edges`, closed
    /// by `(f64::INFINITY, 1.0)`. Exact for edges on bucket boundaries,
    /// such as the Figure 4 edges; any other edge counts its whole
    /// bucket.
    ///
    /// # Panics
    ///
    /// Panics if an edge is negative or NaN.
    pub fn cdf(&self, edges: &[f64]) -> Vec<(f64, f64)> {
        let total = self.count.max(1) as f64;
        let mut out: Vec<(f64, f64)> = edges
            .iter()
            .map(|&edge| (edge, self.count_at_most(edge) as f64 / total))
            .collect();
        out.push((f64::INFINITY, 1.0));
        out
    }

    /// Values in buckets up to and including `edge`'s.
    fn count_at_most(&self, edge: f64) -> u64 {
        assert!(edge >= 0.0, "cdf edge {edge} must be non-negative");
        let top = index(edge);
        let through = (top + 1).saturating_sub(self.first) as usize;
        self.zeros
            + self
                .counts
                .iter()
                .take(through)
                .map(|&n| u64::from(n))
                .sum::<u64>()
    }

    /// Checks the invariants every recorded histogram holds, for one
    /// that arrives from outside (a checkpoint body): the counts sum to
    /// `count`, the span stays within the indices of finite values,
    /// `min <= max`, and sum, min and max are finite.
    ///
    /// # Errors
    ///
    /// A message naming the first broken invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.sum.is_finite() && self.min.is_finite() && self.max.is_finite()) {
            return Err(format!(
                "sum {}, min {} and max {} must be finite",
                self.sum, self.min, self.max
            ));
        }
        if self.min > self.max {
            return Err(format!("min {} exceeds max {}", self.min, self.max));
        }
        if !self.counts.is_empty() {
            // In u64: a doctored span may not fit the index type.
            let last = u64::from(self.first) + self.counts.len() as u64 - 1;
            if self.first == 0 || last > u64::from(MAX_INDEX) {
                return Err(format!(
                    "bucket span {}..={last} leaves 1..={MAX_INDEX}",
                    self.first
                ));
            }
        }
        // The span check above bounds this sum well inside u64.
        let spanned: u64 = self.counts.iter().map(|&n| u64::from(n)).sum();
        if spanned.checked_add(self.zeros) != Some(self.count) {
            return Err(format!(
                "bucket counts sum to {spanned} plus {} zeros, not count {}",
                self.zeros, self.count
            ));
        }
        Ok(())
    }

    /// Index of the last bucket in the span, `None` when it is empty.
    fn last(&self) -> Option<u32> {
        (!self.counts.is_empty()).then(|| self.first + (self.counts.len() - 1) as u32)
    }

    /// Widens the span to cover buckets `lo..=hi`, sizing the buffer to
    /// exactly the new span.
    fn cover(&mut self, lo: u32, hi: u32) {
        let (lo, hi) = match self.last() {
            Some(last) if self.first <= lo && hi <= last => return,
            Some(last) => (lo.min(self.first), hi.max(last)),
            None => (lo, hi),
        };
        let mut counts = vec![0; (hi - lo + 1) as usize];
        if !self.counts.is_empty() {
            let offset = (self.first - lo) as usize;
            counts[offset..offset + self.counts.len()].copy_from_slice(&self.counts);
        }
        self.counts = counts.into();
        self.first = lo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_one_sixty_fourth_of_their_lower_bound() {
        for x in [1e-300, 0.3, 1.0, 5.0, 12.8, 1e6, 1e300] {
            let (lo, hi) = bounds(index(x));
            assert!(lo < x && x <= hi, "{x} outside its bucket ({lo}, {hi}]");
            assert!(hi - lo <= lo / 64.0, "bucket ({lo}, {hi}] too wide");
        }
        assert_eq!(index(f64::MAX), MAX_INDEX);
        assert_eq!(index(0.0), 0);
    }

    #[test]
    fn figure4_edges_are_bucket_boundaries() {
        for edge in [5.0, 10.0, 20.0, 40.0, 60.0, 90.0, 120.0, 150.0, 200.0] {
            assert_eq!(bounds(index(edge)).1, edge, "{edge} is not an upper bound");
        }
    }

    #[test]
    fn zeros_sit_below_every_bucket_without_widening_the_span() {
        let mut h = Histogram::new();
        for v in [0.0, -0.0, 0.0, 1471.0, 3.0] {
            h.record(v);
        }
        assert_eq!(h.zeros, 3);
        assert!(
            h.counts.len() < 64 * 10,
            "span of {} buckets",
            h.counts.len()
        );
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.cdf(&[0.0])[0].1, 0.6);
        assert!(h.validate().is_ok());
    }

    #[test]
    fn validate_names_each_broken_invariant() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 4.0] {
            h.record(v);
        }
        assert!(h.validate().is_ok());
        let broken = |f: fn(&mut Histogram)| {
            let mut bad = h.clone();
            f(&mut bad);
            bad.validate().unwrap_err()
        };
        assert!(broken(|b| b.count += 1).contains("sum to"));
        assert!(broken(|b| b.first = MAX_INDEX).contains("leaves"));
        assert!(broken(|b| b.first = 0).contains("leaves"));
        assert!(broken(|b| b.min = 9.0).contains("exceeds"));
        assert!(broken(|b| b.sum = f64::NAN).contains("finite"));
        assert!(broken(|b| b.max = f64::INFINITY).contains("finite"));
    }

    /// Property tests against exact references: a sort for quantiles,
    /// one pass for merges, direct counting for the CDF.
    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The paper's Figure 4 CDF edges, ms.
        const FIGURE4_EDGES_MS: [f64; 9] = [5.0, 10.0, 20.0, 40.0, 60.0, 90.0, 120.0, 150.0, 200.0];

        /// Heavy-tailed draws, repeated values (zero among them), and
        /// values on bucket boundaries and one ulp either side.
        fn value() -> impl Strategy<Value = f64> {
            prop_oneof![
                (-20.0f64..40.0).prop_map(|e| e.exp2()),
                (0.0f64..1.0).prop_map(|u| 1.0 / (1.0 - u).powf(1.5)),
                (0usize..6).prop_map(|k| [0.0, 0.3, 5.0, 12.5, 150.0, 200.0][k]),
                (65_000u64..67_000, 0u64..3)
                    .prop_map(|(i, k)| f64::from_bits((i << SHIFT) + k - 1)),
                (0usize..9, 0u64..3)
                    .prop_map(|(e, k)| f64::from_bits(FIGURE4_EDGES_MS[e].to_bits() + k - 1)),
            ]
        }

        fn one_pass(values: &[f64]) -> Histogram {
            let mut h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h
        }

        /// Every percentile is within 1/128 of the exact sorted value
        /// at the same rank; p0 and p100 are exact.
        fn check_quantiles(values: &[f64]) -> Result<(), TestCaseError> {
            let h = one_pass(values);
            let mut sorted = values.to_vec();
            sorted.sort_by(f64::total_cmp);
            for p in [
                0.0, 0.1, 1.0, 5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0,
            ] {
                let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
                let (exact, got) = (sorted[rank], h.percentile(p));
                prop_assert!(
                    (got - exact).abs() <= exact / 128.0,
                    "p{p} of {} values: {got} vs exact {exact}",
                    values.len()
                );
            }
            prop_assert_eq!(h.percentile(0.0), sorted[0]);
            prop_assert_eq!(h.percentile(100.0), sorted[sorted.len() - 1]);
            Ok(())
        }

        /// The fields a merge must reproduce exactly. The sum is left
        /// out: floating-point addition depends on grouping.
        fn shape(h: &Histogram) -> (u64, f64, f64, u64, u32, Vec<u32>) {
            (h.count, h.min, h.max, h.zeros, h.first, h.counts.to_vec())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn quantiles_stay_within_the_bound(values in prop::collection::vec(value(), 1..3_000)) {
                check_quantiles(&values)?;
            }

            #[test]
            fn merges_in_any_grouping_and_order_equal_one_pass(
                tagged in prop::collection::vec((value(), 0usize..5), 0..2_000),
            ) {
                let values: Vec<f64> = tagged.iter().map(|&(v, _)| v).collect();
                let whole = one_pass(&values);
                let parts: Vec<Histogram> = (0..5)
                    .map(|c| {
                        let chunk: Vec<f64> =
                            tagged.iter().filter(|&&(_, t)| t == c).map(|&(v, _)| v).collect();
                        one_pass(&chunk)
                    })
                    .collect();
                let fold = |order: &[usize]| {
                    let mut h = Histogram::new();
                    for &i in order {
                        h.merge(&parts[i]);
                    }
                    h
                };
                let mut nested = parts[0].clone();
                let mut right = parts[3].clone();
                right.merge(&parts[4]);
                let mut middle = parts[2].clone();
                middle.merge(&right);
                nested.merge(&parts[1]);
                nested.merge(&middle);
                for merged in [fold(&[0, 1, 2, 3, 4]), fold(&[4, 2, 0, 3, 1]), nested] {
                    prop_assert_eq!(shape(&merged), shape(&whole));
                    prop_assert!(merged.validate().is_ok());
                }
            }

            #[test]
            fn cdf_counts_exactly_at_the_figure4_edges(
                values in prop::collection::vec(value(), 0..2_000),
            ) {
                let h = one_pass(&values);
                let cdf = h.cdf(&FIGURE4_EDGES_MS);
                let n = values.len().max(1) as f64;
                for (&(edge, frac), &want) in cdf.iter().zip(&FIGURE4_EDGES_MS) {
                    prop_assert_eq!(edge, want);
                    let direct = values.iter().filter(|&&v| v <= edge).count() as f64 / n;
                    prop_assert_eq!(frac, direct, "edge {}", edge);
                }
                prop_assert_eq!(cdf[FIGURE4_EDGES_MS.len()], (f64::INFINITY, 1.0));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]

            #[test]
            fn quantiles_stay_within_the_bound_past_65536_values(
                values in prop::collection::vec(value(), 65_537..140_000),
            ) {
                check_quantiles(&values)?;
            }
        }
    }
}
