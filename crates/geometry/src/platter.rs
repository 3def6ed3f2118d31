//! Platter geometry: radii, the data band, and per-track radii (eq. 1).

use serde::{Deserialize, Serialize};
use units::{Inches, TracksPerInch};

/// Fraction of the radial band `r_o − r_i` that carries user data.
///
/// The remainder is consumed by recalibration tracks, manufacturer
/// reserved tracks, spares, the head landing zone and manufacturing
/// tolerances. The paper adopts the practitioners' value of 2/3.
pub const STROKE_EFFICIENCY: f64 = 2.0 / 3.0;

/// A single platter, identified by its media diameter.
///
/// The inner radius follows the paper's rule of thumb `r_i = r_o / 2`.
///
/// # Examples
///
/// ```
/// use diskgeom::Platter;
/// use units::{Inches, TracksPerInch};
///
/// let p = Platter::new(Inches::new(2.6));
/// assert_eq!(p.outer_radius(), Inches::new(1.3));
/// assert_eq!(p.inner_radius(), Inches::new(0.65));
/// // 2/3 * (1.3 - 0.65) * 67_500 TPI = 29_250 cylinders
/// assert_eq!(p.cylinders(TracksPerInch::from_ktpi(67.5)), 29_250);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Platter {
    diameter: Inches,
}

impl Platter {
    /// Creates a platter of the given media diameter.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the diameter is not positive and finite;
    /// use [`DriveGeometry::new`](crate::DriveGeometry::new) for a
    /// fallible construction path.
    pub fn new(diameter: Inches) -> Self {
        debug_assert!(
            diameter.is_finite() && diameter.get() > 0.0,
            "platter diameter must be positive"
        );
        Self { diameter }
    }

    /// Media diameter.
    pub fn diameter(&self) -> Inches {
        self.diameter
    }

    /// Outer recording radius, `r_o = diameter / 2`.
    pub fn outer_radius(&self) -> Inches {
        self.diameter / 2.0
    }

    /// Inner recording radius, `r_i = r_o / 2` (paper's rule of thumb).
    pub fn inner_radius(&self) -> Inches {
        self.outer_radius() / 2.0
    }

    /// Width of the full radial band, `r_o − r_i`.
    pub fn band_width(&self) -> Inches {
        self.outer_radius() - self.inner_radius()
    }

    /// Number of user-accessible cylinders at the given track density:
    /// `n_cylin = η (r_o − r_i) · TPI`, truncated to a whole track count.
    /// Saturating: a band that is not positive holds no cylinders, one
    /// too wide to count in 32 bits holds `u32::MAX`.
    pub fn cylinders(&self, tpi: TracksPerInch) -> u32 {
        // Round to the nearest whole track: the product is analytically
        // exact for datasheet inputs (e.g. 2/3 * 0.825 * 13000 = 7150)
        // and must not lose a track to floating-point truncation.
        (STROKE_EFFICIENCY * self.band_width().get() * tpi.get()).round() as u32
    }

    /// Radius of track `j` of `n_cylin`, with `j = 0` the outermost track
    /// at `r_o` and `j = n_cylin − 1` the innermost at `r_i` (eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if `j >= n_cylin` or `n_cylin == 0`.
    pub fn track_radius(&self, j: u32, n_cylin: u32) -> Inches {
        assert!(n_cylin > 0, "track radius of a platter with no cylinders");
        assert!(j < n_cylin, "track index {j} out of {n_cylin} cylinders");
        if n_cylin == 1 {
            return self.outer_radius();
        }
        let ro = self.outer_radius().get();
        let ri = self.inner_radius().get();
        let step = (ro - ri) / (n_cylin - 1) as f64;
        Inches::new(ri + step * (n_cylin - j - 1) as f64)
    }

    /// Perimeter of track `j` of `n_cylin`, in inches.
    pub fn track_perimeter(&self, j: u32, n_cylin: u32) -> f64 {
        core::f64::consts::TAU * self.track_radius(j, n_cylin).get()
    }

    /// Recordable annulus area between inner and outer radii, in in².
    pub fn recordable_area(&self) -> f64 {
        self.outer_radius().circle_area() - self.inner_radius().circle_area()
    }
}

impl core::fmt::Display for Platter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.1}\" platter", self.diameter.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radii_follow_half_rules() {
        let p = Platter::new(Inches::new(3.3));
        assert!((p.outer_radius().get() - 1.65).abs() < 1e-12);
        assert!((p.inner_radius().get() - 0.825).abs() < 1e-12);
        assert!((p.band_width().get() - 0.825).abs() < 1e-12);
    }

    #[test]
    fn cylinder_count_matches_hand_calc() {
        // Quantum Atlas 10K: 3.3" platter, 13 KTPI -> 7150 cylinders.
        let p = Platter::new(Inches::new(3.3));
        assert_eq!(p.cylinders(TracksPerInch::from_ktpi(13.0)), 7150);
    }

    #[test]
    fn track_radius_endpoints() {
        let p = Platter::new(Inches::new(2.6));
        let n = 1000;
        assert!((p.track_radius(0, n) - p.outer_radius()).abs().get() < 1e-12);
        assert!((p.track_radius(n - 1, n) - p.inner_radius()).abs().get() < 1e-12);
    }

    #[test]
    fn track_radius_is_monotone_decreasing() {
        let p = Platter::new(Inches::new(2.6));
        let n = 500;
        let mut prev = f64::INFINITY;
        for j in 0..n {
            let r = p.track_radius(j, n).get();
            assert!(r < prev, "radius must shrink with track index");
            prev = r;
        }
    }

    #[test]
    fn perimeter_cases_from_the_paper() {
        // Case 1: j = 0 -> 2*pi*ro.  Case 2: j = n-1 -> 2*pi*ri.
        let p = Platter::new(Inches::new(2.6));
        let n = 29_250;
        assert!((p.track_perimeter(0, n) - core::f64::consts::TAU * 1.3).abs() < 1e-9);
        assert!((p.track_perimeter(n - 1, n) - core::f64::consts::TAU * 0.65).abs() < 1e-9);
    }

    #[test]
    fn single_track_platter_degenerate_case() {
        let p = Platter::new(Inches::new(1.0));
        assert_eq!(p.track_radius(0, 1), p.outer_radius());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn track_index_out_of_range_panics() {
        let p = Platter::new(Inches::new(2.6));
        let _ = p.track_radius(10, 10);
    }

    #[test]
    fn recordable_area_is_three_quarters_of_outer_disc() {
        // With ri = ro/2, the annulus is 3/4 of the full circle.
        let p = Platter::new(Inches::new(2.6));
        let full = p.outer_radius().circle_area();
        assert!((p.recordable_area() / full - 0.75).abs() < 1e-12);
    }
}
