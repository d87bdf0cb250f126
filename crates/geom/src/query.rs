//! Range-query construction helpers.
//!
//! The paper's micro-benchmarks issue axis-aligned range queries of a fixed
//! *volume* (a fraction of the dataset volume: 5·10⁻⁷ % for the SN benchmark,
//! 5·10⁻⁴ % for LSS) whose *location and aspect ratio* are random (§VII-A).
//! This module provides the deterministic core of that construction: given a
//! center, a target volume, and relative edge proportions, build the box.
//! Randomness itself lives in `flat-data`'s workload generator so that this
//! crate stays dependency-free.

use crate::{Aabb, Point3};

/// Builds a range query box of an exact volume from a center point and
/// relative edge proportions.
///
/// `proportions` gives the relative lengths of the box edges; they are
/// rescaled uniformly so the final volume equals `volume`. This mirrors the
/// paper's aspect-ratio experiment (§VII-E.1): "its length in each dimension
/// is randomly set … the lengths on all axes are normalized in order to
/// obtain elements of equal volume".
///
/// # Panics
/// Panics if `volume` is negative or any proportion is not strictly
/// positive.
pub fn range_query_with_volume(center: Point3, volume: f64, proportions: [f64; 3]) -> Aabb {
    assert!(volume >= 0.0, "query volume must be non-negative");
    assert!(
        proportions.iter().all(|p| *p > 0.0),
        "edge proportions must be strictly positive, got {proportions:?}"
    );
    let raw = proportions[0] * proportions[1] * proportions[2];
    let scale = (volume / raw).cbrt();
    let extents = Point3::new(
        proportions[0] * scale,
        proportions[1] * scale,
        proportions[2] * scale,
    );
    Aabb::centered(center, extents)
}

/// The aspect ratio (longest/shortest edge) a proportions triple produces.
pub fn aspect_ratio_of(proportions: [f64; 3]) -> f64 {
    let lo = proportions.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = proportions.iter().cloned().fold(0.0f64, f64::max);
    hi / lo
}

/// Fluent construction of range queries against a domain.
///
/// ```
/// use flat_geom::{Aabb, Point3, RangeQueryBuilder};
///
/// let domain = Aabb::cube(Point3::splat(0.0), 100.0);
/// let q = RangeQueryBuilder::new(domain)
///     .volume_fraction(1e-6)
///     .proportions([1.0, 2.0, 4.0])
///     .center(Point3::splat(10.0))
///     .build();
/// assert!((q.volume() - domain.volume() * 1e-6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RangeQueryBuilder {
    domain: Aabb,
    center: Point3,
    volume: f64,
    proportions: [f64; 3],
}

impl RangeQueryBuilder {
    /// Starts a builder for queries inside `domain`; defaults to a cubical
    /// query of 10⁻⁶ of the domain volume at the domain center, clamped to
    /// the domain.
    pub fn new(domain: Aabb) -> RangeQueryBuilder {
        RangeQueryBuilder {
            center: domain.center(),
            volume: domain.volume() * 1e-6,
            proportions: [1.0, 1.0, 1.0],
            domain,
        }
    }

    /// Sets the query center.
    pub fn center(mut self, center: Point3) -> Self {
        self.center = center;
        self
    }

    /// Sets the absolute query volume.
    pub fn volume(mut self, volume: f64) -> Self {
        self.volume = volume;
        self
    }

    /// Sets the query volume as a fraction of the domain volume.
    ///
    /// Note the paper states fractions as percentages: its "5 × 10⁻⁷ %" is a
    /// fraction of 5 × 10⁻⁹.
    pub fn volume_fraction(mut self, fraction: f64) -> Self {
        self.volume = self.domain.volume() * fraction;
        self
    }

    /// Sets the relative edge proportions (aspect ratio shape).
    pub fn proportions(mut self, proportions: [f64; 3]) -> Self {
        self.proportions = proportions;
        self
    }

    /// Builds the query box.
    pub fn build(&self) -> Aabb {
        let q = range_query_with_volume(self.center, self.volume, self.proportions);
        // Translate (not shrink) the box so it fits inside the domain where
        // possible: volume is the controlled variable in the benchmarks, and
        // a query hanging off the edge of the domain would cover less data
        // than its nominal volume.
        let mut min = q.min;
        let mut max = q.max;
        for axis in crate::Axis::ALL {
            let lo = self.domain.min.coord(axis);
            let hi = self.domain.max.coord(axis);
            let len = max.coord(axis) - min.coord(axis);
            if len >= hi - lo {
                min = min.with_coord(axis, lo);
                max = max.with_coord(axis, hi);
            } else if min.coord(axis) < lo {
                min = min.with_coord(axis, lo);
                max = max.with_coord(axis, lo + len);
            } else if max.coord(axis) > hi {
                max = max.with_coord(axis, hi);
                min = min.with_coord(axis, hi - len);
            }
        }
        Aabb::new(min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_is_exact_for_any_proportions() {
        let q = range_query_with_volume(Point3::splat(5.0), 64.0, [1.0, 2.0, 4.0]);
        assert!((q.volume() - 64.0).abs() < 1e-9);
        assert_eq!(q.center(), Point3::splat(5.0));
        // Aspect ratio preserved: extents in proportion 1:2:4.
        let e = q.extents();
        assert!((e.y / e.x - 2.0).abs() < 1e-9);
        assert!((e.z / e.x - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cubical_proportions_give_cube() {
        let q = range_query_with_volume(Point3::ORIGIN, 27.0, [1.0, 1.0, 1.0]);
        let e = q.extents();
        assert!((e.x - 3.0).abs() < 1e-9);
        assert!((e.y - 3.0).abs() < 1e-9);
        assert!((e.z - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_proportion_rejected() {
        let _ = range_query_with_volume(Point3::ORIGIN, 1.0, [1.0, 0.0, 1.0]);
    }

    #[test]
    fn aspect_ratio_of_proportions() {
        assert_eq!(aspect_ratio_of([1.0, 1.0, 1.0]), 1.0);
        assert_eq!(aspect_ratio_of([1.0, 2.0, 4.0]), 4.0);
        assert_eq!(aspect_ratio_of([5.0, 35.0, 10.0]), 7.0);
    }

    #[test]
    fn builder_volume_fraction_uses_domain_volume() {
        let domain = Aabb::cube(Point3::splat(50.0), 100.0); // volume 1e6
        let q = RangeQueryBuilder::new(domain).volume_fraction(5e-9).build();
        assert!((q.volume() - 5e-3).abs() < 1e-12);
        assert!(domain.contains(&q));
    }

    #[test]
    fn builder_clamps_by_translation_preserving_volume() {
        let domain = Aabb::cube(Point3::splat(50.0), 100.0);
        let q = RangeQueryBuilder::new(domain)
            .volume(1000.0)
            .center(Point3::new(0.5, 50.0, 99.9)) // near two faces
            .build();
        assert!(domain.contains(&q));
        assert!((q.volume() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn builder_query_wider_than_domain_collapses_to_domain_extent() {
        let domain = Aabb::cube(Point3::splat(0.0), 2.0);
        let q = RangeQueryBuilder::new(domain)
            .volume(1e9)
            .proportions([1.0, 1.0, 1.0])
            .build();
        assert_eq!(q, domain);
    }
}
