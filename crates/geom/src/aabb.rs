//! Axis-aligned minimum bounding rectangles (the paper's MBRs).

use crate::{Axis, Overlap, Point3};
use std::fmt;

/// An axis-aligned box in 3-D space — the *minimum bounding rectangle* (MBR)
/// of the paper.
///
/// Boxes are **closed**: boxes sharing only a boundary face intersect. FLAT
/// relies on this (partitions tile space and touch at faces; touching
/// partitions are neighbors, §V-A of the paper).
///
/// The invariant `min ≤ max` component-wise is maintained by every
/// constructor; [`Aabb::from_corners`] accepts corners in any order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Corner with the smallest coordinates.
    pub min: Point3,
    /// Corner with the largest coordinates.
    pub max: Point3,
}

impl Aabb {
    /// Creates a box from its extreme corners.
    ///
    /// # Panics
    /// Panics in debug builds if `min` exceeds `max` in any dimension; use
    /// [`Aabb::from_corners`] when the ordering is unknown.
    #[inline]
    pub fn new(min: Point3, max: Point3) -> Aabb {
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "Aabb::new called with unordered corners: min={min}, max={max}"
        );
        Aabb { min, max }
    }

    /// Creates a box from two arbitrary opposite corners, ordering the
    /// coordinates as needed.
    #[inline]
    pub fn from_corners(a: Point3, b: Point3) -> Aabb {
        Aabb {
            min: a.min(&b),
            max: a.max(&b),
        }
    }

    /// The degenerate box containing exactly one point.
    #[inline]
    pub fn point(p: Point3) -> Aabb {
        Aabb { min: p, max: p }
    }

    /// A cube centered at `center` with the given side length.
    #[inline]
    pub fn cube(center: Point3, side: f64) -> Aabb {
        let h = side / 2.0;
        Aabb::new(center - Point3::splat(h), center + Point3::splat(h))
    }

    /// A box centered at `center` with the given per-axis extents.
    #[inline]
    pub fn centered(center: Point3, extents: Point3) -> Aabb {
        let h = extents / 2.0;
        Aabb::new(center - h, center + h)
    }

    /// The "empty" box, neutral element of [`Aabb::union`]: its corners are
    /// at +∞/−∞ so that the first union replaces it entirely.
    ///
    /// An empty box intersects nothing and contains nothing.
    #[inline]
    pub fn empty() -> Aabb {
        Aabb {
            min: Point3::splat(f64::INFINITY),
            max: Point3::splat(f64::NEG_INFINITY),
        }
    }

    /// `true` if this is the neutral element produced by [`Aabb::empty`]
    /// (i.e. no point has been accumulated into it yet).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// The bounding box of a set of boxes. Returns [`Aabb::empty`] for an
    /// empty iterator.
    pub fn union_all<I: IntoIterator<Item = Aabb>>(boxes: I) -> Aabb {
        boxes
            .into_iter()
            .fold(Aabb::empty(), |acc, b| acc.union(&b))
    }

    /// The geometric center of the box.
    #[inline]
    pub fn center(&self) -> Point3 {
        Point3::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
            (self.min.z + self.max.z) / 2.0,
        )
    }

    /// Edge length along `axis`.
    #[inline]
    pub fn extent(&self, axis: Axis) -> f64 {
        self.max.coord(axis) - self.min.coord(axis)
    }

    /// Edge lengths along all three axes.
    #[inline]
    pub fn extents(&self) -> Point3 {
        self.max - self.min
    }

    /// Volume of the box (0 for degenerate boxes).
    #[inline]
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extents();
        e.x * e.y * e.z
    }

    /// Surface area of the box (the R*-tree's optimization metric).
    #[inline]
    pub fn surface_area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extents();
        2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)
    }

    /// `true` if the closed boxes share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// `true` if `other` lies entirely inside this box (boundaries count).
    #[inline]
    pub fn contains(&self, other: &Aabb) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.min.z <= other.min.z
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
            && self.max.z >= other.max.z
    }

    /// `true` if the point lies inside the closed box.
    #[inline]
    pub fn contains_point(&self, p: &Point3) -> bool {
        self.min.x <= p.x
            && p.x <= self.max.x
            && self.min.y <= p.y
            && p.y <= self.max.y
            && self.min.z <= p.z
            && p.z <= self.max.z
    }

    /// Classifies `other` against this box (used as the query side).
    #[inline]
    pub fn classify(&self, other: &Aabb) -> Overlap {
        if !self.intersects(other) {
            Overlap::None
        } else if self.contains(other) {
            Overlap::Contains
        } else {
            Overlap::Partial
        }
    }

    /// The smallest box containing both inputs.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// The common region of both boxes, or `None` if they are disjoint.
    #[inline]
    pub fn intersection(&self, other: &Aabb) -> Option<Aabb> {
        if self.intersects(other) {
            Some(Aabb {
                min: self.min.max(&other.min),
                max: self.max.min(&other.max),
            })
        } else {
            None
        }
    }

    /// By how much the volume grows if `other` is unioned in — the classic
    /// Guttman insertion heuristic.
    #[inline]
    pub fn enlargement(&self, other: &Aabb) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// Grows the box (in place, returning `self` style) so that it contains
    /// `other`. This is the *stretch* step of Algorithm 1: each partition
    /// MBR is stretched to enclose its page MBR so the crawl-phase invariant
    /// (partition ⊇ page) holds.
    #[inline]
    pub fn stretch_to_contain(&mut self, other: &Aabb) {
        self.min = self.min.min(&other.min);
        self.max = self.max.max(&other.max);
    }

    /// Returns the box expanded by `delta` on every side (shrinks if
    /// negative; collapses to a degenerate box rather than inverting).
    pub fn inflate(&self, delta: f64) -> Aabb {
        let d = Point3::splat(delta);
        let min = self.min - d;
        let max = self.max + d;
        Aabb {
            min: min.min(&max),
            max: max.max(&min),
        }
    }

    /// Returns the box scaled about its center so that its volume is
    /// multiplied by `factor` (edges scale by `factor.cbrt()`).
    ///
    /// Used by the Fig 21 experiment, which inflates partitions to study the
    /// effect of partition volume on the number of neighbor pointers.
    pub fn scale_volume(&self, factor: f64) -> Aabb {
        assert!(factor >= 0.0, "volume scale factor must be non-negative");
        let s = factor.cbrt();
        let c = self.center();
        let h = self.extents() * (s / 2.0);
        Aabb::new(c - h, c + h)
    }

    /// Minimum squared distance from `p` to the closed box (0 if inside).
    pub fn distance_sq_to_point(&self, p: &Point3) -> f64 {
        let mut d = 0.0;
        for axis in Axis::ALL {
            let v = p.coord(axis);
            let lo = self.min.coord(axis);
            let hi = self.max.coord(axis);
            let delta = if v < lo {
                lo - v
            } else if v > hi {
                v - hi
            } else {
                0.0
            };
            d += delta * delta;
        }
        d
    }

    /// Minimum squared distance between two closed boxes (0 if they touch
    /// or overlap).
    pub fn distance_sq(&self, other: &Aabb) -> f64 {
        let mut d = 0.0;
        for axis in Axis::ALL {
            let gap = (other.min.coord(axis) - self.max.coord(axis))
                .max(self.min.coord(axis) - other.max.coord(axis))
                .max(0.0);
            d += gap * gap;
        }
        d
    }

    /// Aspect ratio: longest extent divided by shortest extent.
    ///
    /// Returns `f64::INFINITY` for boxes degenerate in some dimension, and
    /// 1.0 for points/cubes.
    pub fn aspect_ratio(&self) -> f64 {
        let e = self.extents();
        let lo = e.x.min(e.y).min(e.z);
        let hi = e.x.max(e.y).max(e.z);
        if hi == 0.0 {
            1.0
        } else if lo == 0.0 {
            f64::INFINITY
        } else {
            hi / lo
        }
    }

    /// `true` if all six coordinates are finite (empty boxes are not finite).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.min.is_finite() && self.max.is_finite()
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} – {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Aabb {
        Aabb::new(Point3::ORIGIN, Point3::splat(1.0))
    }

    #[test]
    fn from_corners_orders_coordinates() {
        let b = Aabb::from_corners(Point3::new(1.0, -2.0, 3.0), Point3::new(-1.0, 2.0, 0.0));
        assert_eq!(b.min, Point3::new(-1.0, -2.0, 0.0));
        assert_eq!(b.max, Point3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn volume_and_surface_of_unit_cube() {
        let b = unit();
        assert_eq!(b.volume(), 1.0);
        assert_eq!(b.surface_area(), 6.0);
    }

    #[test]
    fn touching_boxes_intersect() {
        // Face contact only — closed semantics must report intersection.
        let a = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let b = Aabb::new(Point3::new(1.0, 0.0, 0.0), Point3::new(2.0, 1.0, 1.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        // Corner contact.
        let c = Aabb::new(Point3::splat(1.0), Point3::splat(2.0));
        assert!(a.intersects(&c));
        // Separated.
        let d = Aabb::new(Point3::splat(1.001), Point3::splat(2.0));
        assert!(!a.intersects(&d));
    }

    #[test]
    fn containment_includes_boundary() {
        let outer = unit();
        let inner = Aabb::new(Point3::ORIGIN, Point3::new(1.0, 0.5, 0.5));
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer));
    }

    #[test]
    fn classify_matches_intersects_and_contains() {
        let q = unit();
        assert_eq!(
            q.classify(&Aabb::cube(Point3::splat(0.5), 0.1)),
            Overlap::Contains
        );
        assert_eq!(
            q.classify(&Aabb::cube(Point3::splat(1.0), 0.5)),
            Overlap::Partial
        );
        assert_eq!(
            q.classify(&Aabb::cube(Point3::splat(5.0), 0.5)),
            Overlap::None
        );
    }

    #[test]
    fn union_contains_both_inputs() {
        let a = Aabb::cube(Point3::splat(0.0), 1.0);
        let b = Aabb::cube(Point3::splat(3.0), 1.0);
        let u = a.union(&b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
    }

    #[test]
    fn union_all_of_nothing_is_empty() {
        let u = Aabb::union_all(std::iter::empty());
        assert!(u.is_empty());
        assert_eq!(u.volume(), 0.0);
    }

    #[test]
    fn empty_box_is_union_identity() {
        let b = unit();
        assert_eq!(Aabb::empty().union(&b), b);
        assert_eq!(b.union(&Aabb::empty()), b);
    }

    #[test]
    fn empty_box_intersects_nothing() {
        assert!(!Aabb::empty().intersects(&unit()));
        assert!(!unit().intersects(&Aabb::empty()));
    }

    #[test]
    fn intersection_of_overlapping_boxes() {
        let a = Aabb::new(Point3::ORIGIN, Point3::splat(2.0));
        let b = Aabb::new(Point3::splat(1.0), Point3::splat(3.0));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Aabb::new(Point3::splat(1.0), Point3::splat(2.0)));
        let far = Aabb::cube(Point3::splat(10.0), 1.0);
        assert!(a.intersection(&far).is_none());
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = Aabb::new(Point3::ORIGIN, Point3::splat(4.0));
        let inner = Aabb::cube(Point3::splat(2.0), 1.0);
        assert_eq!(a.enlargement(&inner), 0.0);
        let outer = Aabb::cube(Point3::splat(5.0), 1.0);
        assert!(a.enlargement(&outer) > 0.0);
    }

    #[test]
    fn stretch_to_contain_establishes_invariant() {
        // This mirrors Algorithm 1: partition MBR must enclose page MBR.
        let mut partition = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
        let page = Aabb::new(Point3::new(-0.5, 0.2, 0.2), Point3::new(0.5, 1.5, 0.8));
        partition.stretch_to_contain(&page);
        assert!(partition.contains(&page));
    }

    #[test]
    fn scale_volume_multiplies_volume() {
        let b = Aabb::cube(Point3::splat(1.0), 2.0);
        let scaled = b.scale_volume(8.0);
        assert!((scaled.volume() - 8.0 * b.volume()).abs() < 1e-9);
        assert_eq!(scaled.center(), b.center());
    }

    #[test]
    fn inflate_grows_every_side() {
        let b = unit().inflate(0.5);
        assert_eq!(b.min, Point3::splat(-0.5));
        assert_eq!(b.max, Point3::splat(1.5));
        // Over-shrinking collapses instead of inverting.
        let c = unit().inflate(-10.0);
        assert!(c.min.x <= c.max.x);
    }

    #[test]
    fn distance_sq_to_point_inside_is_zero() {
        let b = unit();
        assert_eq!(b.distance_sq_to_point(&Point3::splat(0.5)), 0.0);
        assert_eq!(b.distance_sq_to_point(&Point3::new(2.0, 0.5, 0.5)), 1.0);
        assert_eq!(b.distance_sq_to_point(&Point3::new(2.0, 2.0, 0.5)), 2.0);
    }

    #[test]
    fn distance_sq_between_boxes() {
        let b = unit();
        // Overlapping and touching boxes are at distance zero.
        assert_eq!(b.distance_sq(&unit()), 0.0);
        let touching = Aabb::new(Point3::new(1.0, 0.0, 0.0), Point3::new(2.0, 1.0, 1.0));
        assert_eq!(b.distance_sq(&touching), 0.0);
        // Separated along one axis: the gap, squared.
        let x_gap = Aabb::new(Point3::new(3.0, 0.0, 0.0), Point3::new(4.0, 1.0, 1.0));
        assert_eq!(b.distance_sq(&x_gap), 4.0);
        assert_eq!(x_gap.distance_sq(&b), 4.0);
        // Separated along two axes: gaps add in quadrature.
        let corner = Aabb::new(Point3::new(2.0, 3.0, 0.0), Point3::new(3.0, 4.0, 1.0));
        assert_eq!(b.distance_sq(&corner), 1.0 + 4.0);
        // Degenerate (point) boxes agree with the point distance.
        let p = Point3::new(2.0, 0.5, 0.5);
        assert_eq!(b.distance_sq(&Aabb::point(p)), b.distance_sq_to_point(&p));
    }

    #[test]
    fn aspect_ratio_is_longest_over_shortest_extent() {
        let b = Aabb::new(Point3::ORIGIN, Point3::new(4.0, 2.0, 1.0));
        assert_eq!(b.aspect_ratio(), 4.0);
        assert_eq!(unit().aspect_ratio(), 1.0);
        assert_eq!(Aabb::point(Point3::ORIGIN).aspect_ratio(), 1.0);
        let flat = Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 0.0));
        assert_eq!(flat.aspect_ratio(), f64::INFINITY);
    }

    #[test]
    fn point_box_is_contained_where_it_lies() {
        let p = Point3::new(0.25, 0.25, 0.25);
        assert!(unit().contains(&Aabb::point(p)));
        assert!(unit().contains_point(&p));
        assert!(!unit().contains_point(&Point3::splat(2.0)));
    }
}
