//! 3-D points and axis identifiers.

use std::fmt;
use std::ops::{Add, Div, Index, Mul, Sub};

/// One of the three coordinate axes.
///
/// STR partitioning (Algorithm 1 of the paper) sorts along X, then Y, then Z;
/// the PR-tree bulkload rotates through axes as it recurses. Both use this
/// enum rather than raw `usize` indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// The x axis (index 0).
    X,
    /// The y axis (index 1).
    Y,
    /// The z axis (index 2).
    Z,
}

impl Axis {
    /// All three axes in canonical order.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    /// The axis following this one, cycling X → Y → Z → X.
    #[inline]
    pub fn next(self) -> Axis {
        match self {
            Axis::X => Axis::Y,
            Axis::Y => Axis::Z,
            Axis::Z => Axis::X,
        }
    }

    /// Numeric index of the axis (X=0, Y=1, Z=2).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }
}

/// A point in 3-D space with `f64` coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
    /// z coordinate.
    pub z: f64,
}

impl Point3 {
    /// The origin (0, 0, 0).
    pub const ORIGIN: Point3 = Point3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a point from its three coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Point3 {
        Point3 { x, y, z }
    }

    /// A point with all three coordinates equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Point3 {
        Point3 { x: v, y: v, z: v }
    }

    /// The coordinate along `axis`.
    #[inline]
    pub fn coord(&self, axis: Axis) -> f64 {
        match axis {
            Axis::X => self.x,
            Axis::Y => self.y,
            Axis::Z => self.z,
        }
    }

    /// Returns a copy with the coordinate along `axis` replaced by `v`.
    #[inline]
    pub fn with_coord(mut self, axis: Axis, v: f64) -> Point3 {
        match axis {
            Axis::X => self.x = v,
            Axis::Y => self.y = v,
            Axis::Z => self.z = v,
        }
        self
    }

    /// Component-wise minimum of two points.
    #[inline]
    pub fn min(&self, other: &Point3) -> Point3 {
        Point3::new(
            self.x.min(other.x),
            self.y.min(other.y),
            self.z.min(other.z),
        )
    }

    /// Component-wise maximum of two points.
    #[inline]
    pub fn max(&self, other: &Point3) -> Point3 {
        Point3::new(
            self.x.max(other.x),
            self.y.max(other.y),
            self.z.max(other.z),
        )
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point3) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (no square root).
    #[inline]
    pub fn distance_sq(&self, other: &Point3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        dx * dx + dy * dy + dz * dz
    }

    /// Dot product with `other` (treating both as vectors from the origin).
    #[inline]
    pub fn dot(&self, other: &Point3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product with `other` (treating both as vectors).
    #[inline]
    pub fn cross(&self, other: &Point3) -> Point3 {
        Point3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Euclidean length of the vector from the origin to this point.
    #[inline]
    pub fn length(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns the vector scaled to unit length.
    ///
    /// Returns `None` for the zero vector (or one too small to normalize).
    #[inline]
    pub fn normalized(&self) -> Option<Point3> {
        let len = self.length();
        if len <= f64::EPSILON {
            None
        } else {
            Some(*self / len)
        }
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(&self, other: &Point3, t: f64) -> Point3 {
        *self + (*other - *self) * t
    }

    /// `true` if all three coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, rhs: f64) -> Point3 {
        Point3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn div(self, rhs: f64) -> Point3 {
        Point3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Index<Axis> for Point3 {
    type Output = f64;
    #[inline]
    fn index(&self, axis: Axis) -> &f64 {
        match axis {
            Axis::X => &self.x,
            Axis::Y => &self.y,
            Axis::Z => &self.z,
        }
    }
}

impl From<[f64; 3]> for Point3 {
    #[inline]
    fn from(a: [f64; 3]) -> Point3 {
        Point3::new(a[0], a[1], a[2])
    }
}

impl From<Point3> for [f64; 3] {
    #[inline]
    fn from(p: Point3) -> [f64; 3] {
        [p.x, p.y, p.z]
    }
}

impl fmt::Display for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_cycle_covers_all_axes() {
        assert_eq!(Axis::X.next(), Axis::Y);
        assert_eq!(Axis::Y.next(), Axis::Z);
        assert_eq!(Axis::Z.next(), Axis::X);
    }

    #[test]
    fn coord_and_with_coord_agree() {
        let p = Point3::new(1.0, 2.0, 3.0);
        for axis in Axis::ALL {
            let q = p.with_coord(axis, 9.0);
            assert_eq!(q.coord(axis), 9.0);
            for other in Axis::ALL.into_iter().filter(|a| *a != axis) {
                assert_eq!(q.coord(other), p.coord(other));
            }
        }
    }

    #[test]
    fn arithmetic_operators() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(4.0, 6.0, 8.0);
        assert_eq!(a + b, Point3::new(5.0, 8.0, 11.0));
        assert_eq!(b - a, Point3::new(3.0, 4.0, 5.0));
        assert_eq!(a * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, Point3::new(2.0, 3.0, 4.0));
    }

    #[test]
    fn distance_is_symmetric_and_matches_pythagoras() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(3.0, 4.0, 12.0);
        assert_eq!(a.distance(&b), 13.0);
        assert_eq!(b.distance(&a), 13.0);
        assert_eq!(a.distance_sq(&b), 169.0);
    }

    #[test]
    fn cross_product_is_orthogonal() {
        let a = Point3::new(1.0, 0.0, 0.0);
        let b = Point3::new(0.0, 1.0, 0.0);
        let c = a.cross(&b);
        assert_eq!(c, Point3::new(0.0, 0.0, 1.0));
        assert_eq!(c.dot(&a), 0.0);
        assert_eq!(c.dot(&b), 0.0);
    }

    #[test]
    fn normalized_unit_length() {
        let v = Point3::new(3.0, 4.0, 0.0).normalized().unwrap();
        assert!((v.length() - 1.0).abs() < 1e-12);
        assert!(Point3::ORIGIN.normalized().is_none());
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Point3::new(1.0, 5.0, 3.0);
        let b = Point3::new(2.0, 4.0, 3.0);
        assert_eq!(a.min(&b), Point3::new(1.0, 4.0, 3.0));
        assert_eq!(a.max(&b), Point3::new(2.0, 5.0, 3.0));
    }

    #[test]
    fn array_conversion_roundtrip() {
        let p = Point3::new(1.5, -2.5, 3.5);
        let a: [f64; 3] = p.into();
        assert_eq!(Point3::from(a), p);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Point3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Point3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Point3::new(0.0, f64::INFINITY, 0.0).is_finite());
    }
}
