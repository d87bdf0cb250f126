//! Concrete spatial element shapes used by the paper's datasets.
//!
//! The BBP brain models represent neuron branches as **cylinders** (two end
//! points plus a radius per end point, §VII-A); the Brain Mesh and Lucy
//! datasets are **triangle** soups (§VIII); the Nuage n-body datasets are
//! **vertices**, which we model as tiny [`Sphere`]s. Indexes never see the
//! shapes themselves — like the paper, only the shape MBR is stored on disk
//! ("we only store the MBRs of the cylinders on R-Tree leaf pages and on the
//! FLAT object pages", §VII-A) — but the generators and examples work with
//! real shapes.

use crate::{Aabb, Point3};

/// Anything that can report its minimum bounding rectangle.
pub trait Shape {
    /// The tightest axis-aligned box containing the shape.
    fn mbr(&self) -> Aabb;
}

/// A truncated-cone segment (the paper calls these cylinders): the modeling
/// primitive for neuron dendrites and axons.
///
/// "Each cylinder is described by two end points and a radius for each
/// endpoint" (§VII-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cylinder {
    /// First end point (center of the first cap).
    pub p0: Point3,
    /// Second end point (center of the second cap).
    pub p1: Point3,
    /// Radius at `p0`.
    pub r0: f64,
    /// Radius at `p1`.
    pub r1: f64,
}

impl Cylinder {
    /// Creates a cylinder segment.
    ///
    /// # Panics
    /// Panics if either radius is negative.
    pub fn new(p0: Point3, p1: Point3, r0: f64, r1: f64) -> Cylinder {
        assert!(
            r0 >= 0.0 && r1 >= 0.0,
            "cylinder radii must be non-negative"
        );
        Cylinder { p0, p1, r0, r1 }
    }

    /// Length of the segment axis.
    pub fn length(&self) -> f64 {
        self.p0.distance(&self.p1)
    }

    /// Volume of the truncated cone.
    pub fn volume(&self) -> f64 {
        let h = self.length();
        std::f64::consts::PI / 3.0 * h * (self.r0 * self.r0 + self.r0 * self.r1 + self.r1 * self.r1)
    }
}

impl Shape for Cylinder {
    /// A conservative MBR: the union of the bounding boxes of the two end
    /// caps treated as spheres.
    ///
    /// This is the standard conservative bound used in practice (exact
    /// truncated-cone MBRs are tighter in the axis direction by at most the
    /// cap radius, which is negligible for the long thin segments of neuron
    /// morphologies).
    fn mbr(&self) -> Aabb {
        let a = Aabb::new(
            self.p0 - Point3::splat(self.r0),
            self.p0 + Point3::splat(self.r0),
        );
        let b = Aabb::new(
            self.p1 - Point3::splat(self.r1),
            self.p1 + Point3::splat(self.r1),
        );
        a.union(&b)
    }
}

/// A 3-D triangle, the element of surface-mesh datasets ("9 floats/doubles
/// suffice" per element, §V-B.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    /// First vertex.
    pub a: Point3,
    /// Second vertex.
    pub b: Point3,
    /// Third vertex.
    pub c: Point3,
}

impl Triangle {
    /// Creates a triangle from its vertices.
    pub fn new(a: Point3, b: Point3, c: Point3) -> Triangle {
        Triangle { a, b, c }
    }

    /// Area of the triangle.
    pub fn area(&self) -> f64 {
        let ab = self.b - self.a;
        let ac = self.c - self.a;
        ab.cross(&ac).length() / 2.0
    }
}

impl Shape for Triangle {
    fn mbr(&self) -> Aabb {
        Aabb {
            min: self.a.min(&self.b).min(&self.c),
            max: self.a.max(&self.b).max(&self.c),
        }
    }
}

/// A sphere; used to model n-body vertices (with tiny radii) and query
/// neighborhoods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere {
    /// Center of the sphere.
    pub center: Point3,
    /// Radius.
    pub radius: f64,
}

impl Sphere {
    /// Creates a sphere.
    ///
    /// # Panics
    /// Panics if the radius is negative.
    pub fn new(center: Point3, radius: f64) -> Sphere {
        assert!(radius >= 0.0, "sphere radius must be non-negative");
        Sphere { center, radius }
    }

    /// Volume of the sphere.
    pub fn volume(&self) -> f64 {
        4.0 / 3.0 * std::f64::consts::PI * self.radius.powi(3)
    }
}

impl Shape for Sphere {
    fn mbr(&self) -> Aabb {
        Aabb::new(
            self.center - Point3::splat(self.radius),
            self.center + Point3::splat(self.radius),
        )
    }
}

impl Shape for Aabb {
    #[inline]
    fn mbr(&self) -> Aabb {
        *self
    }
}

impl Shape for Point3 {
    #[inline]
    fn mbr(&self) -> Aabb {
        Aabb::point(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cylinder_mbr_contains_both_caps() {
        let c = Cylinder::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(10.0, 0.0, 0.0),
            1.0,
            2.0,
        );
        let mbr = c.mbr();
        assert!(mbr.contains_point(&Point3::new(-1.0, 0.0, 0.0)));
        assert!(mbr.contains_point(&Point3::new(12.0, 0.0, 0.0)));
        assert!(mbr.contains_point(&Point3::new(10.0, 2.0, -2.0)));
        assert!(!mbr.contains_point(&Point3::new(-1.5, 0.0, 0.0)));
    }

    #[test]
    fn cylinder_length_and_volume() {
        let c = Cylinder::new(Point3::ORIGIN, Point3::new(0.0, 0.0, 3.0), 1.0, 1.0);
        assert_eq!(c.length(), 3.0);
        // Constant radius: plain cylinder volume π r² h.
        assert!((c.volume() - std::f64::consts::PI * 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_radius_rejected() {
        let _ = Cylinder::new(Point3::ORIGIN, Point3::ORIGIN, -1.0, 0.0);
    }

    #[test]
    fn degenerate_cylinder_is_sphere_box() {
        let c = Cylinder::new(Point3::splat(1.0), Point3::splat(1.0), 0.5, 0.5);
        assert_eq!(c.mbr(), Aabb::cube(Point3::splat(1.0), 1.0));
    }

    #[test]
    fn triangle_mbr_is_tight() {
        let t = Triangle::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(2.0, 0.0, 1.0),
            Point3::new(1.0, 3.0, -1.0),
        );
        let mbr = t.mbr();
        assert_eq!(mbr.min, Point3::new(0.0, 0.0, -1.0));
        assert_eq!(mbr.max, Point3::new(2.0, 3.0, 1.0));
    }

    #[test]
    fn triangle_area() {
        let t = Triangle::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(4.0, 0.0, 0.0),
            Point3::new(0.0, 3.0, 0.0),
        );
        assert_eq!(t.area(), 6.0);
    }

    #[test]
    fn sphere_volume_formula() {
        let s = Sphere::new(Point3::ORIGIN, 2.0);
        assert!((s.volume() - 4.0 / 3.0 * std::f64::consts::PI * 8.0).abs() < 1e-12);
    }

    #[test]
    fn aabb_and_point_are_shapes() {
        let b = Aabb::cube(Point3::ORIGIN, 2.0);
        assert_eq!(b.mbr(), b);
        let p = Point3::new(1.0, 2.0, 3.0);
        assert_eq!(p.mbr(), Aabb::point(p));
    }
}
