//! 3-D space-filling curves for spatial packing.
//!
//! The Hilbert R-tree baseline (\[12\] in the paper) orders elements by the
//! Hilbert value of their MBR center before packing consecutive elements
//! onto leaf pages; §V-B.3 also references Z-order (Morton) packing as the
//! locality-inferior alternative. This crate implements both curves for
//! 3-D coordinates:
//!
//! * [`hilbert::hilbert_index`] / [`hilbert::hilbert_point`] — the Hilbert
//!   curve via Skilling's transpose algorithm (arbitrary order up to 21 bits
//!   per dimension so the key fits in a `u64`).
//! * [`morton::morton_index`] / [`morton::morton_point`] — Z-order by bit
//!   interleaving.
//!
//! Both operate on *discretized* coordinates; [`Discretizer`] maps `f64`
//! points in a domain onto the integer lattice.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod hilbert;
pub mod morton;

/// Maps continuous coordinates in a domain onto the `[0, 2^order)` integer
/// lattice used by the curves.
///
/// The mapping is monotone per axis and clamps out-of-domain points to the
/// lattice boundary, so nearby points receive nearby lattice cells.
#[derive(Debug, Clone, Copy)]
pub struct Discretizer {
    min: [f64; 3],
    scale: [f64; 3],
    max_cell: u32,
    order: u32,
}

impl Discretizer {
    /// Creates a discretizer for the axis-aligned domain `[min, max]` with
    /// `order` bits of resolution per dimension.
    ///
    /// # Panics
    /// Panics if `order` is 0 or exceeds 21 (the largest order for which a
    /// 3-D curve key fits in a `u64`), or if the domain is inverted.
    pub fn new(min: [f64; 3], max: [f64; 3], order: u32) -> Discretizer {
        assert!(
            (1..=21).contains(&order),
            "order must be in 1..=21, got {order}"
        );
        let max_cell = (1u32 << order) - 1;
        let mut scale = [0.0; 3];
        for d in 0..3 {
            assert!(
                max[d] >= min[d],
                "inverted domain on axis {d}: [{}, {}]",
                min[d],
                max[d]
            );
            let extent = max[d] - min[d];
            // A degenerate axis maps everything to cell 0.
            scale[d] = if extent > 0.0 {
                (max_cell as f64 + 1.0) / extent
            } else {
                0.0
            };
        }
        Discretizer {
            min,
            scale,
            max_cell,
            order,
        }
    }

    /// The lattice order (bits per dimension).
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Maps a point to its lattice cell.
    pub fn cell(&self, p: [f64; 3]) -> [u32; 3] {
        let mut c = [0u32; 3];
        for d in 0..3 {
            let v = (p[d] - self.min[d]) * self.scale[d];
            c[d] = if v <= 0.0 {
                0
            } else if v >= self.max_cell as f64 {
                self.max_cell
            } else {
                v as u32
            };
        }
        c
    }

    /// Hilbert key of a point (convenience composition with
    /// [`hilbert::hilbert_index`]).
    pub fn hilbert_key(&self, p: [f64; 3]) -> u64 {
        hilbert::hilbert_index(self.cell(p), self.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discretizer_maps_corners_to_extreme_cells() {
        let d = Discretizer::new([0.0; 3], [10.0; 3], 8);
        assert_eq!(d.cell([0.0; 3]), [0; 3]);
        assert_eq!(d.cell([10.0; 3]), [255; 3]);
        assert_eq!(d.cell([-5.0, 20.0, 5.0]), [0, 255, 128]);
    }

    #[test]
    fn discretizer_is_monotone_per_axis() {
        let d = Discretizer::new([0.0; 3], [1.0; 3], 10);
        let mut prev = 0;
        for i in 0..=100 {
            let c = d.cell([i as f64 / 100.0, 0.0, 0.0])[0];
            assert!(c >= prev, "cell went backwards at step {i}");
            prev = c;
        }
    }

    #[test]
    fn degenerate_axis_maps_to_zero() {
        let d = Discretizer::new([0.0, 0.0, 5.0], [1.0, 1.0, 5.0], 8);
        assert_eq!(d.cell([0.5, 0.5, 5.0])[2], 0);
    }

    #[test]
    #[should_panic(expected = "order must be in 1..=21")]
    fn order_zero_rejected() {
        let _ = Discretizer::new([0.0; 3], [1.0; 3], 0);
    }

    #[test]
    #[should_panic(expected = "order must be in 1..=21")]
    fn order_too_large_rejected() {
        let _ = Discretizer::new([0.0; 3], [1.0; 3], 22);
    }

    #[test]
    fn keys_fit_in_u64_at_max_order() {
        let d = Discretizer::new([0.0; 3], [1.0; 3], 21);
        // The largest cell yields the largest key; 3 × 21 = 63 bits.
        let k = d.hilbert_key([1.0; 3]);
        assert!(k < 1u64 << 63);
    }
}
