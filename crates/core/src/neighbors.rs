//! Algorithm 1, part two: neighborhood computation.
//!
//! "All partition MBRs are inserted into a temporary R-Tree, used solely to
//! compute the neighborhood information. Finally, for each partition, a
//! range query with the partition MBR is executed, and all intersecting
//! partitions, the neighbors, are retrieved" (§V-A).
//!
//! Partition `j` is a neighbor of `i` iff `i ≠ j` and their partition MBRs
//! intersect (closed boxes — face-adjacent tiles are neighbors, matching
//! the paper's "adjacent to or overlaps with"). Because partitions tile
//! space with no gaps, this relation makes every spatially connected
//! region's partitions *graph*-connected — the property the range crawl
//! needs to cover a query box from any seed, and the property the kNN
//! crawl (`FlatIndex::knn_query`) needs for its best-first expansion to
//! stay exact: any partition within distance `d` of a query point is
//! reachable through partitions at most `d` away.
//!
//! [`NeighborSweep`] computes exactly the relation the paper's temporary
//! tree would, as a plane sweep over partitions in x order — so the
//! bulkload never holds all partition MBRs. Only the bulkload links
//! partitions: an insert batch's partitions stay out of the graph.

use flat_geom::Aabb;

/// One partition whose neighbor list is complete, emitted by
/// [`NeighborSweep`] when the sweep plane passes the partition's MBR.
#[derive(Debug, Clone)]
pub struct SweptPartition {
    /// Original partition index (position in STR output order).
    pub index: u32,
    /// Tight MBR of the partition's elements.
    pub page_mbr: Aabb,
    /// The (possibly inflated) partition MBR the neighbor relation is
    /// computed on.
    pub partition_mbr: Aabb,
    /// Sorted indices of all neighboring partitions.
    pub neighbors: Vec<u32>,
}

/// Streaming, bounded-memory replacement for the paper's temporary
/// R-tree: an exact plane-sweep intersection join over the partition MBRs.
///
/// Partitions are pushed in nondecreasing order of `partition_mbr.min.x`
/// (the bulkload external-sorts its partition summaries by that key). The
/// sweep keeps an *active window* of partitions whose x-range still covers
/// the sweep plane; each arrival is intersection-tested against the window
/// only, and a partition retires — with its neighbor list complete — as
/// soon as an arrival's `min.x` passes its `max.x`.
///
/// Exactness does not rely on the "neighbors live in adjacent slabs"
/// intuition, which stretching breaks (a partition containing a long
/// element can reach arbitrarily many slabs): two boxes intersect only if
/// their x-ranges overlap, so every intersecting pair is tested while both
/// are in the window, wherever their slabs are. For unstretched tilings
/// the window degenerates to the partitions of two adjacent slabs; its
/// peak size ([`NeighborSweep::peak_window`]) is the builder's
/// O(slab)-partitions memory bound, reported by `exp_build_scale`.
#[derive(Debug, Default)]
pub struct NeighborSweep {
    /// Partitions whose x-range still covers the sweep plane.
    window: Vec<SweptPartition>,
    peak_window: usize,
    last_min_x: Option<f64>,
    total_pointers: u64,
}

impl NeighborSweep {
    /// An empty sweep.
    pub fn new() -> NeighborSweep {
        NeighborSweep::default()
    }

    /// Feeds the next partition (in `partition_mbr.min.x` order, ties in
    /// any order) and appends every partition this arrival retires to
    /// `retired`.
    ///
    /// # Panics
    /// Panics (debug builds) if pushes violate the sweep order.
    pub fn push(
        &mut self,
        index: u32,
        page_mbr: Aabb,
        partition_mbr: Aabb,
        retired: &mut Vec<SweptPartition>,
    ) {
        let min_x = partition_mbr.min.x;
        debug_assert!(
            self.last_min_x.is_none_or(|last| last <= min_x),
            "NeighborSweep pushes must be ordered by partition_mbr.min.x"
        );
        self.last_min_x = Some(min_x);

        // Retire window members the sweep plane has passed: nothing that
        // arrives from here on (min.x ≥ this arrival's) can touch them.
        let mut i = 0;
        while i < self.window.len() {
            if self.window[i].partition_mbr.max.x < min_x {
                let mut done = self.window.swap_remove(i);
                done.neighbors.sort_unstable();
                retired.push(done);
            } else {
                i += 1;
            }
        }

        // Test the arrival against the remaining window.
        let mut arrival = SweptPartition {
            index,
            page_mbr,
            partition_mbr,
            neighbors: Vec::new(),
        };
        for other in &mut self.window {
            if other.partition_mbr.intersects(&arrival.partition_mbr) {
                other.neighbors.push(arrival.index);
                arrival.neighbors.push(other.index);
                self.total_pointers += 2;
            }
        }
        self.window.push(arrival);
        self.peak_window = self.peak_window.max(self.window.len());
    }

    /// Ends the input, retiring every partition still in the window.
    /// Returns the total number of neighbor pointers created.
    pub fn finish(mut self, retired: &mut Vec<SweptPartition>) -> u64 {
        for mut done in self.window.drain(..) {
            done.neighbors.sort_unstable();
            retired.push(done);
        }
        self.total_pointers
    }

    /// Peak number of partitions simultaneously held in the sweep window.
    pub fn peak_window(&self) -> usize {
        self.peak_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition, Partition};
    use flat_geom::Point3;
    use flat_rtree::Entry;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_partitions(side: usize) -> Vec<Partition> {
        // side³ unit tiles forming an exact grid; page MBR = small box in
        // the tile center so no stretching happens.
        let mut parts = Vec::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let min = Point3::new(x as f64, y as f64, z as f64);
                    let tile = Aabb::new(min, min + Point3::splat(1.0));
                    let inner = Aabb::cube(tile.center(), 0.2);
                    parts.push(Partition {
                        elements: vec![Entry::new(0, inner)],
                        page_mbr: inner,
                        partition_mbr: tile,
                    });
                }
            }
        }
        parts
    }

    /// Runs the plane-sweep over `parts` (any order) and returns the
    /// neighbor lists by partition index, plus the pointer total.
    fn sweep_neighbors(parts: &[Partition]) -> (Vec<Vec<u32>>, u64) {
        let mut order: Vec<usize> = (0..parts.len()).collect();
        order.sort_by(|&a, &b| {
            parts[a]
                .partition_mbr
                .min
                .x
                .total_cmp(&parts[b].partition_mbr.min.x)
                .then(a.cmp(&b))
        });
        let mut sweep = NeighborSweep::new();
        let mut retired = Vec::new();
        for &i in &order {
            sweep.push(
                i as u32,
                parts[i].page_mbr,
                parts[i].partition_mbr,
                &mut retired,
            );
        }
        let total = sweep.finish(&mut retired);
        let mut lists = vec![Vec::new(); parts.len()];
        for r in retired {
            lists[r.index as usize] = r.neighbors;
        }
        (lists, total)
    }

    /// The definition, as an O(n²) loop: `j` neighbors `i` iff `i ≠ j` and
    /// the closed partition MBRs intersect.
    fn brute_force_neighbors(parts: &[Partition]) -> Vec<Vec<u32>> {
        (0..parts.len())
            .map(|i| {
                (0..parts.len())
                    .filter(|&j| {
                        j != i && parts[i].partition_mbr.intersects(&parts[j].partition_mbr)
                    })
                    .map(|j| j as u32)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn grid_interior_cell_has_26_neighbors() {
        let (neighbors, _) = sweep_neighbors(&grid_partitions(3));
        let center = 9 + 3 + 1; // cell (1,1,1) in x-major order
        assert_eq!(
            neighbors[center].len(),
            26,
            "3³ grid center touches all others"
        );
        // A corner touches 7 others.
        assert_eq!(neighbors[0].len(), 7);
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(8);
        let entries: Vec<Entry> = (0..5000)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(0.0..50.0),
                    rng.gen_range(0.0..50.0),
                    rng.gen_range(0.0..50.0),
                );
                Entry::new(i, Aabb::cube(c, 0.3))
            })
            .collect();
        let (neighbors, _) = sweep_neighbors(&partition(entries, 85, None));
        for (i, list) in neighbors.iter().enumerate() {
            for &j in list {
                assert!(
                    neighbors[j as usize].contains(&(i as u32)),
                    "asymmetric neighbors: {i} -> {j}"
                );
            }
        }
    }

    #[test]
    fn neighbors_match_brute_force_intersection() {
        let mut rng = StdRng::seed_from_u64(9);
        let entries: Vec<Entry> = (0..2000)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(0.0..30.0),
                    rng.gen_range(0.0..30.0),
                    rng.gen_range(0.0..30.0),
                );
                Entry::new(i, Aabb::cube(c, 0.5))
            })
            .collect();
        let parts = partition(entries, 50, None);
        let (neighbors, _) = sweep_neighbors(&parts);
        assert_eq!(neighbors, brute_force_neighbors(&parts));
    }

    #[test]
    fn no_self_loops() {
        let (neighbors, _) = sweep_neighbors(&grid_partitions(2));
        for (i, list) in neighbors.iter().enumerate() {
            assert!(!list.contains(&(i as u32)));
        }
    }

    #[test]
    fn single_partition_has_no_neighbors() {
        let (neighbors, total) = sweep_neighbors(&grid_partitions(1));
        assert_eq!(total, 0);
        assert!(neighbors[0].is_empty());
    }

    #[test]
    fn empty_input_is_fine() {
        let (neighbors, total) = sweep_neighbors(&[]);
        assert_eq!(total, 0);
        assert!(neighbors.is_empty());
    }

    #[test]
    fn sweep_matches_brute_force_on_mixed_element_sizes() {
        let mut rng = StdRng::seed_from_u64(12);
        let entries: Vec<Entry> = (0..6000)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(0.0..40.0),
                    rng.gen_range(0.0..40.0),
                    rng.gen_range(0.0..40.0),
                );
                Entry::new(i, Aabb::cube(c, rng.gen_range(0.1..0.6)))
            })
            .collect();
        let parts = partition(entries, 85, None);
        let (swept, total_swept) = sweep_neighbors(&parts);
        let expected = brute_force_neighbors(&parts);
        assert_eq!(
            total_swept,
            expected.iter().map(|list| list.len() as u64).sum::<u64>()
        );
        assert_eq!(swept, expected);
    }

    #[test]
    fn sweep_handles_stretched_partitions_spanning_many_slabs() {
        // A few giant elements stretch their partitions across most of the
        // domain in x — the case the naive "adjacent slabs only" shortcut
        // would get wrong.
        let mut rng = StdRng::seed_from_u64(13);
        let entries: Vec<Entry> = (0..3000)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(0.0..60.0),
                    rng.gen_range(0.0..60.0),
                    rng.gen_range(0.0..60.0),
                );
                let side = if i % 151 == 0 { 45.0 } else { 0.4 };
                Entry::new(i, Aabb::cube(c, side))
            })
            .collect();
        let parts = partition(entries, 40, None);
        let (swept, _) = sweep_neighbors(&parts);
        assert_eq!(swept, brute_force_neighbors(&parts));
    }

    #[test]
    fn sweep_window_stays_near_slab_sized_on_compact_data() {
        let mut rng = StdRng::seed_from_u64(14);
        let entries: Vec<Entry> = (0..20_000)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                Entry::new(i, Aabb::cube(c, 0.2))
            })
            .collect();
        let parts = partition(entries, 85, None);
        let mut order: Vec<usize> = (0..parts.len()).collect();
        order.sort_by(|&a, &b| {
            parts[a]
                .partition_mbr
                .min
                .x
                .total_cmp(&parts[b].partition_mbr.min.x)
                .then(a.cmp(&b))
        });
        let mut sweep = NeighborSweep::new();
        let mut retired = Vec::new();
        for &i in &order {
            sweep.push(
                i as u32,
                parts[i].page_mbr,
                parts[i].partition_mbr,
                &mut retired,
            );
        }
        // ~236 partitions in a 7³-ish tiling ⇒ a slab is ~34 partitions;
        // the window holds two adjacent slabs plus stretch stragglers.
        let peak = sweep.peak_window();
        sweep.finish(&mut retired);
        assert_eq!(retired.len(), parts.len());
        assert!(
            peak < parts.len() / 2,
            "window {peak} should be far below {} partitions",
            parts.len()
        );
    }

    #[test]
    fn bigger_partitions_mean_more_pointers() {
        // The Fig 21 mechanism: inflate partition MBRs and the pointer
        // count grows.
        let mut rng = StdRng::seed_from_u64(10);
        let entries: Vec<Entry> = (0..4000)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(0.0..40.0),
                    rng.gen_range(0.0..40.0),
                    rng.gen_range(0.0..40.0),
                );
                Entry::new(i, Aabb::cube(c, 0.2))
            })
            .collect();
        let mut parts = partition(entries, 85, None);
        let (_, total_small) = sweep_neighbors(&parts);
        for p in &mut parts {
            p.partition_mbr = p.partition_mbr.scale_volume(3.0);
        }
        let (_, total_big) = sweep_neighbors(&parts);
        assert!(
            total_big > total_small,
            "inflated partitions must intersect more: {total_big} vs {total_small}"
        );
    }
}
