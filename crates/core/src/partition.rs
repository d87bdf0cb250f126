//! Algorithm 1, part one: STR partitioning with tiling partition MBRs.
//!
//! The paper's Algorithm 1 sorts the elements on the x coordinate of their
//! centers, cuts them into `pn = ⌈(n/pagesize)^(1/3)⌉` slabs, re-sorts and
//! cuts each slab along y, then along z, producing one partition (= one
//! object page) per final chunk. Two properties must hold for the crawl
//! phase to be correct (§V-A, §VI):
//!
//! 1. **No empty space** — the union of all partition MBRs covers the whole
//!    domain. We guarantee this constructively: slab/run/chunk boundaries
//!    are planes spanning the *entire* domain cross-section, so the tiles
//!    form a gap-free hierarchical grid.
//! 2. **Partition MBR ⊇ page MBR** — each tile is stretched to contain the
//!    tight bounding box of its elements (elements can straddle tile
//!    boundaries because tiles cut by *centers*).

use flat_geom::{Aabb, Axis};
use flat_rtree::Entry;

/// One partition: the elements of one object page plus the two MBRs FLAT
/// stores for it.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Elements assigned to this partition (at most the page capacity).
    pub elements: Vec<Entry>,
    /// Tight bounding box of `elements` — the *page MBR*.
    pub page_mbr: Aabb,
    /// The space tile, stretched to contain `page_mbr` — the *partition
    /// MBR*.
    pub partition_mbr: Aabb,
}

/// Splits sorted `items` into `parts` consecutive chunks of near-equal
/// size, returning the chunk boundaries as center-coordinate cut planes.
///
/// Returns `(chunks, cuts)` where `cuts[i]` separates chunk `i` from chunk
/// `i+1` (a value between the two adjacent centers).
fn chop(mut items: Vec<Entry>, axis: Axis, chunk_size: usize) -> (Vec<Vec<Entry>>, Vec<f64>) {
    items.sort_by(|a, b| {
        a.mbr
            .center()
            .coord(axis)
            .total_cmp(&b.mbr.center().coord(axis))
            .then_with(|| a.id.cmp(&b.id))
    });
    let mut chunks = Vec::new();
    let mut cuts = Vec::new();
    let mut iter = items.into_iter().peekable();
    loop {
        let chunk: Vec<Entry> = iter.by_ref().take(chunk_size).collect();
        let Some(last) = chunk.last() else {
            break;
        };
        if let Some(next) = iter.peek() {
            let last = last.mbr.center().coord(axis);
            let first = next.mbr.center().coord(axis);
            cuts.push((last + first) / 2.0);
        }
        chunks.push(chunk);
    }
    (chunks, cuts)
}

/// One tile of a cut sequence: spans `bounds` except along `axis`, where
/// it covers `[lo, hi]` (clamped so degenerate cut orders still yield a
/// valid box). Shared by [`partition`] and the bulkload so both produce
/// bit-identical tiles.
pub(crate) fn axis_tile(bounds: &Aabb, axis: Axis, lo: f64, hi: f64) -> Aabb {
    let mut tile = *bounds;
    tile.min = tile.min.with_coord(axis, lo.min(hi));
    tile.max = tile.max.with_coord(axis, hi.max(lo));
    tile
}

/// Builds the tile boxes for a sequence of chunks cut along `axis` within
/// `bounds`: tile `i` spans `bounds` except along `axis`, where it covers
/// `[cut[i-1], cut[i]]` (domain edges at the ends).
fn tiles_for(bounds: &Aabb, axis: Axis, cuts: &[f64], count: usize) -> Vec<Aabb> {
    debug_assert_eq!(cuts.len() + 1, count);
    let mut tiles = Vec::with_capacity(count);
    let mut lo = bounds.min.coord(axis);
    for i in 0..count {
        let hi = if i < cuts.len() {
            cuts[i]
        } else {
            bounds.max.coord(axis)
        };
        tiles.push(axis_tile(bounds, axis, lo, hi));
        lo = hi;
    }
    tiles
}

/// The STR layout parameters for `n` elements: `(pn, slab_size)` where
/// `pn = ⌈(n/capacity)^⅓⌉` is the partition count per dimension and
/// `slab_size = ⌈n / pn⌉` the number of elements per x-slab (Algorithm 1).
pub(crate) fn partition_plan(n: usize, capacity: usize) -> (usize, usize) {
    let pages = n.div_ceil(capacity);
    let pn = (pages as f64).cbrt().ceil() as usize;
    (pn, n.div_ceil(pn))
}

/// Partitions one x-slab (entries already restricted to the slab, in
/// global x order) into its y-runs and z-chunks, appending the resulting
/// partitions to `out` in final partition order.
///
/// This is the per-slab core of Algorithm 1, shared verbatim by
/// [`partition`] (all slabs resident — how the update layer tiles an
/// insert batch) and the bulkload (one slab resident at a time), so a
/// batch is tiled exactly as a build over the same entries would be.
pub(crate) fn partition_slab(
    slab: Vec<Entry>,
    x_tile: Aabb,
    pn: usize,
    capacity: usize,
    out: &mut Vec<Partition>,
) {
    let run_size = slab.len().div_ceil(pn);
    let (runs, y_cuts) = chop(slab, Axis::Y, run_size);
    let y_tiles = tiles_for(&x_tile, Axis::Y, &y_cuts, runs.len());

    for (run, y_tile) in runs.into_iter().zip(y_tiles) {
        // The final cut uses the page capacity directly, so partitions
        // never exceed it even when the ceiling arithmetic above is
        // loose.
        let (chunks, z_cuts) = chop(run, Axis::Z, capacity);
        let z_tiles = tiles_for(&y_tile, Axis::Z, &z_cuts, chunks.len());

        for (chunk, z_tile) in chunks.into_iter().zip(z_tiles) {
            let page_mbr = Aabb::union_all(chunk.iter().map(|e| e.mbr));
            let mut partition_mbr = z_tile;
            // Algorithm 1: "stretch partitionMBR to contain pageMBR".
            partition_mbr.stretch_to_contain(&page_mbr);
            out.push(Partition {
                elements: chunk,
                page_mbr,
                partition_mbr,
            });
        }
    }
}

/// Runs the paper's Algorithm 1 partitioning step.
///
/// * `capacity` — maximum elements per partition (the object-page
///   capacity; 85 for the paper's layout).
/// * `domain` — the space the tiling must cover. Defaults to the union of
///   all element MBRs. Queries outside the domain may crawl incompletely,
///   so pass the full dataset domain when elements do not span it.
///
/// The neighbor relation over the result is computed by
/// [`crate::neighbors::NeighborSweep`].
///
/// # Panics
/// Panics if `capacity` is zero.
pub fn partition(entries: Vec<Entry>, capacity: usize, domain: Option<Aabb>) -> Vec<Partition> {
    assert!(capacity > 0, "partition capacity must be positive");
    if entries.is_empty() {
        return Vec::new();
    }
    let bounds = domain.unwrap_or_else(|| Aabb::union_all(entries.iter().map(|e| e.mbr)));
    let n = entries.len();
    // pn partitions per dimension (Algorithm 1: pn = ⌈(size/pagesize)^⅓⌉).
    let (pn, slab_size) = partition_plan(n, capacity);

    let mut partitions = Vec::with_capacity(n.div_ceil(capacity));

    let (slabs, x_cuts) = chop(entries, Axis::X, slab_size);
    let x_tiles = tiles_for(&bounds, Axis::X, &x_cuts, slabs.len());

    for (slab, x_tile) in slabs.into_iter().zip(x_tiles) {
        partition_slab(slab, x_tile, pn, capacity, &mut partitions);
    }
    partitions
}

/// One coarse x-slab of the domain, assigned to one serving shard (see
/// [`crate::ShardedDb`]).
#[derive(Debug, Clone)]
pub(crate) struct ShardRegion {
    /// Elements owned by this shard.
    pub elements: Vec<Entry>,
    /// The shard's x-slab tile. Tiles are gap-free across shards: their
    /// union is exactly the domain.
    pub tile: Aabb,
    /// `tile` stretched to contain every owned element's MBR — the shard's
    /// *coverage*, which query routing tests against (elements can straddle
    /// tile boundaries because tiles cut by centers, exactly as in
    /// Algorithm 1).
    pub coverage: Aabb,
}

/// Splits `entries` into exactly `k` coarse x-slabs for the sharded
/// serving layer, reusing the STR machinery of Algorithm 1 at shard
/// granularity: `chop` by center-x for near-equal element counts, tile
/// boundaries midway between adjacent centers, and `partition_slab` to
/// derive each shard's stretched coverage box.
///
/// Always returns `k` regions. When the data yields fewer populated slabs
/// than `k` (fewer elements than shards, or heavily duplicated centers),
/// the remainder are empty shards with a degenerate tile at the domain's
/// upper x face — keeping shard identity stable for any requested `k`.
///
/// # Panics
/// Panics if `k` is zero.
pub(crate) fn shard_regions(entries: Vec<Entry>, k: usize, domain: &Aabb) -> Vec<ShardRegion> {
    assert!(k > 0, "shard count must be positive");
    if entries.is_empty() {
        // k equal x-slabs; coverage equals the bare tile.
        let lo = domain.min.coord(Axis::X);
        let hi = domain.max.coord(Axis::X);
        return (0..k)
            .map(|i| {
                let a = lo + (hi - lo) * i as f64 / k as f64;
                let b = if i + 1 == k {
                    hi
                } else {
                    lo + (hi - lo) * (i + 1) as f64 / k as f64
                };
                let tile = axis_tile(domain, Axis::X, a, b);
                ShardRegion {
                    elements: Vec::new(),
                    tile,
                    coverage: tile,
                }
            })
            .collect();
    }
    let chunk = entries.len().div_ceil(k);
    let (slabs, cuts) = chop(entries, Axis::X, chunk);
    let tiles = tiles_for(domain, Axis::X, &cuts, slabs.len());
    let mut regions: Vec<ShardRegion> = slabs
        .into_iter()
        .zip(tiles)
        .map(|(slab, tile)| {
            // One degenerate partition per slab (pn = 1, capacity = slab
            // size) reuses the tiling core to compute the stretched MBR.
            let mut parts = Vec::new();
            let len = slab.len();
            partition_slab(slab, tile, 1, len, &mut parts);
            // Proof: `chop` yields no empty chunk, and with `pn = 1` and a
            // capacity of the whole slab `partition_slab` cuts one run of
            // one chunk — exactly one partition.
            #[allow(clippy::expect_used)]
            let part = parts.pop().expect("non-empty slab yields one partition");
            debug_assert!(parts.is_empty());
            ShardRegion {
                elements: part.elements,
                tile,
                coverage: part.partition_mbr,
            }
        })
        .collect();
    while regions.len() < k {
        let hi = domain.max.coord(Axis::X);
        let tile = axis_tile(domain, Axis::X, hi, hi);
        regions.push(ShardRegion {
            elements: Vec::new(),
            tile,
            coverage: tile,
        });
    }
    regions
}

/// Verifies the global *no empty space* property: every probe point of a
/// regular `steps³` grid over `domain` must fall inside at least one
/// partition MBR. Used by tests (a full coverage proof would be an
/// arrangement computation; a dense probe grid catches real gaps reliably).
pub fn verify_tiling(partitions: &[Partition], domain: &Aabb, steps: usize) -> Result<(), String> {
    let e = domain.extents();
    for i in 0..steps {
        for j in 0..steps {
            for k in 0..steps {
                let p = flat_geom::Point3::new(
                    domain.min.x + e.x * (i as f64 + 0.5) / steps as f64,
                    domain.min.y + e.y * (j as f64 + 0.5) / steps as f64,
                    domain.min.z + e.z * (k as f64 + 0.5) / steps as f64,
                );
                if !partitions
                    .iter()
                    .any(|part| part.partition_mbr.contains_point(&p))
                {
                    return Err(format!("probe point {p} is not covered by any partition"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_geom::Point3;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_entries(n: usize, seed: u64) -> Vec<Entry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                Entry::new(
                    i as u64,
                    Aabb::centered(c, Point3::splat(rng.gen_range(0.01..0.8))),
                )
            })
            .collect()
    }

    #[test]
    fn partitions_respect_capacity_and_lose_nothing() {
        let entries = random_entries(10_000, 1);
        let parts = partition(entries.clone(), 85, None);
        let mut ids = Vec::new();
        for p in &parts {
            assert!(!p.elements.is_empty());
            assert!(p.elements.len() <= 85);
            ids.extend(p.elements.iter().map(|e| e.id));
        }
        ids.sort_unstable();
        let expected: Vec<u64> = (0..10_000).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn partition_count_is_near_minimal() {
        let entries = random_entries(10_000, 2);
        let parts = partition(entries, 85, None);
        let min = 10_000usize.div_ceil(85);
        assert!(parts.len() >= min);
        assert!(
            parts.len() <= min + min / 2,
            "{} partitions for minimum {min}",
            parts.len()
        );
    }

    #[test]
    fn both_invariants_hold_per_partition() {
        let entries = random_entries(5000, 3);
        let parts = partition(entries, 85, None);
        // Each partition in isolation; the global no-empty-space property
        // is checked by `verify_tiling`.
        for (i, p) in parts.iter().enumerate() {
            assert!(
                p.partition_mbr.contains(&p.page_mbr)
                    && p.elements.iter().all(|e| p.page_mbr.contains(&e.mbr)),
                "partition {i} violates invariants"
            );
        }
    }

    #[test]
    fn tiling_covers_the_domain() {
        let entries = random_entries(5000, 4);
        let domain = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
        let parts = partition(entries, 85, Some(domain));
        verify_tiling(&parts, &domain, 12).unwrap();
    }

    #[test]
    fn tiling_covers_even_with_clustered_data() {
        // All data in one corner: tiles must still span the full domain.
        let mut rng = StdRng::seed_from_u64(5);
        let entries: Vec<Entry> = (0..2000)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(0.0..5.0),
                    rng.gen_range(0.0..5.0),
                    rng.gen_range(0.0..5.0),
                );
                Entry::new(i, Aabb::cube(c, 0.1))
            })
            .collect();
        let domain = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
        let parts = partition(entries, 50, Some(domain));
        verify_tiling(&parts, &domain, 10).unwrap();
    }

    #[test]
    fn straddling_elements_force_stretching() {
        // Big elements guarantee page MBRs poke out of their tiles, so
        // stretching must kick in and keep invariant 2.
        let mut rng = StdRng::seed_from_u64(6);
        let entries: Vec<Entry> = (0..3000)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                Entry::new(i, Aabb::cube(c, 10.0))
            })
            .collect();
        let parts = partition(entries, 40, None);
        assert!(parts.iter().all(|p| p.partition_mbr.contains(&p.page_mbr)));
        // At least one partition must actually have stretched beyond its
        // tile (page MBR wider than the tile's share of space).
        let total_tile_volume: f64 = parts.iter().map(|p| p.partition_mbr.volume()).sum();
        let domain_volume = Aabb::union_all(parts.iter().map(|p| p.partition_mbr)).volume();
        assert!(
            total_tile_volume > domain_volume * 1.01,
            "no overlap ⇒ nothing stretched"
        );
    }

    #[test]
    fn single_partition_for_small_input() {
        let entries = random_entries(10, 7);
        let parts = partition(entries, 85, None);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].elements.len(), 10);
    }

    #[test]
    fn empty_input_gives_no_partitions() {
        assert!(partition(Vec::new(), 85, None).is_empty());
    }

    #[test]
    fn duplicate_centers_are_partitioned_deterministically() {
        let entries: Vec<Entry> = (0..500)
            .map(|i| Entry::new(i, Aabb::cube(Point3::splat(5.0), 1.0)))
            .collect();
        let a = partition(entries.clone(), 85, None);
        let b = partition(entries, 85, None);
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(b.iter()) {
            let ia: Vec<u64> = pa.elements.iter().map(|e| e.id).collect();
            let ib: Vec<u64> = pb.elements.iter().map(|e| e.id).collect();
            assert_eq!(ia, ib);
        }
    }

    #[test]
    fn shard_regions_tile_the_domain_and_lose_nothing() {
        let entries = random_entries(4000, 8);
        let domain = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
        let regions = shard_regions(entries, 4, &domain);
        assert_eq!(regions.len(), 4);
        // Tiles are contiguous x-slabs spanning the domain.
        assert_eq!(regions[0].tile.min.x, domain.min.x);
        assert_eq!(regions.last().unwrap().tile.max.x, domain.max.x);
        for w in regions.windows(2) {
            assert_eq!(w[0].tile.max.x, w[1].tile.min.x);
        }
        // Element conservation + coverage contains every owned element.
        let mut ids = Vec::new();
        for r in &regions {
            assert!(!r.elements.is_empty());
            assert!(r.coverage.contains(&r.tile));
            for e in &r.elements {
                assert!(r.coverage.contains(&e.mbr));
            }
            ids.extend(r.elements.iter().map(|e| e.id));
        }
        ids.sort_unstable();
        let expected: Vec<u64> = (0..4000).collect();
        assert_eq!(ids, expected);
        // Near-balanced ownership (chop by count).
        let max = regions.iter().map(|r| r.elements.len()).max().unwrap();
        let min = regions.iter().map(|r| r.elements.len()).min().unwrap();
        assert!(max - min <= 1, "unbalanced shards: {min}..{max}");
    }

    #[test]
    fn shard_regions_pad_when_fewer_elements_than_shards() {
        let entries = random_entries(3, 9);
        let domain = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
        let regions = shard_regions(entries, 8, &domain);
        assert_eq!(regions.len(), 8);
        let populated = regions.iter().filter(|r| !r.elements.is_empty()).count();
        assert_eq!(populated, 3);
        for r in regions.iter().filter(|r| r.elements.is_empty()) {
            assert_eq!(r.tile.min.x, r.tile.max.x);
        }
    }

    #[test]
    fn shard_regions_empty_input_gives_even_splits() {
        let domain = Aabb::new(Point3::splat(0.0), Point3::splat(80.0));
        let regions = shard_regions(Vec::new(), 4, &domain);
        assert_eq!(regions.len(), 4);
        for (i, r) in regions.iter().enumerate() {
            assert!(r.elements.is_empty());
            assert_eq!(r.tile.min.x, 20.0 * i as f64);
            assert_eq!(r.tile.max.x, 20.0 * (i + 1) as f64);
            assert_eq!(r.coverage, r.tile);
        }
    }

    #[test]
    fn shard_regions_single_shard_owns_everything() {
        let entries = random_entries(200, 10);
        let domain = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
        let regions = shard_regions(entries, 1, &domain);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].elements.len(), 200);
        assert_eq!(regions[0].tile, domain);
    }

    #[test]
    fn verify_tiling_detects_gaps() {
        // Fabricate a partition set with a hole.
        let domain = Aabb::new(Point3::splat(0.0), Point3::splat(10.0));
        let p = Partition {
            elements: vec![Entry::new(0, Aabb::cube(Point3::splat(1.0), 0.5))],
            page_mbr: Aabb::cube(Point3::splat(1.0), 0.5),
            partition_mbr: Aabb::new(Point3::splat(0.0), Point3::splat(2.0)),
        };
        assert!(verify_tiling(&[p], &domain, 5).is_err());
    }
}
