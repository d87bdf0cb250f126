//! [`SpatialIndex`]: one trait over FLAT, the delta layer and the R-tree
//! baselines.
//!
//! The paper evaluates one index against R-tree baselines over one storage
//! substrate, and this workspace reproduces that as separate concrete
//! types: [`FlatIndex`], [`DeltaIndex`] and [`flat_rtree::RTree`]. Every
//! driver that compares them — the differential equivalence tests, the
//! benchmark harness, the examples — used to hand-roll one code path per
//! type. `SpatialIndex` is the common surface: *build* from an entry set,
//! *range query*, *k-nearest-neighbor query*, and *stats*, all returning
//! the façade's [`FlatError`]. Generic drivers (`fn f<I: SpatialIndex>`)
//! then run unchanged over any index kind.
//!
//! Query results are exactly what the concrete entry points return: the
//! trait adds no translation layer, so a generic driver observes the same
//! bits as a hand-written one (the property the cross-index equivalence
//! tests lean on).

use crate::delta::DeltaIndex;
use crate::error::FlatError;
use crate::index::{FlatIndex, FlatOptions};
use crate::knn::{MinKey, Neighbor, TopK};
use flat_geom::{Aabb, Point3};
use flat_rtree::node::{decode_inner, decode_leaf};
use flat_rtree::{BulkLoad, Entry, Hit, LeafLayout, RTree, RTreeConfig};
use flat_storage::{PageRead, PageWrite, StorageError, PAGE_SIZE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Size and composition of an index, uniform across kinds.
///
/// `data_pages` are the element-bearing pages (FLAT object pages, R-tree
/// leaves); `overhead_pages` is everything else (R-tree directory, FLAT
/// seed tree + metadata) — the split behind the paper's Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Human-readable index kind (e.g. `"FLAT"`, `"STR R-Tree"`).
    pub kind: &'static str,
    /// Indexed (live) elements.
    pub num_elements: u64,
    /// Element-bearing pages.
    pub data_pages: u64,
    /// Directory / metadata pages.
    pub overhead_pages: u64,
}

impl IndexStats {
    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.data_pages + self.overhead_pages) * PAGE_SIZE as u64
    }

    /// Bytes in element-bearing pages.
    pub fn data_bytes(&self) -> u64 {
        self.data_pages * PAGE_SIZE as u64
    }

    /// Bytes in directory / metadata pages.
    pub fn overhead_bytes(&self) -> u64 {
        self.overhead_pages * PAGE_SIZE as u64
    }
}

/// A disk-resident spatial index: build once, query shared.
///
/// Implemented by [`FlatIndex`] (the paper's contribution), [`DeltaIndex`]
/// (the mutable extension) and [`flat_rtree::RTree`] (every bulkload
/// variant, selected by [`RTreeBuildOptions`]). All methods follow the
/// workspace-wide access split: building takes `&mut impl PageWrite`,
/// queries take `&impl PageRead`.
pub trait SpatialIndex {
    /// Build-time configuration ([`FlatOptions`] for FLAT and delta,
    /// [`RTreeBuildOptions`] for the R-trees).
    type BuildOptions: Clone + Default;

    /// Bulk-loads an index over `entries` into `pool`.
    ///
    /// The pool must be readable as well as writable: some implementors
    /// (the delta layer) scan their freshly written pages into resident
    /// tables as part of construction. Both [`flat_storage::BufferPool`]
    /// and [`flat_storage::ConcurrentBufferPool`] qualify.
    fn build_index(
        pool: &mut (impl PageRead + PageWrite),
        entries: Vec<Entry>,
        options: Self::BuildOptions,
    ) -> Result<Self, FlatError>
    where
        Self: Sized;

    /// Every (live) element whose MBR intersects `query` — identical to
    /// the concrete type's own range entry point.
    fn range(&self, pool: &impl PageRead, query: &Aabb) -> Result<Vec<Hit>, FlatError>;

    /// The `k` (live) elements nearest to `point` by minimum MBR
    /// distance, ascending, exact.
    fn nearest(
        &self,
        pool: &impl PageRead,
        point: Point3,
        k: usize,
    ) -> Result<Vec<Neighbor>, FlatError>;

    /// Size and composition.
    fn index_stats(&self) -> IndexStats;
}

impl SpatialIndex for FlatIndex {
    type BuildOptions = FlatOptions;

    fn build_index(
        pool: &mut (impl PageRead + PageWrite),
        entries: Vec<Entry>,
        options: FlatOptions,
    ) -> Result<FlatIndex, FlatError> {
        let (index, _) = FlatIndex::build(pool, entries, options)?;
        Ok(index)
    }

    fn range(&self, pool: &impl PageRead, query: &Aabb) -> Result<Vec<Hit>, FlatError> {
        Ok(self.range_query(pool, query)?)
    }

    fn nearest(
        &self,
        pool: &impl PageRead,
        point: Point3,
        k: usize,
    ) -> Result<Vec<Neighbor>, FlatError> {
        Ok(self.knn_query(pool, point, k)?)
    }

    fn index_stats(&self) -> IndexStats {
        IndexStats {
            kind: "FLAT",
            num_elements: self.num_elements(),
            data_pages: self.num_object_pages(),
            overhead_pages: self.num_meta_pages() + self.num_seed_inner_pages(),
        }
    }
}

impl SpatialIndex for DeltaIndex {
    type BuildOptions = FlatOptions;

    /// Builds a pristine base and adopts it as a (not yet mutated) delta
    /// index. The delta layer needs stable element ids and a fixed tiling
    /// domain, so the options are normalized first: the layout is forced
    /// to [`LeafLayout::WithIds`] and a missing domain defaults to the
    /// union of the entry MBRs (the same default the bulkload itself
    /// applies, so the tiling is unchanged).
    fn build_index(
        pool: &mut (impl PageRead + PageWrite),
        entries: Vec<Entry>,
        options: FlatOptions,
    ) -> Result<DeltaIndex, FlatError> {
        let options = FlatOptions {
            layout: LeafLayout::WithIds,
            domain: Some(
                options
                    .domain
                    .unwrap_or_else(|| Aabb::union_all(entries.iter().map(|e| e.mbr))),
            ),
            ..options
        };
        let (base, _) = FlatIndex::build(pool, entries, options)?;
        Ok(DeltaIndex::new(&*pool, base, options)?)
    }

    fn range(&self, pool: &impl PageRead, query: &Aabb) -> Result<Vec<Hit>, FlatError> {
        Ok(self.range_query(pool, query)?)
    }

    fn nearest(
        &self,
        pool: &impl PageRead,
        point: Point3,
        k: usize,
    ) -> Result<Vec<Neighbor>, FlatError> {
        Ok(self.knn_query(pool, point, k)?)
    }

    fn index_stats(&self) -> IndexStats {
        IndexStats {
            kind: "FLAT+delta",
            num_elements: self.num_live_elements(),
            data_pages: self.num_live_partitions() as u64,
            overhead_pages: self.num_meta_pages() + self.num_seed_inner_pages(),
        }
    }
}

/// Build options for the [`SpatialIndex`] impl of [`RTree`]: the bulkload
/// packing strategy plus the shared R-tree configuration.
#[derive(Debug, Clone, Copy)]
pub struct RTreeBuildOptions {
    /// Packing strategy (STR by default).
    pub method: BulkLoad,
    /// Node layout and page-kind accounting.
    pub config: RTreeConfig,
}

impl Default for RTreeBuildOptions {
    fn default() -> Self {
        RTreeBuildOptions {
            method: BulkLoad::Str,
            config: RTreeConfig::default(),
        }
    }
}

impl From<BulkLoad> for RTreeBuildOptions {
    fn from(method: BulkLoad) -> Self {
        RTreeBuildOptions {
            method,
            ..RTreeBuildOptions::default()
        }
    }
}

impl SpatialIndex for RTree {
    type BuildOptions = RTreeBuildOptions;

    fn build_index(
        pool: &mut (impl PageRead + PageWrite),
        entries: Vec<Entry>,
        options: RTreeBuildOptions,
    ) -> Result<RTree, FlatError> {
        Ok(RTree::bulk_load(
            pool,
            entries,
            options.method,
            options.config,
        )?)
    }

    fn range(&self, pool: &impl PageRead, query: &Aabb) -> Result<Vec<Hit>, FlatError> {
        Ok(self.range_query(pool, query)?)
    }

    /// Exact best-first kNN over the R-tree — the classical
    /// branch-and-bound descent (expand the node nearest to the query
    /// point, prune with the running k-th distance). The R-tree baselines
    /// had no kNN path of their own before this trait; results match
    /// FLAT's [`FlatIndex::knn_query`] element-for-element (asserted by
    /// the cross-index equivalence tests), with the same deterministic
    /// tie-break by physical location at the k-th distance.
    fn nearest(
        &self,
        pool: &impl PageRead,
        point: Point3,
        k: usize,
    ) -> Result<Vec<Neighbor>, FlatError> {
        Ok(rtree_knn(self, pool, point, k)?)
    }

    fn index_stats(&self) -> IndexStats {
        IndexStats {
            kind: match self.config().layout {
                LeafLayout::MbrOnly => "R-Tree",
                LeafLayout::WithIds => "R-Tree (ids)",
            },
            num_elements: self.num_elements(),
            data_pages: self.num_leaf_pages(),
            overhead_pages: self.num_inner_pages(),
        }
    }
}

/// Best-first kNN descent over an R-tree.
fn rtree_knn(
    tree: &RTree,
    pool: &impl PageRead,
    point: Point3,
    k: usize,
) -> Result<Vec<Neighbor>, StorageError> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let Some(root) = tree.root() else {
        return Ok(Vec::new());
    };
    let config = *tree.config();

    // The same accumulator — hence the same tie rule at the k-th distance
    // — as FLAT's kNN.
    let mut best = TopK::new(k);
    // Frontier of (min distance, node, level); 1 = leaf level.
    let mut frontier: BinaryHeap<Reverse<(MinKey, u64, u32)>> = BinaryHeap::new();
    frontier.push(Reverse((MinKey(0.0), root.0, tree.height())));
    while let Some(Reverse((MinKey(dist), page_id, level))) = frontier.pop() {
        // Everything else on the frontier is at least this far away.
        if dist > best.bound() {
            break;
        }
        let page_id = flat_storage::PageId(page_id);
        if level == 1 {
            let page = pool.read_page(page_id, config.leaf_kind)?;
            let (layout, entries) = decode_leaf(&page)?;
            for (slot, entry) in entries.iter().enumerate() {
                let id = match layout {
                    LeafLayout::MbrOnly => (page_id.0 << 16) | entry.id,
                    LeafLayout::WithIds => entry.id,
                };
                let hit = Hit {
                    mbr: entry.mbr,
                    id,
                    page: page_id,
                    slot: slot as u16,
                };
                best.offer(hit, entry.mbr.distance_sq_to_point(&point));
            }
        } else {
            let page = pool.read_page(page_id, config.inner_kind)?;
            for child in decode_inner(&page)? {
                let key = child.mbr.distance_sq_to_point(&point);
                if key <= best.bound() {
                    frontier.push(Reverse((MinKey(key), child.page.0, level - 1)));
                }
            }
        }
    }

    Ok(best.into_neighbors())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::random_entries;
    use flat_storage::{BufferPool, MemStore};

    /// Sorted MBR bit-keys — layout-independent result identity.
    fn keys(hits: &[Hit]) -> Vec<[u64; 6]> {
        let mut keys: Vec<[u64; 6]> = hits
            .iter()
            .map(|h| {
                [
                    h.mbr.min.x.to_bits(),
                    h.mbr.min.y.to_bits(),
                    h.mbr.min.z.to_bits(),
                    h.mbr.max.x.to_bits(),
                    h.mbr.max.y.to_bits(),
                    h.mbr.max.z.to_bits(),
                ]
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    fn generic_roundtrip<I: SpatialIndex>(options: I::BuildOptions) -> (usize, Vec<[u64; 6]>) {
        let entries = random_entries(8_000, 91);
        let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
        let index = I::build_index(&mut pool, entries, options).expect("build");
        let stats = index.index_stats();
        assert_eq!(stats.num_elements, 8_000);
        assert!(stats.data_pages > 0);
        assert_eq!(
            stats.size_bytes(),
            stats.data_bytes() + stats.overhead_bytes()
        );
        let q = Aabb::cube(flat_geom::Point3::splat(50.0), 14.0);
        let hits = index.range(&pool, &q).expect("range");
        let knn = index
            .nearest(&pool, flat_geom::Point3::splat(50.0), 25)
            .expect("nearest");
        assert_eq!(knn.len(), 25);
        assert!(knn.windows(2).all(|w| w[0].dist_sq <= w[1].dist_sq));
        (knn.len(), keys(&hits))
    }

    #[test]
    fn all_implementors_agree_through_the_trait() {
        let flat = generic_roundtrip::<FlatIndex>(FlatOptions::default());
        let delta = generic_roundtrip::<DeltaIndex>(FlatOptions::default());
        assert_eq!(flat, delta, "delta diverged from FLAT");
        for method in [
            BulkLoad::Str,
            BulkLoad::Hilbert,
            BulkLoad::PrTree,
            BulkLoad::Tgs,
        ] {
            let rt = generic_roundtrip::<RTree>(method.into());
            assert_eq!(flat, rt, "{method:?} diverged from FLAT");
        }
    }

    #[test]
    fn rtree_knn_matches_brute_force() {
        let entries = random_entries(12_000, 92);
        let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
        let tree = RTree::bulk_load(
            &mut pool,
            entries.clone(),
            BulkLoad::Hilbert,
            RTreeConfig::default(),
        )
        .unwrap();
        for (p, k) in [
            (Point3::splat(50.0), 1),
            (Point3::new(10.0, 90.0, 40.0), 17),
            (Point3::new(-200.0, 50.0, 500.0), 64), // far outside
        ] {
            let got = tree.nearest(&pool, p, k).unwrap();
            let mut expected: Vec<f64> = entries
                .iter()
                .map(|e| e.mbr.distance_sq_to_point(&p))
                .collect();
            expected.sort_by(|a, b| a.total_cmp(b));
            expected.truncate(k);
            let got_dists: Vec<f64> = got.iter().map(|n| n.dist_sq).collect();
            assert_eq!(got_dists, expected, "k={k} at {p}");
        }
    }

    #[test]
    fn rtree_knn_edge_cases() {
        let mut pool = BufferPool::new(MemStore::new(), 16);
        let empty =
            RTree::bulk_load(&mut pool, Vec::new(), BulkLoad::Str, RTreeConfig::default()).unwrap();
        assert!(empty.nearest(&pool, Point3::ORIGIN, 5).unwrap().is_empty());

        let entries = random_entries(300, 93);
        let mut pool = BufferPool::new(MemStore::new(), 1 << 12);
        let tree = RTree::bulk_load(
            &mut pool,
            entries.clone(),
            BulkLoad::Str,
            RTreeConfig::default(),
        )
        .unwrap();
        assert!(tree.nearest(&pool, Point3::ORIGIN, 0).unwrap().is_empty());
        // k beyond the dataset returns everything.
        let all = tree.nearest(&pool, Point3::splat(50.0), 10_000).unwrap();
        assert_eq!(all.len(), entries.len());
    }
}
