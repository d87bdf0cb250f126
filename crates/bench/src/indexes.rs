//! Uniform handle over FLAT and the R-tree baselines.
//!
//! Measurement is **generic over [`SpatialIndex`]**: one
//! [`measure_range`] runs the paper's cold-cache protocol for any index
//! kind, and [`BuiltIndex`] only dispatches which concrete index to hand
//! it.

use flat_core::{BuildStats, FlatIndex, FlatOptions, IndexStats, SpatialIndex};
use flat_geom::Aabb;
use flat_rtree::{BulkLoad, Entry, RTree, RTreeConfig};
use flat_storage::{ConcurrentBufferPool, IoStats, MemStore, PageKind};
use std::time::{Duration, Instant};

/// Runs one range query over any index kind under the paper's protocol:
/// caches cleared first, I/O counted from zero. Returns `(result size,
/// I/O delta, CPU time)`.
pub fn measure_range<I: SpatialIndex>(
    index: &I,
    pool: &ConcurrentBufferPool<MemStore>,
    query: &Aabb,
) -> (usize, IoStats, Duration) {
    pool.clear_cache();
    let before = pool.stats();
    let start = Instant::now();
    let results = index
        .range(pool, query)
        .expect("in-memory query cannot fail")
        .len();
    let cpu = start.elapsed();
    (results, pool.stats().since(&before), cpu)
}

/// Which index to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// FLAT (the paper's contribution).
    Flat,
    /// Hilbert-bulkloaded R-tree.
    Hilbert,
    /// STR-bulkloaded R-tree.
    Str,
    /// Priority R-tree.
    PrTree,
    /// TGS R-tree (extension, not in the paper's figures).
    Tgs,
}

impl IndexKind {
    /// The four contenders of the paper's figures, in plotting order.
    pub const PAPER_SET: [IndexKind; 4] = [
        IndexKind::Flat,
        IndexKind::PrTree,
        IndexKind::Str,
        IndexKind::Hilbert,
    ];

    /// The three R-tree baselines.
    pub const RTREE_BASELINES: [IndexKind; 3] =
        [IndexKind::Hilbert, IndexKind::Str, IndexKind::PrTree];

    /// Legend label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            IndexKind::Flat => "FLAT",
            IndexKind::Hilbert => "Hilbert R-Tree",
            IndexKind::Str => "STR R-Tree",
            IndexKind::PrTree => "PR-Tree",
            IndexKind::Tgs => "TGS R-Tree",
        }
    }

    fn bulk(&self) -> Option<BulkLoad> {
        match self {
            IndexKind::Flat => None,
            IndexKind::Hilbert => Some(BulkLoad::Hilbert),
            IndexKind::Str => Some(BulkLoad::Str),
            IndexKind::PrTree => Some(BulkLoad::PrTree),
            IndexKind::Tgs => Some(BulkLoad::Tgs),
        }
    }
}

/// A built index together with its pool and build metadata.
pub struct BuiltIndex {
    /// Which index this is.
    pub kind: IndexKind,
    /// The pool all of the index's pages live in.
    pub pool: ConcurrentBufferPool<MemStore>,
    flat: Option<FlatIndex>,
    rtree: Option<RTree>,
    /// Wall-clock build time.
    pub build_time: Duration,
    /// FLAT's phase breakdown (None for R-trees).
    pub flat_stats: Option<BuildStats>,
}

impl BuiltIndex {
    /// Builds an index of `kind` over `entries` (paper-faithful MbrOnly
    /// layout, 85 elements per page).
    pub fn build(
        kind: IndexKind,
        entries: Vec<Entry>,
        domain: Aabb,
        pool_pages: usize,
    ) -> BuiltIndex {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), pool_pages);
        let start = Instant::now();
        let (flat, rtree, flat_stats) = match kind.bulk() {
            None => {
                let options = FlatOptions {
                    domain: Some(domain),
                    ..FlatOptions::default()
                };
                let (index, stats) = FlatIndex::build(&mut pool, entries, options)
                    .expect("in-memory build cannot fail");
                (Some(index), None, Some(stats))
            }
            Some(method) => {
                let tree = RTree::bulk_load(&mut pool, entries, method, RTreeConfig::default())
                    .expect("in-memory build cannot fail");
                (None, Some(tree), None)
            }
        };
        let build_time = start.elapsed();
        pool.reset_stats();
        pool.clear_cache();
        BuiltIndex {
            kind,
            pool,
            flat,
            rtree,
            build_time,
            flat_stats,
        }
    }

    /// Runs one range query under the paper's protocol, dispatching to
    /// the generic [`measure_range`] driver. Returns `(result size, I/O
    /// delta, CPU time)`.
    ///
    /// Queries are shared reads — `&self` all the way down — so a harness
    /// can interleave measurements without exclusive access.
    pub fn query(&self, query: &Aabb) -> (usize, IoStats, Duration) {
        match (&self.flat, &self.rtree) {
            (Some(flat), None) => measure_range(flat, &self.pool, query),
            (None, Some(tree)) => measure_range(tree, &self.pool, query),
            _ => unreachable!("exactly one index is set"),
        }
    }

    /// Uniform size/composition stats through the [`SpatialIndex`] trait.
    pub fn index_stats(&self) -> IndexStats {
        match (&self.flat, &self.rtree) {
            (Some(flat), None) => flat.index_stats(),
            (None, Some(tree)) => tree.index_stats(),
            _ => unreachable!("exactly one index is set"),
        }
    }

    /// The FLAT index, if this is one.
    pub fn as_flat(&self) -> Option<&FlatIndex> {
        self.flat.as_ref()
    }

    /// The R-tree, if this is one.
    pub fn as_rtree(&self) -> Option<&RTree> {
        self.rtree.as_ref()
    }

    /// Total index size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.index_stats().size_bytes()
    }

    /// Size of the element-bearing pages (object pages / R-tree leaves).
    pub fn data_bytes(&self) -> u64 {
        self.index_stats().data_bytes()
    }

    /// Size of everything else (directory, seed tree, metadata).
    pub fn overhead_bytes(&self) -> u64 {
        self.size_bytes() - self.data_bytes()
    }

    /// Page kinds whose reads count as "overhead" for this index
    /// (directory / seed+metadata), vs the data pages.
    pub fn overhead_kinds(&self) -> &'static [PageKind] {
        match self.kind {
            IndexKind::Flat => &[PageKind::SeedInner, PageKind::SeedLeaf],
            _ => &[PageKind::RTreeInner],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_data::uniform::{uniform_entries, UniformConfig};

    fn sample_entries(n: usize) -> (Vec<Entry>, Aabb) {
        let config = UniformConfig::paper_baseline(n, 3);
        (uniform_entries(&config), config.domain)
    }

    #[test]
    fn all_kinds_build_and_agree_on_results() {
        let (entries, domain) = sample_entries(20_000);
        let query = Aabb::cube(domain.center(), domain.extents().x * 0.2);
        let mut counts = Vec::new();
        for kind in [
            IndexKind::Flat,
            IndexKind::Hilbert,
            IndexKind::Str,
            IndexKind::PrTree,
            IndexKind::Tgs,
        ] {
            let built = BuiltIndex::build(kind, entries.clone(), domain, 1 << 16);
            let (n, io, _) = built.query(&query);
            assert!(io.total_physical_reads() > 0, "{kind:?} read nothing");
            counts.push(n);
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "indexes disagree: {counts:?}"
        );
        assert!(counts[0] > 0);
    }

    #[test]
    fn query_protocol_clears_caches() {
        let (entries, domain) = sample_entries(10_000);
        let built = BuiltIndex::build(IndexKind::Str, entries, domain, 1 << 16);
        let query = Aabb::cube(domain.center(), domain.extents().x * 0.1);
        let (_, io1, _) = built.query(&query);
        let (_, io2, _) = built.query(&query);
        // Same query twice: identical physical reads (no warm-cache help).
        assert_eq!(io1.total_physical_reads(), io2.total_physical_reads());
    }

    #[test]
    fn size_breakdown_adds_up() {
        let (entries, domain) = sample_entries(20_000);
        for kind in [IndexKind::Flat, IndexKind::PrTree] {
            let built = BuiltIndex::build(kind, entries.clone(), domain, 1 << 16);
            assert_eq!(
                built.data_bytes() + built.overhead_bytes(),
                built.size_bytes()
            );
            assert!(built.data_bytes() > built.overhead_bytes());
        }
    }

    #[test]
    fn flat_reports_build_breakdown() {
        let (entries, domain) = sample_entries(5_000);
        let built = BuiltIndex::build(IndexKind::Flat, entries.clone(), domain, 1 << 16);
        let stats = built.flat_stats.as_ref().unwrap();
        assert!(stats.num_partitions > 0);
        let rt = BuiltIndex::build(IndexKind::Str, entries, domain, 1 << 16);
        assert!(rt.flat_stats.is_none());
    }
}
