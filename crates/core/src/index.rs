//! The [`FlatIndex`] descriptor and the seed-tree directory its bulkload
//! ends with (§V-B.2). The pipeline is `builder.rs`; the metadata pages
//! the directory indexes are laid out by the one writer in `meta.rs`.

use crate::builder::FlatIndexBuilder;
use flat_geom::Aabb;
use flat_rtree::node::{decode_inner, ChildRef};
use flat_rtree::{build_inner_levels, Entry, LeafLayout};
use flat_storage::{PageId, PageKind, PageRead, PageWrite, StorageError, PAGE_SIZE};
use std::time::Duration;

/// How metadata records are ordered across seed-tree leaf pages.
///
/// The paper requires spatially close records to share leaf pages
/// (§V-B.2) but does not fix an order. The crawl reads 3-D *blobs* of
/// records, so the order determines how many metadata pages a blob spans —
/// `exp_meta_order` in the benchmark crate measures the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetaOrder {
    /// Hilbert-curve order of the partition centers (default): a blob of
    /// `k` records spans ~`k / records-per-page` pages.
    #[default]
    Hilbert,
    /// Raw STR output order (slab → run → chunk): a blob is scattered
    /// across one page run per (slab, run) pair it touches.
    StrOutput,
}

/// Build-time options.
#[derive(Debug, Clone, Copy)]
pub struct FlatOptions {
    /// Object-page layout; [`LeafLayout::MbrOnly`] (85 elements/page)
    /// matches the paper.
    pub layout: LeafLayout,
    /// The domain the partition tiling must cover. Defaults to the union
    /// of the element MBRs.
    pub domain: Option<Aabb>,
    /// Multiplies every bulkloaded partition MBR's volume after stretching
    /// (about its center) before neighbors are computed. `1.0` (the default) is the
    /// paper's algorithm; larger values reproduce the partition-size study
    /// of Figure 21. Inflation preserves both crawl invariants (boxes only
    /// grow).
    pub partition_volume_scale: f64,
    /// Metadata record packing order (see [`MetaOrder`]).
    pub meta_order: MetaOrder,
}

impl FlatOptions {
    /// Why these options cannot tile an index, if they cannot: a
    /// `partition_volume_scale` below `1.0`, or NaN, would shrink the
    /// partitions and break the no-empty-space invariant. The one check
    /// behind the build, the façade's build and every adoption.
    pub(crate) fn inflation_error(&self) -> Option<String> {
        let scale = self.partition_volume_scale;
        (scale.is_nan() || scale < 1.0).then(|| {
            format!(
                "FlatOptions::partition_volume_scale must be at least 1.0 \
                 (inflation must not shrink partitions), got {scale}"
            )
        })
    }
}

impl Default for FlatOptions {
    fn default() -> Self {
        FlatOptions {
            layout: LeafLayout::MbrOnly,
            domain: None,
            partition_volume_scale: 1.0,
            meta_order: MetaOrder::default(),
        }
    }
}

/// What the bulkload did, with the phase timings of Figure 10 and the
/// pointer statistics of Figures 20/21.
#[derive(Debug, Clone)]
pub struct BuildStats {
    /// Time spent in the STR partitioning pass — ingest, x-sort, slab
    /// tiling, and the object-page writes that happen as each partition
    /// forms (the "Partitioning" series of Figure 10).
    pub partition_time: Duration,
    /// Time spent computing neighbors in the plane sweep (the "Finding
    /// Neighbors" series of Figure 10).
    pub neighbor_time: Duration,
    /// Time spent writing the metadata pages and the seed tree.
    pub write_time: Duration,
    /// Number of partitions (= object pages).
    pub num_partitions: usize,
    /// Neighbor pointer count per partition (the Figure 20 histogram).
    pub neighbor_counts: Vec<u32>,
    /// Mean partition MBR volume (the Figure 21 x-axis).
    pub avg_partition_volume: f64,
}

impl BuildStats {
    /// Total build time.
    pub fn total_time(&self) -> Duration {
        self.partition_time + self.neighbor_time + self.write_time
    }

    /// Mean pointers per partition.
    pub fn avg_neighbor_pointers(&self) -> f64 {
        if self.neighbor_counts.is_empty() {
            return 0.0;
        }
        let total: u64 = self.neighbor_counts.iter().map(|&c| c as u64).sum();
        total as f64 / self.neighbor_counts.len() as f64
    }

    /// Median pointers per partition (the statistic the paper tracks in
    /// Figure 20: "the median stays the same … and appears to converge at
    /// 30").
    pub fn median_neighbor_pointers(&self) -> u32 {
        if self.neighbor_counts.is_empty() {
            return 0;
        }
        // Quickselect instead of a full sort: figure drivers call this per
        // density step over hundreds of thousands of counts.
        let mut counts = self.neighbor_counts.clone();
        let mid = counts.len() / 2;
        let (_, median, _) = counts.select_nth_unstable(mid);
        *median
    }
}

/// Seals a bulkload: builds the seed-tree directory over the metadata
/// leaves the one writer ([`crate::meta`]) laid out — an ordinary R-tree
/// directory keyed by each leaf's page MBR (§V-B.2) — and returns the
/// descriptor.
pub(crate) fn seal(
    pool: &mut impl PageWrite,
    leaves: Vec<ChildRef>,
    layout: LeafLayout,
    num_elements: u64,
    num_object_pages: u64,
) -> Result<FlatIndex, StorageError> {
    let num_meta_pages = leaves.len() as u64;
    let (seed_root, seed_height, num_seed_inner_pages) =
        build_inner_levels(pool, leaves, PageKind::SeedInner)?;
    Ok(FlatIndex {
        seed_root: Some(seed_root),
        seed_height,
        layout,
        num_elements,
        num_object_pages,
        num_meta_pages,
        num_seed_inner_pages,
    })
}

/// A built FLAT index.
///
/// Like the R-tree baselines, the index does not own its pages: all
/// operations take the pool it was built in. Construction is exclusive
/// ([`PageWrite`]); queries are shared reads (`&impl PageRead`), so a
/// built index can serve many threads through one
/// [`flat_storage::ConcurrentBufferPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatIndex {
    pub(crate) seed_root: Option<PageId>,
    /// Height counting the metadata-leaf level as 1.
    pub(crate) seed_height: u32,
    pub(crate) layout: LeafLayout,
    pub(crate) num_elements: u64,
    pub(crate) num_object_pages: u64,
    pub(crate) num_meta_pages: u64,
    pub(crate) num_seed_inner_pages: u64,
}

/// The pages of a seed tree, as [`FlatIndex::seed_tree_pages`] finds them.
#[derive(Debug, Default)]
pub(crate) struct SeedTreePages {
    /// Directory pages, in depth-first visit order.
    pub(crate) inner: Vec<PageId>,
    /// Leaves — the bulkload's metadata pages — in page-id order, which is
    /// the order the bulkload created them in.
    pub(crate) leaves: Vec<PageId>,
}

impl FlatIndex {
    /// Bulk-loads a FLAT index (the paper's Algorithm 1 plus the data
    /// structure construction of §V-B): [`FlatIndexBuilder`] with a spill
    /// budget no input reaches, so everything stays resident.
    ///
    /// Options are refused as [`FlatIndexBuilder::build`] refuses them.
    pub fn build(
        pool: &mut impl PageWrite,
        entries: Vec<Entry>,
        options: FlatOptions,
    ) -> Result<(FlatIndex, BuildStats), StorageError> {
        let (index, stats, _) = FlatIndexBuilder::new(options)
            .spill_budget(usize::MAX)
            .build(pool, entries)?;
        Ok((index, stats))
    }

    /// An index over zero elements.
    pub(crate) fn empty(layout: LeafLayout) -> FlatIndex {
        FlatIndex {
            seed_root: None,
            seed_height: 0,
            layout,
            num_elements: 0,
            num_object_pages: 0,
            num_meta_pages: 0,
            num_seed_inner_pages: 0,
        }
    }

    /// Walks the seed tree's directory, sorting its pages into the two
    /// lists every whole-index scan (delta adoption and recovery, the
    /// join's outer sweep) starts from. Reads directory pages only.
    pub(crate) fn seed_tree_pages(
        &self,
        pool: &impl PageRead,
    ) -> Result<SeedTreePages, StorageError> {
        let mut pages = SeedTreePages::default();
        let mut stack: Vec<(PageId, u32)> = Vec::new();
        stack.extend(self.seed_root.map(|root| (root, self.seed_height)));
        while let Some((page_id, level)) = stack.pop() {
            if level == 1 {
                pages.leaves.push(page_id);
            } else {
                pages.inner.push(page_id);
                let page = pool.read_page(page_id, PageKind::SeedInner)?;
                for child in decode_inner(&page)? {
                    stack.push((child.page, level - 1));
                }
            }
        }
        pages.leaves.sort_unstable();
        Ok(pages)
    }

    /// Number of indexed elements.
    pub fn num_elements(&self) -> u64 {
        self.num_elements
    }

    /// The object-page layout.
    pub fn layout(&self) -> LeafLayout {
        self.layout
    }

    /// Seed-tree height (1 = the root is a metadata leaf; 0 = empty).
    pub fn seed_height(&self) -> u32 {
        self.seed_height
    }

    /// Number of object pages (= partitions).
    pub fn num_object_pages(&self) -> u64 {
        self.num_object_pages
    }

    /// Number of metadata (seed-leaf) pages.
    pub fn num_meta_pages(&self) -> u64 {
        self.num_meta_pages
    }

    /// Number of seed-tree directory pages.
    pub fn num_seed_inner_pages(&self) -> u64 {
        self.num_seed_inner_pages
    }

    /// Bytes used by object pages (the Figure 11 "Object Pages" component).
    pub fn object_bytes(&self) -> u64 {
        self.num_object_pages * PAGE_SIZE as u64
    }

    /// Bytes used by the seed tree plus metadata (the Figure 11
    /// "Seed Tree + Metadata" component).
    pub fn seed_and_meta_bytes(&self) -> u64 {
        (self.num_meta_pages + self.num_seed_inner_pages) * PAGE_SIZE as u64
    }

    /// Total index size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.object_bytes() + self.seed_and_meta_bytes()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::meta::decode_meta_leaf;
    use flat_geom::Point3;
    use flat_storage::{ConcurrentBufferPool, MemStore, PageStore};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn random_entries(n: usize, seed: u64) -> Vec<Entry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                Entry::new(i as u64, Aabb::cube(c, rng.gen_range(0.05..0.5)))
            })
            .collect()
    }

    fn build(n: usize) -> (ConcurrentBufferPool<MemStore>, FlatIndex, BuildStats) {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, stats) =
            FlatIndex::build(&mut pool, random_entries(n, 21), FlatOptions::default()).unwrap();
        (pool, index, stats)
    }

    #[test]
    fn build_accounts_every_page() {
        let (pool, index, stats) = build(20_000);
        assert_eq!(index.num_elements(), 20_000);
        assert_eq!(index.num_object_pages(), stats.num_partitions as u64);
        assert_eq!(
            pool.store().num_pages(),
            index.num_object_pages() + index.num_meta_pages() + index.num_seed_inner_pages()
        );
        assert_eq!(
            index.size_bytes(),
            pool.store().num_pages() * PAGE_SIZE as u64
        );
    }

    #[test]
    fn empty_build_produces_empty_index() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let (index, stats) =
            FlatIndex::build(&mut pool, Vec::new(), FlatOptions::default()).unwrap();
        assert_eq!(index.num_elements(), 0);
        assert_eq!(index.seed_height(), 0);
        assert_eq!(stats.num_partitions, 0);
        assert_eq!(pool.store().num_pages(), 0);
    }

    #[test]
    fn metadata_pointers_resolve_to_real_records() {
        let (pool, index, _) = build(10_000);
        // Walk the seed tree, decode every record, and chase every
        // neighbor pointer: it must decode to a record whose partition MBR
        // intersects the pointing record's partition MBR (that's the
        // definition of neighbor).
        let meta_pages = index.seed_tree_pages(&pool).unwrap().leaves;
        assert_eq!(meta_pages.len() as u64, index.num_meta_pages());
        let mut checked = 0;
        for &mp in &meta_pages {
            let records = {
                let page = pool.read_page(mp, PageKind::SeedLeaf).unwrap();
                decode_meta_leaf(&page).unwrap()
            };
            for record in records {
                for n in &record.neighbors {
                    let target = {
                        let page = pool.read_page(n.page, PageKind::SeedLeaf).unwrap();
                        crate::meta::decode_meta_record(&page, n.slot).unwrap()
                    };
                    assert!(
                        record.partition_mbr.intersects(&target.partition_mbr),
                        "pointer to a non-intersecting partition"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no pointers were checked");
    }

    #[test]
    fn build_stats_are_consistent() {
        let (_, index, stats) = build(30_000);
        assert_eq!(stats.neighbor_counts.len(), stats.num_partitions);
        assert!(stats.avg_neighbor_pointers() > 0.0);
        assert!(stats.median_neighbor_pointers() > 0);
        assert!(stats.avg_partition_volume > 0.0);
        assert!(index.seed_height() >= 1);
        assert!(stats.total_time() >= stats.partition_time);
    }

    #[test]
    fn partition_inflation_increases_pointer_count() {
        let entries = random_entries(20_000, 33);
        let mut pool_a = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (_, base) =
            FlatIndex::build(&mut pool_a, entries.clone(), FlatOptions::default()).unwrap();
        let mut pool_b = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (_, inflated) = FlatIndex::build(
            &mut pool_b,
            entries,
            FlatOptions {
                partition_volume_scale: 2.0,
                ..FlatOptions::default()
            },
        )
        .unwrap();
        assert!(
            inflated.avg_neighbor_pointers() > base.avg_neighbor_pointers(),
            "inflation must add pointers: {} vs {}",
            inflated.avg_neighbor_pointers(),
            base.avg_neighbor_pointers()
        );
        assert!(inflated.avg_partition_volume > base.avg_partition_volume);
    }

    #[test]
    fn shrinking_inflation_is_rejected() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let err = FlatIndex::build(
            &mut pool,
            random_entries(10, 1),
            FlatOptions {
                partition_volume_scale: 0.5,
                ..FlatOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, StorageError::Io(e) if e.kind() == std::io::ErrorKind::InvalidInput),
            "{err}"
        );
        assert!(err.to_string().contains("must not shrink"), "{err}");
        assert_eq!(
            pool.store().num_pages(),
            0,
            "a refused build writes nothing"
        );
    }

    #[test]
    fn index_is_bigger_than_bare_rtree_but_modestly() {
        // Fig 11: FLAT stores the same object/leaf pages plus metadata —
        // bigger, but only by the metadata share.
        let entries = random_entries(30_000, 55);
        let mut pool_flat = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (flat, _) =
            FlatIndex::build(&mut pool_flat, entries.clone(), FlatOptions::default()).unwrap();
        let mut pool_rt = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let rtree = flat_rtree::RTree::bulk_load(
            &mut pool_rt,
            entries,
            flat_rtree::BulkLoad::Str,
            flat_rtree::RTreeConfig::default(),
        )
        .unwrap();
        assert!(flat.size_bytes() > rtree.size_bytes());
        assert!(
            (flat.size_bytes() as f64) < rtree.size_bytes() as f64 * 1.6,
            "metadata overhead should be modest: {} vs {}",
            flat.size_bytes(),
            rtree.size_bytes()
        );
    }
}
