//! The R-tree proper: bulk construction and query evaluation.

use crate::bulk::BulkLoad;
use crate::node::{
    decode_inner, decode_leaf, encode_inner, encode_leaf, inner_capacity, is_leaf, leaf_capacity,
    ChildRef, LeafLayout,
};
use crate::Entry;
use flat_geom::Aabb;
use flat_storage::{Page, PageId, PageKind, PageRead, PageWrite, StorageError};

/// Configuration shared by all R-tree variants.
#[derive(Debug, Clone, Copy, Default)]
pub struct RTreeConfig {
    /// Leaf page layout (85 bare MBRs per page by default, like the paper).
    pub layout: LeafLayout,
}

/// A query result: one element whose MBR intersects the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The element's MBR as stored.
    pub mbr: Aabb,
    /// Element id. Under [`LeafLayout::WithIds`] this is the application id
    /// given at build time; under [`LeafLayout::MbrOnly`] it is synthesized
    /// from the physical location as `page_id · 2¹⁶ + slot` (unique, stable
    /// for a given build).
    pub id: u64,
    /// Leaf page holding the element.
    pub page: PageId,
    /// Slot within the leaf page.
    pub slot: u16,
}

/// CPU-side counters for a single traversal (the I/O side lives in
/// [`flat_storage::IoStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Inner nodes visited.
    pub inner_visits: u64,
    /// Leaf nodes visited.
    pub leaf_visits: u64,
    /// MBR–query intersection tests performed.
    pub mbr_tests: u64,
}

/// A disk-resident R-tree.
///
/// The tree does not own its pages; every operation takes the pool the
/// tree was built in. Construction is exclusive ([`PageWrite`]); queries
/// are shared reads ([`PageRead`]), so one tree can serve many threads
/// through a [`flat_storage::ConcurrentBufferPool`] while the benchmark
/// harness clears caches and reads statistics between queries, exactly as
/// the paper's methodology requires.
#[derive(Debug, Clone)]
pub struct RTree {
    root: Option<PageId>,
    height: u32,
    config: RTreeConfig,
    num_elements: u64,
    num_leaf_pages: u64,
    num_inner_pages: u64,
}

impl RTree {
    /// Bulk-loads `entries` with the chosen packing strategy.
    ///
    /// An empty input produces a valid empty tree.
    pub fn bulk_load(
        pool: &mut impl PageWrite,
        entries: Vec<Entry>,
        method: BulkLoad,
        config: RTreeConfig,
    ) -> Result<RTree, StorageError> {
        if entries.is_empty() {
            return Ok(RTree {
                root: None,
                height: 0,
                config,
                num_elements: 0,
                num_leaf_pages: 0,
                num_inner_pages: 0,
            });
        }
        let num_elements = entries.len() as u64;
        let leaf_cap = leaf_capacity(config.layout);
        let runs = method.pack(entries, leaf_cap);

        // Write the leaf level.
        let mut page = Page::new();
        let mut level: Vec<ChildRef> = Vec::with_capacity(runs.len());
        for run in &runs {
            encode_leaf(run, config.layout, &mut page);
            let id = pool.alloc()?;
            pool.write(id, &page, PageKind::RTreeLeaf)?;
            level.push(ChildRef {
                mbr: Aabb::union_all(run.iter().map(|e| e.mbr)),
                page: id,
            });
        }
        let num_leaf_pages = level.len() as u64;

        // Build the directory bottom-up, packing each level with the same
        // strategy.
        let (root, height, num_inner_pages) =
            pack_directory(pool, level, method, PageKind::RTreeInner)?;
        Ok(RTree {
            root: Some(root),
            height,
            config,
            num_elements,
            num_leaf_pages,
            num_inner_pages,
        })
    }

    /// Root page, if the tree is non-empty.
    pub fn root(&self) -> Option<PageId> {
        self.root
    }

    /// Tree height in levels (0 for an empty tree, 1 when the root is a
    /// leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Number of indexed elements.
    pub fn num_elements(&self) -> u64 {
        self.num_elements
    }

    /// Number of leaf pages.
    pub fn num_leaf_pages(&self) -> u64 {
        self.num_leaf_pages
    }

    /// Number of non-leaf (directory) pages.
    pub fn num_inner_pages(&self) -> u64 {
        self.num_inner_pages
    }

    /// Total index size in bytes (leaf + inner pages).
    pub fn size_bytes(&self) -> u64 {
        (self.num_leaf_pages + self.num_inner_pages) * flat_storage::PAGE_SIZE as u64
    }

    pub(crate) fn set_root(&mut self, root: PageId, height: u32) {
        self.root = Some(root);
        self.height = height;
    }

    pub(crate) fn bump_counts(&mut self, elements: i64, leaves: i64, inners: i64) {
        self.num_elements = self.num_elements.wrapping_add_signed(elements);
        self.num_leaf_pages = self.num_leaf_pages.wrapping_add_signed(leaves);
        self.num_inner_pages = self.num_inner_pages.wrapping_add_signed(inners);
    }

    /// Creates an empty tree with the given configuration (for dynamic
    /// insertion, see [`RTree::insert`]).
    pub fn new_empty(config: RTreeConfig) -> RTree {
        RTree {
            root: None,
            height: 0,
            config,
            num_elements: 0,
            num_leaf_pages: 0,
            num_inner_pages: 0,
        }
    }

    fn synth_id(layout: LeafLayout, page: PageId, stored_id: u64) -> u64 {
        match layout {
            LeafLayout::MbrOnly => (page.0 << 16) | stored_id,
            LeafLayout::WithIds => stored_id,
        }
    }

    /// Evaluates a range query, returning every element whose MBR
    /// intersects `query`.
    ///
    /// Queries are shared reads: any [`PageRead`] implementation works,
    /// including a [`flat_storage::ConcurrentBufferPool`] queried from many
    /// threads at once.
    pub fn range_query(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<Vec<Hit>, StorageError> {
        let mut stats = TraversalStats::default();
        self.range_query_with_stats(pool, query, &mut stats)
    }

    /// Like [`RTree::range_query`] but accumulates traversal counters into
    /// `stats`.
    pub fn range_query_with_stats(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut TraversalStats,
    ) -> Result<Vec<Hit>, StorageError> {
        let mut hits = Vec::new();
        let Some(root) = self.root else {
            return Ok(hits);
        };
        // Levels are tracked explicitly (1 = leaf level) so each read is
        // charged to the right page kind before the page is even fetched.
        let mut stack = vec![(root, self.height)];
        while let Some((page_id, level)) = stack.pop() {
            if level == 1 {
                self.scan_leaf(pool, page_id, query, stats, &mut hits)?;
                continue;
            }
            let page = pool.read_page(page_id, PageKind::RTreeInner)?;
            stats.inner_visits += 1;
            debug_assert!(!is_leaf(&page), "tree height bookkeeping out of sync");
            let children = decode_inner(&page)?;
            for child in children {
                stats.mbr_tests += 1;
                if query.intersects(&child.mbr) {
                    stack.push((child.page, level - 1));
                }
            }
        }
        Ok(hits)
    }

    fn scan_leaf(
        &self,
        pool: &impl PageRead,
        page_id: PageId,
        query: &Aabb,
        stats: &mut TraversalStats,
        hits: &mut Vec<Hit>,
    ) -> Result<(), StorageError> {
        let page = pool.read_page(page_id, PageKind::RTreeLeaf)?;
        let (layout, entries) = decode_leaf(&page)?;
        stats.leaf_visits += 1;
        for (slot, entry) in entries.iter().enumerate() {
            stats.mbr_tests += 1;
            if query.intersects(&entry.mbr) {
                hits.push(Hit {
                    mbr: entry.mbr,
                    id: Self::synth_id(layout, page_id, entry.id),
                    page: page_id,
                    slot: slot as u16,
                });
            }
        }
        Ok(())
    }
}

/// Builds the directory levels of an R-tree over pre-written leaf pages,
/// packing upper levels with STR ordering. Returns
/// `(root page, total height, number of inner pages written)`.
///
/// This is how FLAT constructs its seed tree (§V-B.2): the seed tree's
/// leaves are metadata pages with their own format, but its directory is an
/// ordinary R-tree directory over the leaf page MBRs.
pub fn build_inner_levels(
    pool: &mut impl PageWrite,
    leaves: Vec<ChildRef>,
    inner_kind: PageKind,
) -> Result<(PageId, u32, u64), StorageError> {
    assert!(
        !leaves.is_empty(),
        "cannot build a directory over zero leaves"
    );
    pack_directory(pool, leaves, BulkLoad::Str, inner_kind)
}

/// Packs directory levels over a non-empty level of child references with
/// `method` until one node remains: `(root page, height, inner pages
/// written)`, the leaf level counting as height 1.
fn pack_directory(
    pool: &mut impl PageWrite,
    mut level: Vec<ChildRef>,
    method: BulkLoad,
    inner_kind: PageKind,
) -> Result<(PageId, u32, u64), StorageError> {
    let mut height = 1;
    let mut inner_pages = 0;
    let mut page = Page::new();
    while level.len() > 1 {
        let items: Vec<Entry> = level.iter().map(|c| Entry::new(c.page.0, c.mbr)).collect();
        let runs = method.pack(items, inner_capacity());
        let mut next = Vec::with_capacity(runs.len());
        for run in &runs {
            let children: Vec<ChildRef> = run
                .iter()
                .map(|e| ChildRef {
                    mbr: e.mbr,
                    page: PageId(e.id),
                })
                .collect();
            encode_inner(&children, &mut page);
            let id = pool.alloc()?;
            pool.write(id, &page, inner_kind)?;
            next.push(ChildRef {
                mbr: Aabb::union_all(run.iter().map(|e| e.mbr)),
                page: id,
            });
        }
        inner_pages += next.len() as u64;
        level = next;
        height += 1;
    }
    Ok((level[0].page, height, inner_pages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{brute_force, random_entries};
    use flat_geom::Point3;
    use flat_storage::{ConcurrentBufferPool, MemStore, PageStore};

    fn build(
        n: usize,
        method: BulkLoad,
        layout: LeafLayout,
    ) -> (ConcurrentBufferPool<MemStore>, RTree, Vec<Entry>) {
        let entries = random_entries(n, 42);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let tree =
            RTree::bulk_load(&mut pool, entries.clone(), method, RTreeConfig { layout }).unwrap();
        (pool, tree, entries)
    }

    #[test]
    fn empty_tree_handles_queries() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let tree =
            RTree::bulk_load(&mut pool, Vec::new(), BulkLoad::Str, RTreeConfig::default()).unwrap();
        assert_eq!(tree.height(), 0);
        let q = Aabb::cube(Point3::ORIGIN, 10.0);
        assert!(tree.range_query(&pool, &q).unwrap().is_empty());
    }

    #[test]
    fn single_page_tree() {
        let (pool, tree, entries) = build(50, BulkLoad::Str, LeafLayout::WithIds);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.num_leaf_pages(), 1);
        assert_eq!(tree.num_inner_pages(), 0);
        let q = Aabb::cube(Point3::splat(50.0), 100.0);
        let mut ids: Vec<u64> = tree
            .range_query(&pool, &q)
            .unwrap()
            .iter()
            .map(|h| h.id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, brute_force(&entries, &q));
    }

    #[test]
    fn range_query_matches_brute_force_all_methods() {
        for method in [
            BulkLoad::Str,
            BulkLoad::Hilbert,
            BulkLoad::PrTree,
            BulkLoad::Tgs,
        ] {
            let (pool, tree, entries) = build(5000, method, LeafLayout::WithIds);
            for (cx, side) in [(20.0, 8.0), (50.0, 20.0), (80.0, 3.0), (0.0, 1.0)] {
                let q = Aabb::cube(Point3::splat(cx), side);
                let mut ids: Vec<u64> = tree
                    .range_query(&pool, &q)
                    .unwrap()
                    .iter()
                    .map(|h| h.id)
                    .collect();
                ids.sort_unstable();
                assert_eq!(ids, brute_force(&entries, &q), "{method:?} query at {cx}");
            }
        }
    }

    #[test]
    fn whole_domain_query_returns_everything() {
        let (pool, tree, entries) = build(3000, BulkLoad::Str, LeafLayout::WithIds);
        let q = Aabb::cube(Point3::splat(50.0), 300.0);
        assert_eq!(tree.range_query(&pool, &q).unwrap().len(), entries.len());
    }

    #[test]
    fn disjoint_query_returns_nothing() {
        let (pool, tree, _) = build(3000, BulkLoad::Hilbert, LeafLayout::MbrOnly);
        let q = Aabb::cube(Point3::splat(500.0), 10.0);
        assert!(tree.range_query(&pool, &q).unwrap().is_empty());
    }

    #[test]
    fn mbr_only_ids_are_unique_and_locate_elements() {
        let (pool, tree, entries) = build(3000, BulkLoad::Str, LeafLayout::MbrOnly);
        let q = Aabb::cube(Point3::splat(50.0), 300.0);
        let hits = tree.range_query(&pool, &q).unwrap();
        assert_eq!(hits.len(), entries.len());
        let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), entries.len(), "synthetic ids must be unique");
        for h in hits.iter().take(20) {
            assert_eq!(h.id, (h.page.0 << 16) | h.slot as u64);
        }
    }

    #[test]
    fn traversal_stats_count_visits() {
        let (pool, tree, _) = build(20_000, BulkLoad::Str, LeafLayout::MbrOnly);
        let mut stats = TraversalStats::default();
        let q = Aabb::cube(Point3::splat(50.0), 10.0);
        tree.range_query_with_stats(&pool, &q, &mut stats).unwrap();
        assert!(stats.inner_visits >= 1);
        assert!(stats.leaf_visits >= 1);
        assert!(stats.mbr_tests > stats.leaf_visits);
    }

    #[test]
    fn page_accounting_adds_up() {
        let (pool, tree, entries) = build(20_000, BulkLoad::Str, LeafLayout::MbrOnly);
        let cap = leaf_capacity(LeafLayout::MbrOnly) as u64;
        let min_leaves = entries.len() as u64 / cap;
        assert!(tree.num_leaf_pages() >= min_leaves);
        assert_eq!(
            pool.store().num_pages(),
            tree.num_leaf_pages() + tree.num_inner_pages()
        );
        assert_eq!(
            tree.size_bytes(),
            pool.store().num_pages() * flat_storage::PAGE_SIZE as u64
        );
    }

    #[test]
    fn build_inner_levels_produces_searchable_directory() {
        // Build leaves by hand, then a directory, then check reachability.
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 4096);
        let entries = random_entries(2000, 7);
        let mut leaves = Vec::new();
        let mut page = Page::new();
        for chunk in entries.chunks(85) {
            encode_leaf(chunk, LeafLayout::MbrOnly, &mut page);
            let id = pool.alloc().unwrap();
            pool.write(id, &page, PageKind::SeedLeaf).unwrap();
            leaves.push(ChildRef {
                mbr: Aabb::union_all(chunk.iter().map(|e| e.mbr)),
                page: id,
            });
        }
        let n_leaves = leaves.len();
        let (root, height, inner) =
            build_inner_levels(&mut pool, leaves, PageKind::SeedInner).unwrap();
        assert!(height >= 2);
        assert!(inner >= 1);
        // Walk the directory; count reachable leaves.
        let mut stack = vec![(root, height)];
        let mut found = 0;
        while let Some((pid, level)) = stack.pop() {
            if level == 1 {
                found += 1;
                continue;
            }
            let node = pool.read_page(pid, PageKind::SeedInner).unwrap();
            for child in decode_inner(&node).unwrap() {
                stack.push((child.page, level - 1));
            }
        }
        assert_eq!(found, n_leaves);
    }
}
