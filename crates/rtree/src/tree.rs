//! The R-tree proper: bulk construction and query evaluation.

use crate::bulk::BulkLoad;
use crate::node::{
    decode_inner, decode_leaf, encode_inner, encode_leaf, inner_capacity, is_leaf, leaf_capacity,
    ChildRef, LeafLayout,
};
use crate::Entry;
use flat_geom::{Aabb, Point3};
use flat_storage::{Page, PageId, PageKind, PageRead, PageWrite, StorageError};

/// Configuration shared by all R-tree variants.
#[derive(Debug, Clone, Copy)]
pub struct RTreeConfig {
    /// Leaf page layout (85 bare MBRs per page by default, like the paper).
    pub layout: LeafLayout,
    /// Page kind charged for non-leaf reads (default
    /// [`PageKind::RTreeInner`]).
    pub inner_kind: PageKind,
    /// Page kind charged for leaf reads (default [`PageKind::RTreeLeaf`]).
    pub leaf_kind: PageKind,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig {
            layout: LeafLayout::default(),
            inner_kind: PageKind::RTreeInner,
            leaf_kind: PageKind::RTreeLeaf,
        }
    }
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
            pool.write(id, &page, config.leaf_kind)?;
            level.push(ChildRef {
                mbr: Aabb::union_all(run.iter().map(|e| e.mbr)),
                page: id,
            });
        }
        let num_leaf_pages = level.len() as u64;

        // Build the directory bottom-up, packing each level with the same
        // strategy.
        let mut height = 1;
        let mut num_inner_pages = 0;
        while level.len() > 1 {
            let items: Vec<Entry> = level.iter().map(|c| Entry::new(c.page.0, c.mbr)).collect();
            let runs = method.pack(items, inner_capacity());
            let mut next: Vec<ChildRef> = Vec::with_capacity(runs.len());
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
                pool.write(id, &page, config.inner_kind)?;
                next.push(ChildRef {
                    mbr: Aabb::union_all(run.iter().map(|e| e.mbr)),
                    page: id,
                });
            }
            num_inner_pages += next.len() as u64;
            level = next;
            height += 1;
        }

        Ok(RTree {
            root: Some(level[0].page),
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
            let page = pool.read_page(page_id, self.config.inner_kind)?;
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
        let page = pool.read_page(page_id, self.config.leaf_kind)?;
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

    /// Evaluates a point query (a degenerate range query).
    pub fn point_query(
        &self,
        pool: &impl PageRead,
        point: Point3,
    ) -> Result<Vec<Hit>, StorageError> {
        self.range_query(pool, &Aabb::point(point))
    }

    /// The *seed* operation (§V-B.1 of the paper): finds one arbitrary
    /// element intersecting `query`, following a single root-to-leaf path
    /// wherever possible. Returns `None` if the query is empty.
    ///
    /// This is the overlap-free primitive FLAT builds its seed phase on:
    /// the cost is O(height) plus any dead-end probes caused by leaf MBRs
    /// that intersect the query while none of their elements do.
    pub fn seed_query(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<Option<Hit>, StorageError> {
        let Some(root) = self.root else {
            return Ok(None);
        };
        let mut stack = vec![(root, self.height)];
        while let Some((page_id, level)) = stack.pop() {
            if level == 1 {
                let page = pool.read_page(page_id, self.config.leaf_kind)?;
                let (layout, entries) = decode_leaf(&page)?;
                for (slot, entry) in entries.iter().enumerate() {
                    if query.intersects(&entry.mbr) {
                        return Ok(Some(Hit {
                            mbr: entry.mbr,
                            id: Self::synth_id(layout, page_id, entry.id),
                            page: page_id,
                            slot: slot as u16,
                        }));
                    }
                }
            } else {
                let page = pool.read_page(page_id, self.config.inner_kind)?;
                let children = decode_inner(&page)?;
                for child in children {
                    if query.intersects(&child.mbr) {
                        stack.push((child.page, level - 1));
                    }
                }
            }
        }
        Ok(None)
    }

    /// Visits every leaf page id (in an unspecified order). Used by
    /// validation and by FLAT's build.
    pub fn for_each_leaf<P, F>(&self, pool: &P, mut f: F) -> Result<(), StorageError>
    where
        P: PageRead,
        F: FnMut(PageId, &[Entry]),
    {
        let Some(root) = self.root else { return Ok(()) };
        let mut stack = vec![(root, self.height)];
        while let Some((page_id, level)) = stack.pop() {
            if level == 1 {
                let page = pool.read_page(page_id, self.config.leaf_kind)?;
                let (_, entries) = decode_leaf(&page)?;
                f(page_id, &entries);
            } else {
                let page = pool.read_page(page_id, self.config.inner_kind)?;
                for child in decode_inner(&page)? {
                    stack.push((child.page, level - 1));
                }
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
    let mut level = leaves;
    let mut height = 1;
    let mut inner_pages = 0;
    let mut page = Page::new();
    while level.len() > 1 {
        let items: Vec<Entry> = level.iter().map(|c| Entry::new(c.page.0, c.mbr)).collect();
        let runs = BulkLoad::Str.pack(items, inner_capacity());
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
    use flat_storage::{ConcurrentBufferPool, MemStore, PageStore};

    fn build(
        n: usize,
        method: BulkLoad,
        layout: LeafLayout,
    ) -> (ConcurrentBufferPool<MemStore>, RTree, Vec<Entry>) {
        let entries = random_entries(n, 42);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let tree = RTree::bulk_load(
            &mut pool,
            entries.clone(),
            method,
            RTreeConfig {
                layout,
                ..RTreeConfig::default()
            },
        )
        .unwrap();
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
        assert!(tree.seed_query(&pool, &q).unwrap().is_none());
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
        assert!(tree.seed_query(&pool, &q).unwrap().is_none());
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
    fn seed_query_finds_an_intersecting_element() {
        let (pool, tree, entries) = build(5000, BulkLoad::PrTree, LeafLayout::WithIds);
        let q = Aabb::cube(Point3::splat(30.0), 10.0);
        let expected = brute_force(&entries, &q);
        let hit = tree.seed_query(&pool, &q).unwrap().unwrap();
        assert!(q.intersects(&hit.mbr));
        assert!(expected.contains(&hit.id));
    }

    #[test]
    fn seed_query_cost_is_near_height() {
        let (pool, tree, _) = build(50_000, BulkLoad::Str, LeafLayout::MbrOnly);
        assert!(tree.height() >= 2);
        pool.clear_cache();
        pool.reset_stats();
        let q = Aabb::cube(Point3::splat(50.0), 5.0);
        tree.seed_query(&pool, &q).unwrap().unwrap();
        let reads = pool.stats().total_physical_reads();
        // One path of `height` pages, plus possibly a few dead-end leaf
        // probes. The paper: "the complexity of this operation is typically
        // in the order of the height of the R-Tree".
        assert!(
            reads <= tree.height() as u64 + 4,
            "seed query read {reads} pages for height {}",
            tree.height()
        );
    }

    #[test]
    fn point_query_equals_degenerate_range() {
        let (pool, tree, entries) = build(4000, BulkLoad::Str, LeafLayout::WithIds);
        let p = Point3::splat(42.0);
        let mut a: Vec<u64> = tree
            .point_query(&pool, p)
            .unwrap()
            .iter()
            .map(|h| h.id)
            .collect();
        a.sort_unstable();
        assert_eq!(a, brute_force(&entries, &Aabb::point(p)));
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
    fn for_each_leaf_visits_every_element_once() {
        let (pool, tree, entries) = build(7000, BulkLoad::Hilbert, LeafLayout::WithIds);
        let mut seen = Vec::new();
        tree.for_each_leaf(&pool, |_, es| seen.extend(es.iter().map(|e| e.id)))
            .unwrap();
        seen.sort_unstable();
        let mut expected: Vec<u64> = entries.iter().map(|e| e.id).collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
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
