//! Exact ε-distance joins between two FLAT-indexed datasets by
//! co-crawling both neighbor-link graphs.
//!
//! The engine sweeps the outer dataset's partitions in storage order
//! (STR creation order, which is spatially coherent), and for each outer
//! partition crawls the inner dataset's link graph with the query box
//! `page_mbr.inflate(ε)`. Correctness leans on the same exhaustiveness
//! guarantee as range queries: if two elements are within Euclidean
//! distance ε, then every per-axis gap between their MBRs is at most ε,
//! so the inner element intersects the inflated box and the crawl is
//! guaranteed to reach its partition. Euclidean (not per-axis) pruning
//! is then applied at the partition, page, and element level via
//! [`Aabb::distance_sq`].
//!
//! The *co*-crawl saving: consecutive outer partitions are close in
//! space, so the inner partitions matched by one sweep step are reused
//! as crawl seeds for the next step — most steps never touch the inner
//! seed tree at all ([`JoinStats::frontier_reuses`] vs
//! [`JoinStats::seed_descents`]).

use crate::delta::DeltaIndex;
use crate::index::FlatIndex;
use crate::meta::{decode_meta_leaf, decode_meta_record, MetaRecordId};
use crate::query::{is_live, CrawlState, QueryStats, Tombstones};
use flat_geom::Aabb;
use flat_rtree::node::{decode_inner, decode_leaf};
use flat_rtree::LeafLayout;
use flat_storage::{PageId, PageKind, PageRead, StorageError};

/// Resident summary of one live partition: everything the join sweep
/// needs without touching the metadata pages again.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartSummary {
    /// The partition's object page.
    pub(crate) object_page: PageId,
    /// Tight MBR of the partition's own elements.
    pub(crate) page_mbr: Aabb,
}

/// One side of a distance join: any index the crawl understands.
///
/// Both sides may be the same index (a self-join, which reports
/// self-pairs `(x, x)` and both orientations of every other pair).
#[derive(Clone, Copy)]
pub enum JoinInput<'a> {
    /// A bulkloaded, immutable index.
    Flat(&'a FlatIndex),
    /// An updatable index; tombstoned elements and retired partitions
    /// are excluded from the join.
    Delta(&'a DeltaIndex),
}

impl<'a> JoinInput<'a> {
    fn tombstones(&self) -> Option<&'a Tombstones> {
        match self {
            JoinInput::Flat(_) => None,
            JoinInput::Delta(d) => Some(d.tombstones()),
        }
    }

    fn seed(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut QueryStats,
    ) -> Result<Option<MetaRecordId>, StorageError> {
        match self {
            JoinInput::Flat(i) => i.seed(pool, query, stats, None, None),
            JoinInput::Delta(d) => d.seed(pool, query, stats, None),
        }
    }

    /// Live-partition summaries in storage order, for the outer sweep.
    fn summaries(&self, pool: &impl PageRead) -> Result<Vec<PartSummary>, StorageError> {
        match self {
            JoinInput::Flat(i) => flat_summaries(i, pool),
            JoinInput::Delta(d) => Ok(d.partition_summaries()),
        }
    }
}

/// Walks the seed tree of a pristine [`FlatIndex`] and summarizes every
/// primary record. Leaves are visited in page-id order, which for an STR
/// bulkload is the tiling's creation order — the spatial coherence the
/// sweep's frontier reuse depends on.
fn flat_summaries(
    index: &FlatIndex,
    pool: &impl PageRead,
) -> Result<Vec<PartSummary>, StorageError> {
    let Some(root) = index.seed_root else {
        return Ok(Vec::new());
    };
    let mut stack = vec![(root, index.seed_height)];
    let mut leaves = Vec::new();
    while let Some((page_id, level)) = stack.pop() {
        if level == 1 {
            leaves.push(page_id);
        } else {
            let page = pool.read_page(page_id, PageKind::SeedInner)?;
            for child in decode_inner(&page)? {
                stack.push((child.page, level - 1));
            }
        }
    }
    leaves.sort_unstable_by_key(|p| p.0);
    let mut out = Vec::new();
    for page_id in leaves {
        let page = pool.read_page(page_id, PageKind::SeedLeaf)?;
        for record in decode_meta_leaf(&page)? {
            if record.is_continuation || record.is_dead {
                continue;
            }
            out.push(PartSummary {
                object_page: record.object_page,
                page_mbr: record.page_mbr,
            });
        }
    }
    Ok(out)
}

/// Counters for one join run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Result pairs emitted.
    pub pairs: u64,
    /// Outer partitions swept.
    pub outer_partitions: u64,
    /// Inner metadata records dequeued across all crawls.
    pub crawl_records: u64,
    /// Object pages read (logically), both sides.
    pub object_pages_read: u64,
    /// Sweep steps whose crawl was seeded from the inner seed tree.
    pub seed_descents: u64,
    /// Sweep steps whose crawl reused the previous step's partner
    /// partitions as seeds — the co-crawl saving.
    pub frontier_reuses: u64,
    /// Element-pair distance tests after all MBR-level pruning.
    pub element_tests: u64,
}

impl JoinStats {
    /// Folds another run's counters into this one (used by the sharded
    /// fan-out to report one aggregate set of counters). `pairs` is
    /// summed too; the caller overwrites it after deduplication.
    pub fn absorb(&mut self, other: &JoinStats) {
        self.pairs += other.pairs;
        self.outer_partitions += other.outer_partitions;
        self.crawl_records += other.crawl_records;
        self.object_pages_read += other.object_pages_read;
        self.seed_descents += other.seed_descents;
        self.frontier_reuses += other.frontier_reuses;
        self.element_tests += other.element_tests;
    }
}

/// The result of a join: matching id pairs plus run counters.
#[derive(Debug, Clone, Default)]
pub struct JoinResult {
    /// `(outer id, inner id)` for every element pair within distance ε,
    /// sorted ascending.
    pub pairs: Vec<(u64, u64)>,
    /// Counters for the run.
    pub stats: JoinStats,
}

/// Exact ε-distance join over two indexed datasets (see the module docs
/// for the algorithm).
#[derive(Debug, Clone, Copy)]
pub struct JoinEngine {
    eps: f64,
}

impl JoinEngine {
    /// An engine joining element pairs whose MBRs are within Euclidean
    /// distance `eps` (touching or overlapping MBRs count as distance 0).
    ///
    /// # Panics
    /// If `eps` is negative or not finite.
    pub fn new(eps: f64) -> JoinEngine {
        assert!(
            eps.is_finite() && eps >= 0.0,
            "join distance must be finite and non-negative, got {eps}"
        );
        JoinEngine { eps }
    }

    /// The join distance.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Runs the join, returning every `(outer id, inner id)` pair within
    /// distance ε, sorted ascending. Each side reads through its own
    /// pool, so the two datasets may live in different stores.
    pub fn join(
        &self,
        outer_pool: &impl PageRead,
        outer: JoinInput<'_>,
        inner_pool: &impl PageRead,
        inner: JoinInput<'_>,
    ) -> Result<JoinResult, StorageError> {
        let eps2 = self.eps * self.eps;
        let outer_tombs = outer.tombstones();
        let inner_tombs = inner.tombstones();
        let mut stats = JoinStats::default();
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        // Partner partitions of the previous sweep step: `(record,
        // partition MBR)` of every inner partition whose partition MBR
        // intersected the previous query box.
        let mut frontier: Vec<(MetaRecordId, Aabb)> = Vec::new();
        for op in outer.summaries(outer_pool)? {
            stats.outer_partitions += 1;
            let query = op.page_mbr.inflate(self.eps);

            // Seed the inner crawl: reuse the previous partners that are
            // still relevant (their partition MBR intersects the new
            // query box, so they belong to the connected subgraph the
            // crawl must cover), falling back to a seed-tree descent.
            let mut state = CrawlState::default();
            for (record, mbr) in &frontier {
                if mbr.intersects(&query) && state.seen.insert(*record) {
                    state.queue.push_back(*record);
                }
            }
            if state.queue.is_empty() {
                let mut seed_stats = QueryStats::default();
                let seed = inner.seed(inner_pool, &query, &mut seed_stats)?;
                stats.object_pages_read += seed_stats.object_pages_read;
                stats.seed_descents += 1;
                let Some(seed) = seed else {
                    // No live inner element intersects the inflated box,
                    // so this outer partition has no partners at all.
                    frontier.clear();
                    continue;
                };
                state.seen.insert(seed);
                state.queue.push_back(seed);
            } else {
                stats.frontier_reuses += 1;
            }

            // Crawl the inner graph under `query`, collecting candidate
            // elements (Euclidean-pruned against the outer page MBR) and
            // this step's partner partitions.
            let mut candidates: Vec<(u64, Aabb)> = Vec::new();
            let mut partners: Vec<(MetaRecordId, Aabb)> = Vec::new();
            while let Some(addr) = state.queue.pop_front() {
                stats.crawl_records += 1;
                let record = {
                    let page = inner_pool.read_page(addr.page, PageKind::SeedLeaf)?;
                    decode_meta_record(&page, addr.slot)?
                };
                if record.is_dead {
                    continue;
                }
                if record.page_mbr.intersects(&query)
                    && op.page_mbr.distance_sq(&record.page_mbr) <= eps2
                {
                    stats.object_pages_read += 1;
                    let page = inner_pool.read_page(record.object_page, PageKind::ObjectPage)?;
                    let (layout, entries) = decode_leaf(&page)?;
                    for (slot, entry) in entries.iter().enumerate() {
                        if is_live(inner_tombs, record.object_page, slot)
                            && op.page_mbr.distance_sq(&entry.mbr) <= eps2
                        {
                            let id = match layout {
                                LeafLayout::MbrOnly => (record.object_page.0 << 16) | entry.id,
                                LeafLayout::WithIds => entry.id,
                            };
                            candidates.push((id, entry.mbr));
                        }
                    }
                }
                if record.partition_mbr.intersects(&query) {
                    partners.push((addr, record.partition_mbr));
                    for neighbor in record.neighbors {
                        if state.seen.insert(neighbor) {
                            state.queue.push_back(neighbor);
                        }
                    }
                    let mut next = record.continuation;
                    while let Some(chunk_addr) = next {
                        let chunk = {
                            let page = inner_pool.read_page(chunk_addr.page, PageKind::SeedLeaf)?;
                            decode_meta_record(&page, chunk_addr.slot)?
                        };
                        for neighbor in chunk.neighbors {
                            if state.seen.insert(neighbor) {
                                state.queue.push_back(neighbor);
                            }
                        }
                        next = chunk.continuation;
                    }
                }
            }
            frontier = partners;
            if candidates.is_empty() {
                continue;
            }

            // Verify against the outer partition's own elements.
            stats.object_pages_read += 1;
            let page = outer_pool.read_page(op.object_page, PageKind::ObjectPage)?;
            let (layout, entries) = decode_leaf(&page)?;
            for (slot, entry) in entries.iter().enumerate() {
                if !is_live(outer_tombs, op.object_page, slot) {
                    continue;
                }
                let outer_id = match layout {
                    LeafLayout::MbrOnly => (op.object_page.0 << 16) | entry.id,
                    LeafLayout::WithIds => entry.id,
                };
                for (inner_id, inner_mbr) in &candidates {
                    stats.element_tests += 1;
                    if entry.mbr.distance_sq(inner_mbr) <= eps2 {
                        pairs.push((outer_id, *inner_id));
                    }
                }
            }
        }
        pairs.sort_unstable();
        stats.pairs = pairs.len() as u64;
        Ok(JoinResult { pairs, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::random_entries;
    use crate::index::FlatOptions;
    use flat_rtree::Entry;
    use flat_storage::BufferPool;

    fn options(layout: LeafLayout) -> FlatOptions {
        FlatOptions {
            layout,
            ..FlatOptions::default()
        }
    }

    fn build(
        entries: Vec<Entry>,
        layout: LeafLayout,
    ) -> (BufferPool<flat_storage::MemStore>, FlatIndex) {
        let mut pool = BufferPool::new(flat_storage::MemStore::new(), 4096);
        let (index, _) = FlatIndex::build(&mut pool, entries, options(layout)).unwrap();
        (pool, index)
    }

    /// Brute-force oracle: all (id_a, id_b) with MBR distance ≤ eps,
    /// sorted. Ids follow the index's own synthesis for `MbrOnly`.
    fn brute_force(
        a: &[Entry],
        b: &[Entry],
        a_hits: &[(u64, Aabb)],
        b_hits: &[(u64, Aabb)],
        eps: f64,
    ) -> Vec<(u64, u64)> {
        assert_eq!(a.len(), a_hits.len());
        assert_eq!(b.len(), b_hits.len());
        let mut pairs = Vec::new();
        for (ida, ma) in a_hits {
            for (idb, mb) in b_hits {
                if ma.distance_sq(mb) <= eps * eps {
                    pairs.push((*ida, *idb));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// The id/MBR pairs the index would report for a whole-domain range
    /// query — the ground truth id synthesis for either layout.
    fn ids_of(pool: &impl PageRead, index: &FlatIndex) -> Vec<(u64, Aabb)> {
        let everything = Aabb::new(
            flat_geom::Point3::new(-1e9, -1e9, -1e9),
            flat_geom::Point3::new(1e9, 1e9, 1e9),
        );
        let mut hits: Vec<_> = index
            .range_query(pool, &everything)
            .unwrap()
            .into_iter()
            .map(|h| (h.id, h.mbr))
            .collect();
        hits.sort_unstable_by_key(|(id, _)| *id);
        hits
    }

    #[test]
    fn join_matches_brute_force_for_both_layouts() {
        for layout in [LeafLayout::WithIds, LeafLayout::MbrOnly] {
            let a = random_entries(600, 11);
            let b = random_entries(500, 23);
            let (pool_a, index_a) = build(a.clone(), layout);
            let (pool_b, index_b) = build(b.clone(), layout);
            let a_hits = ids_of(&pool_a, &index_a);
            let b_hits = ids_of(&pool_b, &index_b);
            for eps in [0.0, 0.5, 2.0, 7.5] {
                let expected = brute_force(&a, &b, &a_hits, &b_hits, eps);
                let result = JoinEngine::new(eps)
                    .join(
                        &pool_a,
                        JoinInput::Flat(&index_a),
                        &pool_b,
                        JoinInput::Flat(&index_b),
                    )
                    .unwrap();
                assert_eq!(result.pairs, expected, "layout {layout:?} eps {eps}");
                assert_eq!(result.stats.pairs, expected.len() as u64);
            }
        }
    }

    #[test]
    fn self_join_reports_both_orientations_and_self_pairs() {
        let a = random_entries(300, 7);
        let (pool, index) = build(a, LeafLayout::WithIds);
        let result = JoinEngine::new(1.0)
            .join(
                &pool,
                JoinInput::Flat(&index),
                &pool,
                JoinInput::Flat(&index),
            )
            .unwrap();
        for (x, y) in &result.pairs {
            // Symmetric: the mirrored pair must be present too.
            assert!(result.pairs.binary_search(&(*y, *x)).is_ok());
        }
        // Every element is within distance 0 of itself.
        assert!(result.pairs.iter().filter(|(x, y)| x == y).count() >= 300);
    }

    #[test]
    fn sweep_reuses_the_frontier_instead_of_reseeding() {
        let a = random_entries(3_000, 41);
        let b = random_entries(3_000, 43);
        let (pool_a, index_a) = build(a, LeafLayout::WithIds);
        let (pool_b, index_b) = build(b, LeafLayout::WithIds);
        let result = JoinEngine::new(3.0)
            .join(
                &pool_a,
                JoinInput::Flat(&index_a),
                &pool_b,
                JoinInput::Flat(&index_b),
            )
            .unwrap();
        // Dense overlapping datasets: nearly every sweep step should ride
        // the previous step's partners.
        assert!(
            result.stats.frontier_reuses > result.stats.seed_descents,
            "stats: {:?}",
            result.stats
        );
        assert!(result.stats.outer_partitions > 0);
    }

    #[test]
    fn empty_inputs_join_to_nothing() {
        let (pool_a, index_a) = build(random_entries(100, 3), LeafLayout::WithIds);
        let (pool_b, index_b) = build(Vec::new(), LeafLayout::WithIds);
        let result = JoinEngine::new(5.0)
            .join(
                &pool_a,
                JoinInput::Flat(&index_a),
                &pool_b,
                JoinInput::Flat(&index_b),
            )
            .unwrap();
        assert!(result.pairs.is_empty());
        let result = JoinEngine::new(5.0)
            .join(
                &pool_b,
                JoinInput::Flat(&index_b),
                &pool_a,
                JoinInput::Flat(&index_a),
            )
            .unwrap();
        assert!(result.pairs.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_eps_is_rejected() {
        JoinEngine::new(-1.0);
    }
}
