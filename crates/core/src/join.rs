//! Exact ε-distance joins between two FLAT-indexed datasets by
//! co-crawling both neighbor-link graphs.
//!
//! The engine sweeps the outer dataset's partitions in storage order
//! (STR creation order, which is spatially coherent; an outer delta layer
//! lists its bulkload's partitions first, then its inserted ones), and for
//! each outer partition crawls the inner dataset's link graph with the
//! query box `page_mbr.inflate(ε)` — the same kernel as a range query
//! (`DeltaIndex::crawl_step`), under a [`CrawlVisitor`] that collects
//! candidates instead of hits — and scans the inner delta partitions that
//! meet the box, which the graph does not hold. Correctness leans on the same
//! exhaustiveness guarantee as range queries: if two elements are within
//! Euclidean distance ε, then every per-axis gap between their MBRs is at
//! most ε, so the inner element intersects the inflated box and the crawl
//! is guaranteed to reach its partition. Euclidean (not per-axis) pruning
//! is then applied at the partition, page, and element level via
//! [`Aabb::distance_sq`].
//!
//! The *co*-crawl saving: consecutive outer partitions are close in
//! space, so the inner partitions matched by one sweep step are reused
//! as crawl seeds for the next step — a crawl may start from several
//! records — and most steps never touch the inner seed tree at all
//! ([`JoinStats::frontier_reuses`] vs [`JoinStats::seed_descents`]).

use crate::delta::DeltaIndex;
use crate::error::FlatError;
use crate::index::FlatIndex;
use crate::meta::{MetaRecordId, MetaView};
use crate::query::{CrawlState, CrawlVisitor, LivePage, QueryStats};
use flat_geom::Aabb;
use flat_storage::{PageRead, StorageError};
use std::borrow::Cow;

/// One side of a distance join. Both sides may be the same index: a
/// self-join reports self-pairs `(x, x)` and both orientations of every
/// other pair.
#[derive(Clone, Copy)]
pub enum JoinInput<'a> {
    /// A bulkloaded, immutable index.
    Flat(&'a FlatIndex),
    /// An updatable index; tombstoned elements and retired partitions
    /// are invisible to the join.
    Delta(&'a DeltaIndex),
}

impl<'a> From<&'a FlatIndex> for JoinInput<'a> {
    fn from(index: &'a FlatIndex) -> Self {
        JoinInput::Flat(index)
    }
}

impl<'a> From<&'a DeltaIndex> for JoinInput<'a> {
    fn from(delta: &'a DeltaIndex) -> Self {
        JoinInput::Delta(delta)
    }
}

impl<'a> JoinInput<'a> {
    /// The side as the read path takes it: a bulkload becomes its
    /// unadopted [`DeltaIndex`] ([`FlatIndex::pristine`]).
    fn index(self) -> Cow<'a, DeltaIndex> {
        match self {
            JoinInput::Flat(index) => Cow::Owned(index.pristine()),
            JoinInput::Delta(delta) => Cow::Borrowed(delta),
        }
    }
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

/// The inner crawl's visitor for one outer partition: collects the inner
/// elements within ε of the outer page MBR and the partner partitions the
/// next sweep step starts from.
struct PartnerVisit<'s> {
    /// The outer page MBR inflated by ε: the box the inner crawl covers.
    query: Aabb,
    outer_mbr: Aabb,
    eps2: f64,
    stats: &'s mut JoinStats,
    /// `(id, MBR)` of every candidate inner element.
    candidates: &'s mut Vec<(u64, Aabb)>,
    /// `(record, partition MBR)` of every inner partition whose partition
    /// MBR intersects `query`.
    partners: &'s mut Vec<(MetaRecordId, Aabb)>,
}

impl CrawlVisitor for PartnerVisit<'_> {
    fn dequeued(&mut self, _queue_len: usize) {
        self.stats.crawl_records += 1;
    }

    fn wants_object(&mut self, page_mbr: &Aabb, _live: u64) -> bool {
        page_mbr.intersects(&self.query) && self.outer_mbr.distance_sq(page_mbr) <= self.eps2
    }

    fn scan(&mut self, page: &LivePage<'_>) {
        self.stats.object_pages_read += 1;
        let (outer_mbr, eps2) = (self.outer_mbr, self.eps2);
        let near = page
            .hits()
            .filter(|hit| outer_mbr.distance_sq(&hit.mbr) <= eps2);
        self.candidates.extend(near.map(|hit| (hit.id, hit.mbr)));
    }

    fn expands(&mut self, addr: MetaRecordId, record: &MetaView) -> bool {
        let partner = record.partition_mbr.intersects(&self.query);
        if partner {
            self.partners.push((addr, record.partition_mbr));
        }
        partner
    }
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
    // A documented panic, kept because `crates/benchmark` calls this
    // constructor; it becomes a `Result` (and `checked` goes) with the
    // next edit of that harness.
    #[allow(clippy::panic)]
    pub fn new(eps: f64) -> JoinEngine {
        Self::checked(eps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`JoinEngine::new`] for a distance that comes from a caller of the
    /// façade: a negative or non-finite `eps` is a [`FlatError::Query`].
    pub(crate) fn checked(eps: f64) -> Result<JoinEngine, FlatError> {
        if eps.is_finite() && eps >= 0.0 {
            Ok(JoinEngine { eps })
        } else {
            Err(FlatError::Query(format!(
                "join distance must be finite and non-negative, got {eps}"
            )))
        }
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
        let (outer, inner) = (outer.index(), inner.index());
        let eps2 = self.eps * self.eps;
        let mut stats = JoinStats::default();
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        // Partner partitions of the previous sweep step, and the scratch
        // every step reuses: the inner crawl's state, this step's partners
        // and its candidate elements.
        let mut frontier: Vec<(MetaRecordId, Aabb)> = Vec::new();
        let mut partners: Vec<(MetaRecordId, Aabb)> = Vec::new();
        let mut candidates: Vec<(u64, Aabb)> = Vec::new();
        let mut state = CrawlState::default();
        for op in outer.summaries(outer_pool)? {
            stats.outer_partitions += 1;
            let query = op.page_mbr.inflate(self.eps);

            // Seed the inner crawl: reuse the previous partners that are
            // still relevant (their partition MBR intersects the new
            // query box, so they belong to the connected subgraph the
            // crawl must cover — a retired partner too: the crawl follows
            // its links and skips its freed page), falling back to a
            // seed-tree descent. A descent that finds nothing leaves only
            // the delta partitions.
            state.clear();
            for (record, mbr) in &frontier {
                if mbr.intersects(&query) {
                    state.enqueue(*record);
                }
            }
            if state.is_idle() {
                let mut seed_stats = QueryStats::default();
                let seed = inner.seed(inner_pool, &query, &mut seed_stats)?;
                stats.object_pages_read += seed_stats.object_pages_read;
                stats.seed_descents += 1;
                if let Some(seed) = seed {
                    state.enqueue(seed);
                }
            } else {
                stats.frontier_reuses += 1;
            }

            // Crawl the inner graph under `query`, and scan the inner
            // delta partitions that meet it, collecting candidate
            // elements (Euclidean-pruned against the outer page MBR) and
            // this step's partner partitions.
            partners.clear();
            candidates.clear();
            let mut visit = PartnerVisit {
                query,
                outer_mbr: op.page_mbr,
                eps2,
                stats: &mut stats,
                candidates: &mut candidates,
                partners: &mut partners,
            };
            inner.offer_delta(&query, &mut state, &mut visit);
            inner.crawl(inner_pool, &mut state, &mut visit)?;
            std::mem::swap(&mut frontier, &mut partners);
            if candidates.is_empty() {
                continue;
            }

            // Verify against the outer partition's own elements.
            stats.object_pages_read += 1;
            let page = LivePage::read(outer_pool, op.object_page, outer.tombstones())?;
            for outer_hit in page.hits() {
                for (inner_id, inner_mbr) in &candidates {
                    stats.element_tests += 1;
                    if outer_hit.mbr.distance_sq(inner_mbr) <= eps2 {
                        pairs.push((outer_hit.id, *inner_id));
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
    use crate::index::{FlatIndex, FlatOptions};
    use flat_rtree::{Entry, LeafLayout};
    use flat_storage::ConcurrentBufferPool;

    fn options(layout: LeafLayout) -> FlatOptions {
        FlatOptions {
            layout,
            ..FlatOptions::default()
        }
    }

    fn build(
        entries: Vec<Entry>,
        layout: LeafLayout,
    ) -> (ConcurrentBufferPool<flat_storage::MemStore>, FlatIndex) {
        let mut pool = ConcurrentBufferPool::new(flat_storage::MemStore::new(), 4096);
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
