//! Aggregate queries over the neighbor-link graph: `aggregate_count` and
//! `aggregate_density` (extension).
//!
//! An aggregate crawl visits exactly the records a range crawl would —
//! same seed, same kernel (`IndexRef::crawl_step`), same expansion rule —
//! but its [`CrawlVisitor`] materializes no hits. Its payoff is the
//! **containment early-exit**: when a record's page MBR is fully contained
//! in the query region, every element on the page matches (the build
//! guarantees element MBR ⊆ page MBR), so the per-element intersection
//! tests are skipped. The delta layer goes one step further: its resident
//! summary table already knows each partition's live count, so a contained
//! partition contributes without its object page being wanted at all — it
//! is neither announced nor read, and for large query regions most of the
//! result is counted from memory while only the query's *boundary* pages
//! are read.

use crate::delta::DeltaIndex;
use crate::index::FlatIndex;
use crate::meta::{MetaRecordId, MetaView};
use crate::query::{CrawlState, CrawlVisitor, IndexRef, LivePage, QueryStats};
use flat_geom::Aabb;
use flat_storage::{PageRead, StorageError};

/// Per-aggregate counters: the crawl side plus the early-exit bookkeeping
/// (how much work the containment rule saved).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregateStats {
    /// Metadata records dequeued and processed by the crawl.
    pub records_processed: u64,
    /// Object pages read.
    pub object_pages_read: u64,
    /// Partitions whose page MBR was fully contained in the query — their
    /// elements were counted without per-element intersection tests.
    pub contained_partitions: u64,
    /// Contained partitions counted from the resident summary table
    /// without reading the object page at all (delta layer only).
    pub pages_skipped: u64,
    /// MBR–query tests performed.
    pub mbr_tests: u64,
}

/// The aggregate's visitor: a range crawl with hit materialization
/// replaced by counting and the containment early-exit.
struct CountVisit<'q> {
    index: IndexRef<'q>,
    query: &'q Aabb,
    stats: &'q mut AggregateStats,
    count: u64,
}

impl CrawlVisitor for CountVisit<'_> {
    fn dequeued(&mut self, _queue_len: usize) {
        self.stats.records_processed += 1;
    }

    fn wants_object(&mut self, addr: MetaRecordId, record: &MetaView) -> bool {
        self.stats.mbr_tests += 1;
        if !record.page_mbr.intersects(self.query) {
            return false;
        }
        self.stats.mbr_tests += 1;
        if self.query.contains(&record.page_mbr) {
            // Containment early-exit: every live element on the page
            // matches (element ⊆ page MBR ⊆ query).
            self.stats.contained_partitions += 1;
            if let Some(live) = self.index.live_count_at(addr) {
                // The resident summary already excludes tombstones: no
                // I/O at all for this partition.
                self.stats.pages_skipped += 1;
                self.count += live;
                return false;
            }
        }
        true
    }

    fn scan(&mut self, record: &MetaView, page: &LivePage<'_>) {
        self.stats.object_pages_read += 1;
        if self.query.contains(&record.page_mbr) {
            self.count += page.hits().count() as u64;
        } else {
            self.stats.mbr_tests += page.slots() as u64;
            let query = self.query;
            self.count += page.hits().filter(|h| query.intersects(&h.mbr)).count() as u64;
        }
    }

    fn expands(&mut self, _addr: MetaRecordId, record: &MetaView) -> bool {
        self.stats.mbr_tests += 1;
        record.partition_mbr.intersects(self.query)
    }
}

/// Density = count / query volume; zero-volume queries (points, slabs)
/// have no meaningful density and report zero.
pub(crate) fn density(count: u64, query: &Aabb) -> f64 {
    let volume = query.volume();
    if volume > 0.0 {
        count as f64 / volume
    } else {
        0.0
    }
}

impl IndexRef<'_> {
    /// Counts the live elements intersecting `query`, accumulating
    /// counters into `stats`.
    pub(crate) fn aggregate_count_with_stats(
        self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut AggregateStats,
    ) -> Result<u64, StorageError> {
        let mut seed_stats = QueryStats::default();
        let Some(seed) = self.seed(pool, query, &mut seed_stats)? else {
            return Ok(0);
        };
        stats.object_pages_read += seed_stats.object_pages_read;
        stats.mbr_tests += seed_stats.mbr_tests;
        let mut visit = CountVisit {
            index: self,
            query,
            stats,
            count: 0,
        };
        self.crawl(pool, &mut CrawlState::start(seed), &mut visit)?;
        Ok(visit.count)
    }
}

impl FlatIndex {
    /// Counts the elements intersecting `query` — the same answer as
    /// `range_query(..).len()`, without materializing the hits and with
    /// per-element tests skipped for partitions fully contained in the
    /// query (the containment early-exit).
    pub fn aggregate_count(&self, pool: &impl PageRead, query: &Aabb) -> Result<u64, StorageError> {
        self.aggregate_count_with_stats(pool, query, &mut AggregateStats::default())
    }

    /// Like [`FlatIndex::aggregate_count`], accumulating counters.
    pub fn aggregate_count_with_stats(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut AggregateStats,
    ) -> Result<u64, StorageError> {
        IndexRef::Flat(self).aggregate_count_with_stats(pool, query, stats)
    }

    /// Elements per unit volume inside `query` (zero for degenerate
    /// query boxes).
    pub fn aggregate_density(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<f64, StorageError> {
        Ok(density(self.aggregate_count(pool, query)?, query))
    }
}

impl DeltaIndex {
    /// Counts the live elements intersecting `query`, exactly as a fresh
    /// rebuild over the survivors would. Partitions fully contained in
    /// the query are counted from the resident summary table without any
    /// object-page I/O.
    pub fn aggregate_count(&self, pool: &impl PageRead, query: &Aabb) -> Result<u64, StorageError> {
        self.aggregate_count_with_stats(pool, query, &mut AggregateStats::default())
    }

    /// Like [`DeltaIndex::aggregate_count`], accumulating counters.
    pub fn aggregate_count_with_stats(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut AggregateStats,
    ) -> Result<u64, StorageError> {
        IndexRef::Delta(self).aggregate_count_with_stats(pool, query, stats)
    }

    /// Live elements per unit volume inside `query` (zero for degenerate
    /// query boxes).
    pub fn aggregate_density(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<f64, StorageError> {
        Ok(density(self.aggregate_count(pool, query)?, query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::random_entries;
    use crate::index::FlatOptions;
    use flat_geom::Point3;
    use flat_rtree::{Entry, LeafLayout};
    use flat_storage::{ConcurrentBufferPool, MemStore};

    fn build(n: usize, seed: u64) -> (ConcurrentBufferPool<MemStore>, FlatIndex, Vec<Entry>) {
        let entries = random_entries(n, seed);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) =
            FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default()).unwrap();
        (pool, index, entries)
    }

    #[test]
    fn counts_match_range_query_and_brute_force() {
        let (pool, index, entries) = build(15_000, 71);
        for (c, side) in [(50.0, 10.0), (30.0, 45.0), (50.0, 300.0), (90.0, 2.0)] {
            let q = Aabb::cube(Point3::splat(c), side);
            let expected = entries.iter().filter(|e| q.intersects(&e.mbr)).count() as u64;
            assert_eq!(index.aggregate_count(&pool, &q).unwrap(), expected);
            assert_eq!(index.range_query(&pool, &q).unwrap().len() as u64, expected);
        }
    }

    #[test]
    fn large_queries_trigger_the_containment_early_exit() {
        let (pool, index, entries) = build(15_000, 72);
        let q = Aabb::cube(Point3::splat(50.0), 300.0);
        let mut stats = AggregateStats::default();
        let count = index
            .aggregate_count_with_stats(&pool, &q, &mut stats)
            .unwrap();
        assert_eq!(count, entries.len() as u64);
        assert!(
            stats.contained_partitions > 0,
            "whole-domain query contained no partition: {stats:?}"
        );
    }

    #[test]
    fn density_is_count_over_volume_and_zero_for_degenerate_boxes() {
        let (pool, index, _) = build(5_000, 73);
        let q = Aabb::cube(Point3::splat(50.0), 20.0);
        let count = index.aggregate_count(&pool, &q).unwrap();
        let d = index.aggregate_density(&pool, &q).unwrap();
        assert!((d - count as f64 / q.volume()).abs() < 1e-12);
        let point = Aabb::point(Point3::splat(50.0));
        assert_eq!(index.aggregate_density(&pool, &point).unwrap(), 0.0);
    }

    #[test]
    fn empty_region_counts_zero() {
        let (pool, index, _) = build(2_000, 74);
        let q = Aabb::cube(Point3::splat(-500.0), 3.0);
        assert_eq!(index.aggregate_count(&pool, &q).unwrap(), 0);
    }

    #[test]
    fn delta_counts_survive_churn_and_skip_contained_pages() {
        let entries = random_entries(8_000, 75);
        let options = FlatOptions {
            layout: LeafLayout::WithIds,
            domain: Some(Aabb::new(Point3::splat(0.0), Point3::splat(100.0))),
            ..FlatOptions::default()
        };
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options).unwrap();
        let mut delta = DeltaIndex::new(&pool, index, options).unwrap();
        let doomed: Vec<u64> = entries
            .iter()
            .map(|e| e.id)
            .filter(|i| i % 5 == 0)
            .collect();
        delta.delete_batch(&mut pool, &doomed).unwrap();
        let fresh: Vec<Entry> = random_entries(900, 76)
            .into_iter()
            .map(|e| Entry::new(e.id + 1_000_000, e.mbr))
            .collect();
        let mut live: Vec<Entry> = entries.iter().filter(|e| e.id % 5 != 0).copied().collect();
        live.extend(fresh.iter().copied());
        delta.insert_batch(&mut pool, fresh).unwrap();

        for (c, side) in [(50.0, 15.0), (40.0, 60.0), (50.0, 300.0)] {
            let q = Aabb::cube(Point3::splat(c), side);
            let expected = live.iter().filter(|e| q.intersects(&e.mbr)).count() as u64;
            assert_eq!(delta.aggregate_count(&pool, &q).unwrap(), expected);
        }
        // Whole-domain aggregate: contained partitions come straight from
        // the summary table.
        let q = Aabb::cube(Point3::splat(50.0), 300.0);
        let mut stats = AggregateStats::default();
        let count = delta
            .aggregate_count_with_stats(&pool, &q, &mut stats)
            .unwrap();
        assert_eq!(count, live.len() as u64);
        assert!(stats.pages_skipped > 0, "no page read skipped: {stats:?}");
        assert!(stats.object_pages_read < delta.num_live_partitions() as u64);
    }
}
