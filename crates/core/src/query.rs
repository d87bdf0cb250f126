//! FLAT query evaluation: the seed phase and the breadth-first crawl
//! (§V-B.1 and §VI, Algorithm 2).

use crate::index::FlatIndex;
use crate::meta::{decode_meta_record, meta_leaf_len, MetaRecord, MetaRecordId};
use flat_geom::Aabb;
use flat_rtree::node::{decode_inner, decode_leaf};
use flat_rtree::{Hit, LeafLayout};
use flat_storage::{PageId, PageKind, PageRead, StorageError};
use std::collections::{HashSet, VecDeque};

/// Deleted-element set of a [`crate::DeltaIndex`], keyed by physical
/// location `(object page, slot)` — the one identity that stays valid
/// under both leaf layouts and across delete-then-reinsert of the same
/// application id. `None` everywhere on the static query path.
pub(crate) type Tombstones = HashSet<(PageId, u16)>;

/// `true` when the element at `slot` of `page` is still live.
#[inline]
pub(crate) fn is_live(tombstones: Option<&Tombstones>, page: PageId, slot: usize) -> bool {
    tombstones.is_none_or(|t| !t.contains(&(page, slot as u16)))
}

/// Crawl-progress hooks the batched [`crate::QueryEngine`] uses to turn
/// traversal events into readahead hints. The serial query path passes
/// `None` and pays nothing; implementations must be pure hints — they can
/// neither fail a query nor change its results.
pub(crate) trait CrawlHinter {
    /// `page` (of `kind`) was just scheduled for a future read.
    fn upcoming_page(&self, page: PageId, kind: PageKind);

    /// Record `addr` was just enqueued; `wants_object` says whether the
    /// record's object page will be scanned if the record looks like
    /// `MetaRecord` when decoded (the hinter may not know yet — it only
    /// acts when it can decode `addr` from an already-cached page).
    fn enqueued_record(&self, addr: MetaRecordId, wants_object: &dyn Fn(&MetaRecord) -> bool);
}

/// Per-query counters (the CPU/bookkeeping side of §VII-E.2; the I/O side
/// is in the pool's [`flat_storage::IoStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Elements returned.
    pub result_count: u64,
    /// Metadata records dequeued and processed by the crawl.
    pub records_processed: u64,
    /// Object pages read (logically) across both phases.
    pub object_pages_read: u64,
    /// Object pages probed by the seed phase before one with a matching
    /// element was found.
    pub seed_probe_pages: u64,
    /// High-water mark of the BFS queue — the paper reports the crawl's
    /// bookkeeping at "0.9 % of the size of the result set".
    pub max_queue_len: usize,
    /// Total records ever enqueued (size of the visited/seen set).
    pub records_seen: u64,
    /// MBR–query intersection tests performed.
    pub mbr_tests: u64,
}

impl QueryStats {
    /// Approximate bytes of crawl bookkeeping (queue + visited set), the
    /// quantity §VII-E.2 relates to the result-set size.
    pub fn bookkeeping_bytes(&self) -> u64 {
        let record_ref = std::mem::size_of::<MetaRecordId>() as u64;
        self.records_seen * record_ref + self.max_queue_len as u64 * record_ref
    }
}

impl FlatIndex {
    /// Evaluates a range query: seed phase then breadth-first crawl.
    ///
    /// Queries are shared reads (`&self` on both the index and the pool):
    /// any [`PageRead`] implementation works, including a
    /// [`flat_storage::ConcurrentBufferPool`] serving many query threads
    /// over one index.
    pub fn range_query(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<Vec<Hit>, StorageError> {
        let mut stats = QueryStats::default();
        self.range_query_with_stats(pool, query, &mut stats)
    }

    /// Like [`FlatIndex::range_query`], accumulating counters into `stats`.
    pub fn range_query_with_stats(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut QueryStats,
    ) -> Result<Vec<Hit>, StorageError> {
        let mut hits = Vec::new();
        let Some(seed) = self.seed(pool, query, stats, None, None)? else {
            return Ok(hits); // "If no object page can be found, then the
                             // query has no result" (§V-B.1).
        };
        let mut state = CrawlState::start(seed);
        while !self.crawl_step(pool, query, &mut state, stats, &mut hits, None, None)? {}
        stats.result_count = hits.len() as u64;
        Ok(hits)
    }

    /// The seed phase (§V-B.1): walk a single path of the seed tree
    /// (early-exit DFS), reading candidate object pages until one actually
    /// contains a (live) element intersecting the query.
    ///
    /// `tombstones` is the delta layer's deleted-element set: probes skip
    /// tombstoned elements, and records whose partitions were retired
    /// (dead flag) are never entry points — their object pages are freed.
    pub(crate) fn seed(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut QueryStats,
        hinter: Option<&dyn CrawlHinter>,
        tombstones: Option<&Tombstones>,
    ) -> Result<Option<MetaRecordId>, StorageError> {
        let Some(root) = self.seed_root else {
            return Ok(None);
        };
        let mut stack = vec![(root, self.seed_height)];
        while let Some((page_id, level)) = stack.pop() {
            if level == 1 {
                // A metadata leaf: probe its records.
                let leaf = pool.read_page(page_id, PageKind::SeedLeaf)?;
                let count = meta_leaf_len(&leaf)?;
                for slot in 0..count as u16 {
                    let record = decode_meta_record(&leaf, slot)?;
                    // Continuation chunks are not crawl entry points: a
                    // crawl seeded mid-chain would only reach the tail of
                    // the over-full neighbor list. Dead records have no
                    // object page at all.
                    if record.is_continuation || record.is_dead {
                        continue;
                    }
                    stats.mbr_tests += 1;
                    if !record.page_mbr.intersects(query) {
                        continue;
                    }
                    // Candidate: check the object page for a real element.
                    stats.object_pages_read += 1;
                    let found = {
                        let page = pool.read_page(record.object_page, PageKind::ObjectPage)?;
                        let (_, entries) = decode_leaf(&page)?;
                        stats.mbr_tests += entries.len() as u64;
                        entries.iter().enumerate().any(|(s, e)| {
                            is_live(tombstones, record.object_page, s) && query.intersects(&e.mbr)
                        })
                    };
                    if found {
                        return Ok(Some(MetaRecordId {
                            page: page_id,
                            slot,
                        }));
                    }
                    stats.seed_probe_pages += 1;
                }
            } else {
                let page = pool.read_page(page_id, PageKind::SeedInner)?;
                for child in decode_inner(&page)? {
                    stats.mbr_tests += 1;
                    if query.intersects(&child.mbr) {
                        stack.push((child.page, level - 1));
                        if let Some(h) = hinter {
                            let kind = if level - 1 == 1 {
                                PageKind::SeedLeaf
                            } else {
                                PageKind::SeedInner
                            };
                            h.upcoming_page(child.page, kind);
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    /// Runs one crawl turn — a **wave**: up to [`WAVE`] records drained from
    /// the front of the BFS queue and processed in queue order. Returns
    /// `true` when the crawl is finished.
    ///
    /// A wave tells the pool about its reads before it blocks on any of
    /// them ([`PageRead::want_pages`]): first the wave's distinct metadata
    /// pages, then — once the records are decoded — the object pages of
    /// the records whose page MBR intersects the query. Both sets are
    /// certain reads, not guesses, so a pool that can overlap device
    /// fetches ([`flat_storage::DiskScheduler`]) serves a wave in a few
    /// overlapped round trips instead of one per page; pools that cannot
    /// ignore the announcement.
    ///
    /// The wave changes *when* the pool hears about a page, nothing else.
    /// Records leave the queue in FIFO order and are scanned and expanded
    /// in that same order, and every expansion appends behind everything
    /// still queued, so the sequence of `seen.insert` calls — hence the
    /// queue contents, the hits and their order, and every counter in
    /// [`QueryStats`] — is that of processing one record per turn. The
    /// queue length a one-record turn would have observed when it popped
    /// record `i` of the wave is the rest of the wave plus what is queued
    /// behind it, which is what `max_queue_len` records. Each record still
    /// costs one logical metadata read, each intersecting page MBR one
    /// logical object read; only the order of reads inside a wave differs
    /// (metadata first), which a small LRU cache may notice as a handful of
    /// physical reads either way.
    ///
    /// The serial [`FlatIndex::range_query`] simply loops this to
    /// completion; the batched [`crate::QueryEngine`] interleaves waves of
    /// many queries so their I/O overlaps. Because each query's own turn
    /// order is untouched, the two produce identical results — same hits,
    /// same order.
    ///
    /// One deliberate fix to the paper's pseudocode: Algorithm 2 only
    /// inserts a page into `visited` when its page MBR intersects the
    /// query, which would let two mutually neighboring records with
    /// non-intersecting page MBRs (but intersecting partition MBRs)
    /// re-enqueue each other forever. We track *enqueued* records instead
    /// ("seen"), which preserves the intended I/O behaviour — every record
    /// is processed at most once, every object page read at most once —
    /// and guarantees termination.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn crawl_step(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        state: &mut CrawlState,
        stats: &mut QueryStats,
        hits: &mut Vec<Hit>,
        hinter: Option<&dyn CrawlHinter>,
        tombstones: Option<&Tombstones>,
    ) -> Result<bool, StorageError> {
        let CrawlState {
            queue,
            seen,
            wave,
            records,
            wants,
        } = state;
        wave.clear();
        wave.extend(queue.drain(..queue.len().min(WAVE)));

        // Metadata pages of the wave: announced together, then read one
        // record at a time (one logical read per record).
        wants.clear();
        for addr in wave.iter() {
            want_meta_page(wants, addr.page);
        }
        pool.want_pages(wants);
        records.clear();
        for addr in wave.iter() {
            let page = pool.read_page(addr.page, PageKind::SeedLeaf)?;
            records.push(decode_meta_record(&page, addr.slot)?);
        }

        // "the object page is only read from disk if M's page MBR
        // intersects with the query" (§VI) — so exactly these will be.
        wants.clear();
        for record in records.iter() {
            if !record.is_dead && record.page_mbr.intersects(query) {
                wants.push((record.object_page, PageKind::ObjectPage));
            }
        }
        pool.want_pages(wants);

        for (done, record) in records.drain(..).enumerate() {
            stats.max_queue_len = stats.max_queue_len.max(wave.len() - done + queue.len());
            stats.records_processed += 1;
            // Retirement prunes every link to a dead record, so the crawl
            // can only land on one through a stale seed — never expand it
            // (its object page is freed).
            debug_assert!(!record.is_dead, "crawl reached a dead record");
            if record.is_dead {
                continue;
            }

            stats.mbr_tests += 1;
            if record.page_mbr.intersects(query) {
                stats.object_pages_read += 1;
                let page = pool.read_page(record.object_page, PageKind::ObjectPage)?;
                let (layout, entries) = decode_leaf(&page)?;
                for (slot, entry) in entries.iter().enumerate() {
                    stats.mbr_tests += 1;
                    if is_live(tombstones, record.object_page, slot) && query.intersects(&entry.mbr)
                    {
                        let id = match layout {
                            LeafLayout::MbrOnly => (record.object_page.0 << 16) | entry.id,
                            LeafLayout::WithIds => entry.id,
                        };
                        hits.push(Hit {
                            mbr: entry.mbr,
                            id,
                            page: record.object_page,
                            slot: slot as u16,
                        });
                    }
                }
            }

            // "the neighbor pointers stored in a metadata record M are only
            // followed if M's partition MBR intersects with the query"
            // (§VI).
            stats.mbr_tests += 1;
            if record.partition_mbr.intersects(query) {
                let wants_object = |r: &MetaRecord| r.page_mbr.intersects(query);
                let mut enqueue = |neighbors: Vec<MetaRecordId>| {
                    for neighbor in neighbors {
                        if seen.insert(neighbor) {
                            queue.push_back(neighbor);
                            if let Some(h) = hinter {
                                h.enqueued_record(neighbor, &wants_object);
                            }
                        }
                    }
                };
                enqueue(record.neighbors);
                // Over-full neighbor lists spill into continuation records
                // (see `meta`); follow the chain, charging the reads like
                // any other metadata access.
                let mut next = record.continuation;
                while let Some(addr) = next {
                    let chunk = {
                        let page = pool.read_page(addr.page, PageKind::SeedLeaf)?;
                        decode_meta_record(&page, addr.slot)?
                    };
                    enqueue(chunk.neighbors);
                    next = chunk.continuation;
                }
            }
        }
        // Monotone running value; once the queue drains this equals the
        // size of the visited set, matching the serial accounting.
        stats.records_seen = seen.len() as u64;
        Ok(queue.is_empty())
    }

    /// Runs only the seed phase, returning the address of the seed record
    /// (for instrumentation and the seed-cost experiments).
    pub fn seed_only(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<Option<(PageId, u16)>, StorageError> {
        let mut stats = QueryStats::default();
        Ok(self
            .seed(pool, query, &mut stats, None, None)?
            .map(|r| (r.page, r.slot)))
    }
}

/// Adds metadata page `page` to an announcement unless it is already
/// listed. A linear scan: the lists are a wave long at most, and records
/// queued together mostly share pages.
pub(crate) fn want_meta_page(wants: &mut Vec<(PageId, PageKind)>, page: PageId) {
    if !wants.iter().any(|&(listed, _)| listed == page) {
        wants.push((page, PageKind::SeedLeaf));
    }
}

/// Records one crawl turn takes off the queue. Large enough that a wave's
/// fetches fill a device queue several times over (so the tail of one
/// batch of round trips overlaps the head of the next), small enough that
/// a wave's pages fit comfortably in the smallest caches in use.
const WAVE: usize = 32;

/// The resumable state of one query's crawl phase: the BFS queue and the
/// visited ("seen") set. Produced by [`CrawlState::start`] from a seed
/// record and advanced one wave at a time by `FlatIndex::crawl_step`.
#[derive(Debug, Default)]
pub(crate) struct CrawlState {
    pub(crate) queue: VecDeque<MetaRecordId>,
    pub(crate) seen: HashSet<MetaRecordId>,
    // Scratch of the wave in progress, kept here so a crawl allocates it
    // once: the drained addresses, their decoded records, and the page
    // list being announced.
    wave: Vec<MetaRecordId>,
    records: Vec<MetaRecord>,
    wants: Vec<(PageId, PageKind)>,
}

impl CrawlState {
    /// A crawl about to process `seed` as its first record.
    pub(crate) fn start(seed: MetaRecordId) -> CrawlState {
        let mut state = CrawlState::default();
        state.seen.insert(seed);
        state.queue.push_back(seed);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{FlatIndex, FlatOptions};
    use flat_geom::Point3;
    use flat_rtree::Entry;
    use flat_storage::{BufferPool, MemStore};
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
                Entry::new(i as u64, Aabb::cube(c, rng.gen_range(0.05..0.5)))
            })
            .collect()
    }

    fn brute_force(entries: &[Entry], q: &Aabb) -> Vec<Aabb> {
        let mut v: Vec<Aabb> = entries
            .iter()
            .filter(|e| q.intersects(&e.mbr))
            .map(|e| e.mbr)
            .collect();
        v.sort_by(|a, b| {
            a.min
                .x
                .total_cmp(&b.min.x)
                .then(a.min.y.total_cmp(&b.min.y))
                .then(
                    a.min
                        .z
                        .total_cmp(&b.min.z)
                        .then(a.max.x.total_cmp(&b.max.x)),
                )
        });
        v
    }

    fn build(
        n: usize,
        seed: u64,
        options: FlatOptions,
    ) -> (BufferPool<MemStore>, FlatIndex, Vec<Entry>) {
        let entries = random_entries(n, seed);
        let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options).unwrap();
        (pool, index, entries)
    }

    #[test]
    fn flat_results_match_brute_force() {
        let (pool, index, entries) = build(20_000, 101, FlatOptions::default());
        for (c, side) in [(10.0, 4.0), (50.0, 15.0), (90.0, 2.0), (30.0, 40.0)] {
            let q = Aabb::cube(Point3::splat(c), side);
            let mut got: Vec<Aabb> = index
                .range_query(&pool, &q)
                .unwrap()
                .iter()
                .map(|h| h.mbr)
                .collect();
            got.sort_by(|a, b| {
                a.min
                    .x
                    .total_cmp(&b.min.x)
                    .then(a.min.y.total_cmp(&b.min.y))
                    .then(
                        a.min
                            .z
                            .total_cmp(&b.min.z)
                            .then(a.max.x.total_cmp(&b.max.x)),
                    )
            });
            assert_eq!(got, brute_force(&entries, &q), "query at {c} side {side}");
        }
    }

    #[test]
    fn empty_region_returns_nothing() {
        // Data only fills [0,100]³; query far outside the domain (the
        // tiling doesn't even cover it).
        let (pool, index, _) = build(5000, 103, FlatOptions::default());
        let q = Aabb::cube(Point3::splat(1000.0), 5.0);
        assert!(index.range_query(&pool, &q).unwrap().is_empty());
    }

    #[test]
    fn hole_inside_domain_returns_nothing_without_crashing() {
        // Two clusters with an empty corridor between them; a query inside
        // the corridor intersects tiles but no elements.
        let mut entries = Vec::new();
        let mut rng = StdRng::seed_from_u64(104);
        for i in 0..4000u64 {
            let x = if i % 2 == 0 {
                rng.gen_range(0.0..30.0)
            } else {
                rng.gen_range(70.0..100.0)
            };
            let c = Point3::new(x, rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            entries.push(Entry::new(i, Aabb::cube(c, 0.3)));
        }
        let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) =
            FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default()).unwrap();
        let q = Aabb::cube(Point3::new(50.0, 50.0, 50.0), 6.0);
        let expected = brute_force(&entries, &q);
        let got = index.range_query(&pool, &q).unwrap();
        assert_eq!(got.len(), expected.len());
    }

    #[test]
    fn crawl_crosses_concave_regions() {
        // The problem crawling approaches like DLS cannot handle (§II):
        // the query spans two disconnected clusters. FLAT's tiling must
        // bridge the gap because partitions tile the *space*, not the data.
        let mut entries = Vec::new();
        let mut rng = StdRng::seed_from_u64(105);
        for i in 0..3000u64 {
            let x = if i % 2 == 0 {
                rng.gen_range(0.0..20.0)
            } else {
                rng.gen_range(80.0..100.0)
            };
            let c = Point3::new(x, rng.gen_range(40.0..60.0), rng.gen_range(40.0..60.0));
            entries.push(Entry::new(i, Aabb::cube(c, 0.3)));
        }
        let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) =
            FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default()).unwrap();
        // Query spanning both clusters and the void between them.
        let q = Aabb::from_corners(Point3::new(10.0, 45.0, 45.0), Point3::new(90.0, 55.0, 55.0));
        let expected = brute_force(&entries, &q);
        let got = index.range_query(&pool, &q).unwrap();
        assert_eq!(
            got.len(),
            expected.len(),
            "crawl failed to cross the concave gap"
        );
        assert!(!got.is_empty());
    }

    #[test]
    fn whole_domain_query_returns_everything_once() {
        let (pool, index, entries) = build(10_000, 106, FlatOptions::default());
        let q = Aabb::cube(Point3::splat(50.0), 250.0);
        let hits = index.range_query(&pool, &q).unwrap();
        assert_eq!(hits.len(), entries.len());
        let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), entries.len(), "duplicate results");
    }

    #[test]
    fn stats_reflect_the_workload() {
        let (pool, index, _) = build(20_000, 107, FlatOptions::default());
        let mut stats = QueryStats::default();
        let q = Aabb::cube(Point3::splat(50.0), 20.0);
        let hits = index.range_query_with_stats(&pool, &q, &mut stats).unwrap();
        assert_eq!(stats.result_count, hits.len() as u64);
        assert!(stats.records_processed > 0);
        assert!(stats.object_pages_read > 0);
        assert!(stats.max_queue_len > 0);
        assert!(stats.mbr_tests > stats.records_processed);
        assert!(stats.bookkeeping_bytes() > 0);
    }

    #[test]
    fn object_pages_are_read_at_most_once_per_query() {
        let (pool, index, _) = build(20_000, 108, FlatOptions::default());
        pool.clear_cache();
        pool.reset_stats();
        let q = Aabb::cube(Point3::splat(50.0), 25.0);
        let _ = index.range_query(&pool, &q).unwrap();
        let stats = pool.stats();
        // Physical object reads can't exceed the number of object pages —
        // and with the seen-set, logical reads equal physical reads plus
        // seed-phase cache hits only.
        assert!(
            stats.kind(PageKind::ObjectPage).physical_reads <= index.num_object_pages(),
            "an object page was read twice from disk"
        );
    }

    #[test]
    fn with_ids_layout_returns_application_ids() {
        let (pool, index, entries) = build(
            5000,
            109,
            FlatOptions {
                layout: LeafLayout::WithIds,
                ..Default::default()
            },
        );
        let q = Aabb::cube(Point3::splat(50.0), 250.0);
        let mut ids: Vec<u64> = index
            .range_query(&pool, &q)
            .unwrap()
            .iter()
            .map(|h| h.id)
            .collect();
        ids.sort_unstable();
        let mut expected: Vec<u64> = entries.iter().map(|e| e.id).collect();
        expected.sort_unstable();
        assert_eq!(ids, expected);
    }

    #[test]
    fn seed_only_finds_a_record_for_nonempty_queries() {
        let (pool, index, _) = build(10_000, 110, FlatOptions::default());
        let q = Aabb::cube(Point3::splat(40.0), 10.0);
        assert!(index.seed_only(&pool, &q).unwrap().is_some());
        let empty = Aabb::cube(Point3::splat(-500.0), 1.0);
        assert!(index.seed_only(&pool, &empty).unwrap().is_none());
    }

    #[test]
    fn point_query_works() {
        let (pool, index, entries) = build(10_000, 111, FlatOptions::default());
        // Use an element center so the query is guaranteed non-empty.
        let target = entries[1234].mbr.center();
        let q = Aabb::point(target);
        let expected = brute_force(&entries, &q);
        let got = index.range_query(&pool, &q).unwrap();
        assert_eq!(got.len(), expected.len());
        assert!(!got.is_empty());
    }

    #[test]
    fn continuation_chains_preserve_correctness() {
        // A few enormous elements stretch their partitions across the
        // whole domain, giving them neighbor lists far beyond one page's
        // capacity — the build must chain records and the crawl must still
        // return exact results.
        let mut entries = random_entries(60_000, 112);
        for i in 0..5u64 {
            let lo = Point3::splat(1.0 + i as f64);
            let hi = Point3::splat(99.0 - i as f64);
            entries.push(Entry::new(70_000 + i, Aabb::from_corners(lo, hi)));
        }
        let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
        let (index, stats) =
            FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default()).unwrap();
        let max_single = crate::meta::max_neighbors_per_record() as u32;
        assert!(
            stats.neighbor_counts.iter().any(|&c| c > max_single),
            "test setup must force continuation chains (max count {})",
            stats.neighbor_counts.iter().max().unwrap()
        );
        for (c, side) in [(50.0, 10.0), (20.0, 30.0), (50.0, 250.0)] {
            let q = Aabb::cube(Point3::splat(c), side);
            let expected = brute_force(&entries, &q);
            let got = index.range_query(&pool, &q).unwrap();
            assert_eq!(got.len(), expected.len(), "query at {c} side {side}");
        }
    }

    #[test]
    fn empty_index_answers_queries() {
        let mut pool = BufferPool::new(MemStore::new(), 16);
        let (index, _) = FlatIndex::build(&mut pool, Vec::new(), FlatOptions::default()).unwrap();
        let q = Aabb::cube(Point3::ORIGIN, 10.0);
        assert!(index.range_query(&pool, &q).unwrap().is_empty());
    }
}
