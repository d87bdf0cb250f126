//! Batched query execution with crawl-ahead prefetching.
//!
//! The serial query path ([`crate::FlatIndex::range_query`]) evaluates one query
//! at a time: seed, then crawl, each page read paid for as it is needed.
//! Under the paper's I/O-bound regime (97.8–98.8 % disk time, §VII-E.2)
//! that leaves the device idle whenever the CPU is decoding and the CPU
//! idle whenever the device is seeking. A deployment serving many clients
//! receives queries in *batches*, and a batch exposes two kinds of slack
//! the serial path cannot use:
//!
//! 1. **Shared pages.** Queries of one batch re-read the same seed-tree
//!    directory pages, and overlapping queries share metadata and object
//!    pages. The engine routes every read through a per-batch page cache,
//!    so each page is fetched from the pool **once per batch** no matter
//!    how many queries touch it.
//! 2. **Predictable future reads.** The crawl announces its future — every
//!    enqueued neighbor names the metadata page (and usually the object
//!    page) a later turn will read. The engine forwards those as
//!    **readahead hints** to dedicated prefetch threads driving
//!    [`PageRead::prefetch_page`], so the device works on upcoming pages
//!    while the engine scans the current one, and interleaves the crawl
//!    turns of all queries round-robin so there is always a hint in flight.
//!
//! Results are **identical** to running each query serially — same hits in
//! the same order — because the engine advances each query through the
//! exact serial seed and crawl-step code (the same [`IndexRef`] view, the
//! same kernel, the same range visitor, plus a hinter); only the
//! page-fetch timing changes. `exp_batch` in the benchmark crate measures
//! the payoff over a throttled device store.

use crate::knn::{KnnStats, Neighbor};
use crate::meta::{decode_meta_record, MetaRecord, MetaRecordId};
use crate::query::{CrawlHinter, CrawlState, IndexRef, RangeVisit};
use crate::QueryStats;
use flat_geom::{Aabb, Point3};
use flat_storage::{IoStats, Page, PageId, PageKind, PageRead, StorageError};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Tuning knobs for the [`QueryEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of readahead worker threads serving prefetch hints; `0`
    /// disables prefetching (the batch still deduplicates page fetches).
    /// Each worker blocks on one speculative fetch at a time, so this is
    /// the effective readahead depth against the device.
    pub readahead_threads: usize,
    /// How many queries crawl concurrently (round-robin) at a time; the
    /// rest wait their turn. Bounding the wave keeps the gap between a
    /// crawl-ahead hint and its demand read short enough that the
    /// prefetched page is still cached when the demand read arrives —
    /// with an unbounded wave a hint precedes its use by a full pass over
    /// the entire batch, and a small pool evicts the page in between.
    /// `None` (default) picks a multiple of `readahead_threads`.
    pub wave_size: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            readahead_threads: 4,
            wave_size: None,
        }
    }
}

impl EngineConfig {
    fn effective_wave(&self) -> usize {
        match self.wave_size {
            Some(w) => w.max(1),
            // Without prefetching the wave only shapes cache locality, so
            // any bound works; with prefetching, ~8 in-flight queries per
            // readahead worker keeps the workers busy while keeping the
            // hint-to-use distance within cache lifetime.
            None if self.readahead_threads == 0 => usize::MAX,
            None => (self.readahead_threads * 8).max(16),
        }
    }
}

/// What a range-query batch did, alongside its per-query results.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-query hit lists, index-aligned with the submitted queries and
    /// identical (order included) to serial [`crate::FlatIndex::range_query`].
    pub results: Vec<Vec<flat_rtree::Hit>>,
    /// Per-query crawl counters, index-aligned with the queries.
    pub query_stats: Vec<QueryStats>,
    /// Distinct pages pulled from the pool — the batch's real I/O footprint.
    pub pages_fetched: u64,
    /// Total page accesses the queries made; `page_requests -
    /// pages_fetched` reads were absorbed by the batch cache (pages shared
    /// between queries or revisited by one query).
    pub page_requests: u64,
    /// Readahead hints handed to the prefetch workers.
    pub prefetch_hints: u64,
    /// Pool-level I/O delta over the batch — physical reads, prefetch
    /// hits, and the prefetch-waste split ([`IoStats::total_prefetched_unused`]
    /// vs [`IoStats::total_prefetch_evicted`]). Filled by the
    /// [`crate::QueryBuilder`] terminals, which own the pool; a bare
    /// [`QueryEngine`] over a borrowed [`flat_storage::PageRead`] cannot
    /// observe pool counters and leaves it zeroed.
    pub io: IoStats,
}

/// Outcome of a kNN batch.
#[derive(Debug, Clone)]
pub struct KnnBatchOutcome {
    /// Per-query neighbor lists (ascending distance), index-aligned with
    /// the submitted `(point, k)` pairs.
    pub results: Vec<Vec<Neighbor>>,
    /// Distinct pages pulled from the pool.
    pub pages_fetched: u64,
    /// Total page accesses across all queries.
    pub page_requests: u64,
    /// Readahead hints handed to the prefetch workers.
    pub prefetch_hints: u64,
    /// Pool-level I/O delta over the batch (see [`BatchOutcome::io`]).
    pub io: IoStats,
}

/// Batched executor over one index — a [`crate::FlatIndex`] or a mutable
/// [`crate::DeltaIndex`], anything that converts to an [`IndexRef`] — and
/// one shared pool. Over a delta layer the batch uses the delta-aware
/// seeds and tombstone-filtered scans, with results identical to
/// [`crate::DeltaIndex::range_query`] / [`crate::DeltaIndex::knn_query`].
///
/// The pool must be [`Sync`] because the engine spawns readahead threads
/// that prefetch through it while the engine thread issues demand reads —
/// a [`flat_storage::ConcurrentBufferPool`] is the intended substrate.
///
/// ```
/// use flat_core::{FlatIndex, FlatOptions, QueryEngine};
/// use flat_geom::{Aabb, Point3};
/// use flat_rtree::Entry;
/// use flat_storage::{BufferPool, MemStore};
///
/// let entries: Vec<Entry> = (0..2000)
///     .map(|i| Entry::new(i, Aabb::cube(Point3::splat((i % 100) as f64), 1.5)))
///     .collect();
/// let mut pool = BufferPool::new(MemStore::new(), 1 << 14);
/// let (index, _) = FlatIndex::build(&mut pool, entries, FlatOptions::default()).unwrap();
/// let pool = pool.into_concurrent();
///
/// let queries: Vec<Aabb> = (0..8)
///     .map(|i| Aabb::cube(Point3::splat(10.0 * i as f64), 4.0))
///     .collect();
/// let outcome = QueryEngine::new(&index, &pool).run_range_batch(&queries).unwrap();
/// assert_eq!(outcome.results.len(), queries.len());
/// ```
pub struct QueryEngine<'a, P: PageRead + Sync> {
    index: IndexRef<'a>,
    pool: &'a P,
    config: EngineConfig,
}

impl<'a, P: PageRead + Sync> QueryEngine<'a, P> {
    /// An engine with the default configuration.
    pub fn new(index: impl Into<IndexRef<'a>>, pool: &'a P) -> QueryEngine<'a, P> {
        Self::with_config(index, pool, EngineConfig::default())
    }

    /// An engine with explicit tuning.
    pub fn with_config(
        index: impl Into<IndexRef<'a>>,
        pool: &'a P,
        config: EngineConfig,
    ) -> QueryEngine<'a, P> {
        QueryEngine {
            index: index.into(),
            pool,
            config,
        }
    }

    /// Executes a batch of range queries.
    ///
    /// Seeds run first for the whole batch; the crawls then advance
    /// round-robin, one wave of records per query per round, all through
    /// one batch page cache with crawl-ahead hints feeding the readahead
    /// workers.
    /// Per-query results are identical to serial evaluation.
    pub fn run_range_batch(&self, queries: &[Aabb]) -> Result<BatchOutcome, StorageError> {
        let cache = BatchCache::new(self.pool);
        std::thread::scope(|scope| {
            let readahead = Readahead::spawn(scope, self.pool, self.config.readahead_threads);
            let hinter = EngineHinter::new(&cache, &readahead);
            let hint: Option<&dyn CrawlHinter> = Some(&hinter);

            // Phase 1: seed lookups for the whole batch. Seed-tree
            // directory pages are shared by almost every query, so the
            // batch cache alone collapses this phase to one read per page.
            let mut stats = vec![QueryStats::default(); queries.len()];
            let mut results: Vec<Vec<flat_rtree::Hit>> = vec![Vec::new(); queries.len()];
            let mut states: Vec<Option<CrawlState>> = Vec::with_capacity(queries.len());
            for (query, stats) in queries.iter().zip(stats.iter_mut()) {
                let seed = self.index.seed(&cache, query, stats, hint)?;
                states.push(seed.map(CrawlState::start));
            }

            // Phase 2: crawl turns, round-robin within a bounded wave of
            // queries (finished queries hand their slot to the next one).
            // While query i's demand read blocks, hints issued by earlier
            // turns keep the readahead workers fetching the wave's
            // upcoming pages.
            let wave_size = self.config.effective_wave();
            let mut backlog: std::collections::VecDeque<usize> = (0..queries.len())
                .filter(|&i| states[i].is_some())
                .collect();
            let mut wave: Vec<usize> = Vec::new();
            loop {
                while wave.len() < wave_size {
                    let Some(next) = backlog.pop_front() else {
                        break;
                    };
                    wave.push(next);
                }
                if wave.is_empty() {
                    break;
                }
                let mut w = 0;
                while w < wave.len() {
                    let i = wave[w];
                    let state = states[i].as_mut().expect("wave holds seeded queries");
                    let mut visit = RangeVisit {
                        query: &queries[i],
                        stats: &mut stats[i],
                        hits: &mut results[i],
                        hinter: hint,
                    };
                    if self.index.crawl_step(&cache, state, &mut visit)? {
                        wave.swap_remove(w); // slot freed for the backlog
                    } else {
                        w += 1;
                    }
                }
            }
            for ((stats, hits), state) in stats.iter_mut().zip(&results).zip(&states) {
                stats.result_count = hits.len() as u64;
                stats.records_seen = state.as_ref().map_or(0, CrawlState::records_seen);
            }

            Ok(BatchOutcome {
                results,
                query_stats: stats,
                pages_fetched: cache.fetches(),
                page_requests: cache.requests(),
                prefetch_hints: readahead.hints(),
                io: IoStats::default(),
            })
            // `readahead` (the hint sender) drops here, the workers drain
            // and exit, and the scope joins them before returning.
        })
    }

    /// Executes a batch of k-nearest-neighbor queries (`(point, k)` pairs).
    ///
    /// Each query runs the exact serial best-first algorithm of
    /// [`crate::FlatIndex::knn_query`]; the batch contributes the shared page
    /// cache and the readahead workers fed by frontier hints.
    pub fn run_knn_batch(
        &self,
        queries: &[(Point3, usize)],
    ) -> Result<KnnBatchOutcome, StorageError> {
        let cache = BatchCache::new(self.pool);
        std::thread::scope(|scope| {
            let readahead = Readahead::spawn(scope, self.pool, self.config.readahead_threads);
            let hinter = EngineHinter::new(&cache, &readahead);
            let hint: Option<&dyn CrawlHinter> = Some(&hinter);

            let mut results = Vec::with_capacity(queries.len());
            for &(point, k) in queries {
                let mut stats = KnnStats::default();
                results.push(self.index.knn(&cache, point, k, &mut stats, hint)?);
            }
            Ok(KnnBatchOutcome {
                results,
                pages_fetched: cache.fetches(),
                page_requests: cache.requests(),
                prefetch_hints: readahead.hints(),
                io: IoStats::default(),
            })
        })
    }
}

/// Per-batch page memo: the first access to a page goes to the pool, every
/// later access — by any query of the batch — is served locally. This is
/// what "each page is fetched once per batch" means, and it composes with
/// the pool's own cache (which persists *across* batches).
///
/// The memo holds every page the batch touched; a batch's working set is
/// bounded by the union of its queries' result regions, so callers sizing
/// truly enormous batches should split them.
pub(crate) struct BatchCache<'p, P: PageRead> {
    pool: &'p P,
    pages: RefCell<HashMap<PageId, Page>>,
    requests: Cell<u64>,
    fetches: Cell<u64>,
}

impl<'p, P: PageRead> BatchCache<'p, P> {
    pub(crate) fn new(pool: &'p P) -> BatchCache<'p, P> {
        BatchCache {
            pool,
            pages: RefCell::new(HashMap::new()),
            requests: Cell::new(0),
            fetches: Cell::new(0),
        }
    }

    fn contains(&self, id: PageId) -> bool {
        self.pages.borrow().contains_key(&id)
    }

    /// Decodes record `addr` if its page is already resident — the cheap
    /// lookahead the hinter relies on (never triggers I/O).
    fn cached_record(&self, addr: MetaRecordId) -> Option<MetaRecord> {
        let pages = self.pages.borrow();
        let page = pages.get(&addr.page)?;
        decode_meta_record(page, addr.slot).ok()
    }

    fn fetches(&self) -> u64 {
        self.fetches.get()
    }

    fn requests(&self) -> u64 {
        self.requests.get()
    }
}

impl<P: PageRead> PageRead for BatchCache<'_, P> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        self.requests.set(self.requests.get() + 1);
        if let Some(page) = self.pages.borrow().get(&id) {
            return Ok(page.clone());
        }
        self.fetches.set(self.fetches.get() + 1);
        let page = self.pool.read_page(id, kind)?;
        self.pages.borrow_mut().insert(id, page.clone());
        Ok(page)
    }

    /// Forwards the announcement for the pages the memo does not hold —
    /// a memoized page never reaches the pool again, so announcing it
    /// could only buy a spare fetch of something the pool has evicted.
    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        let missing: Vec<(PageId, PageKind)> = {
            let memo = self.pages.borrow();
            pages
                .iter()
                .copied()
                .filter(|(id, _)| !memo.contains_key(id))
                .collect()
        };
        if !missing.is_empty() {
            self.pool.want_pages(&missing);
        }
    }
}

/// The readahead side: worker threads blocking on a hint channel, each
/// serving one [`PageRead::prefetch_page`] call at a time.
struct Readahead {
    tx: Option<mpsc::Sender<(PageId, PageKind)>>,
    hints: Cell<u64>,
}

impl Readahead {
    fn spawn<'scope, 'env, P: PageRead + Sync>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        pool: &'env P,
        threads: usize,
    ) -> Readahead {
        if threads == 0 {
            return Readahead {
                tx: None,
                hints: Cell::new(0),
            };
        }
        let (tx, rx) = mpsc::channel::<(PageId, PageKind)>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..threads {
            let rx = Arc::clone(&rx);
            scope.spawn(move || loop {
                // Hold the lock only while waiting for a hint; the fetch
                // itself runs unlocked so workers overlap their I/O.
                let msg = match rx.lock() {
                    Ok(guard) => guard.recv(),
                    Err(_) => return,
                };
                match msg {
                    Ok((id, kind)) => pool.prefetch_page(id, kind),
                    Err(_) => return, // channel closed: batch is over
                }
            });
        }
        Readahead {
            tx: Some(tx),
            hints: Cell::new(0),
        }
    }

    fn send(&self, id: PageId, kind: PageKind) {
        if let Some(tx) = &self.tx {
            if tx.send((id, kind)).is_ok() {
                self.hints.set(self.hints.get() + 1);
            }
        }
    }

    fn enabled(&self) -> bool {
        self.tx.is_some()
    }

    fn hints(&self) -> u64 {
        self.hints.get()
    }
}

/// Turns crawl progress into deduplicated readahead hints.
struct EngineHinter<'e, P: PageRead> {
    cache: &'e BatchCache<'e, P>,
    readahead: &'e Readahead,
    hinted: RefCell<HashSet<PageId>>,
}

impl<'e, P: PageRead> EngineHinter<'e, P> {
    fn new(cache: &'e BatchCache<'e, P>, readahead: &'e Readahead) -> EngineHinter<'e, P> {
        EngineHinter {
            cache,
            readahead,
            hinted: RefCell::new(HashSet::new()),
        }
    }

    fn hint(&self, page: PageId, kind: PageKind) {
        if !self.readahead.enabled() || self.cache.contains(page) {
            return;
        }
        if self.hinted.borrow_mut().insert(page) {
            self.readahead.send(page, kind);
        }
    }
}

impl<P: PageRead> CrawlHinter for EngineHinter<'_, P> {
    fn upcoming_page(&self, page: PageId, kind: PageKind) {
        self.hint(page, kind);
    }

    fn enqueued_record(&self, addr: MetaRecordId, wants_object: &dyn Fn(&MetaRecord) -> bool) {
        // If the record's metadata page is already resident we can look
        // one step further ahead and hint the object page the crawl will
        // scan; otherwise hint the metadata page itself.
        match self.cache.cached_record(addr) {
            Some(record) => {
                if wants_object(&record) {
                    self.hint(record.object_page, PageKind::ObjectPage);
                }
            }
            None => self.hint(addr.page, PageKind::SeedLeaf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{FlatIndex, FlatOptions};
    use flat_rtree::Entry;
    use flat_storage::{BufferPool, ConcurrentBufferPool, MemStore, ThrottledStore};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

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

    fn build_shared(
        n: usize,
        seed: u64,
    ) -> (ConcurrentBufferPool<MemStore>, FlatIndex, Vec<Entry>) {
        let entries = random_entries(n, seed);
        let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default())
            .expect("in-memory build cannot fail");
        (pool.into_concurrent(), index, entries)
    }

    fn workload(seed: u64, count: usize) -> Vec<Aabb> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let c = Point3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                Aabb::cube(c, rng.gen_range(2.0..12.0))
            })
            .collect()
    }

    #[test]
    fn batch_results_are_bit_identical_to_serial() {
        let (pool, index, _) = build_shared(30_000, 201);
        let queries = workload(202, 24);
        let serial: Vec<Vec<flat_rtree::Hit>> = queries
            .iter()
            .map(|q| index.range_query(&pool, q).unwrap())
            .collect();
        for threads in [0, 3] {
            let engine = QueryEngine::with_config(
                &index,
                &pool,
                EngineConfig {
                    readahead_threads: threads,
                    ..EngineConfig::default()
                },
            );
            let outcome = engine.run_range_batch(&queries).unwrap();
            assert_eq!(
                outcome.results, serial,
                "batch (readahead={threads}) diverged from serial"
            );
        }
    }

    #[test]
    fn batch_query_stats_match_serial_stats() {
        let (pool, index, _) = build_shared(20_000, 203);
        let queries = workload(204, 10);
        let engine = QueryEngine::new(&index, &pool);
        let outcome = engine.run_range_batch(&queries).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let mut serial = QueryStats::default();
            index.range_query_with_stats(&pool, q, &mut serial).unwrap();
            assert_eq!(outcome.query_stats[i], serial, "query {i}");
        }
    }

    #[test]
    fn batch_cache_deduplicates_pool_reads() {
        let (pool, index, _) = build_shared(20_000, 205);
        let queries = workload(206, 16);

        // Serial: every query pays its own page reads.
        pool.clear_cache();
        pool.reset_stats();
        for q in &queries {
            index.range_query(&pool, q).unwrap();
        }
        let serial_logical = pool.stats().total_logical_reads();

        // Batched without prefetch: the batch cache absorbs shared pages.
        pool.clear_cache();
        pool.reset_stats();
        let engine = QueryEngine::with_config(
            &index,
            &pool,
            EngineConfig {
                readahead_threads: 0,
                ..EngineConfig::default()
            },
        );
        let outcome = engine.run_range_batch(&queries).unwrap();
        let batch_logical = pool.stats().total_logical_reads();
        assert_eq!(outcome.pages_fetched, batch_logical);
        assert!(
            batch_logical < serial_logical,
            "batching must reduce pool traffic: {batch_logical} vs {serial_logical}"
        );
        assert!(outcome.page_requests > outcome.pages_fetched);
    }

    #[test]
    fn prefetch_hints_turn_into_pool_prefetch_hits() {
        let entries = random_entries(20_000, 207);
        let mut build = BufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(&mut build, entries, FlatOptions::default()).unwrap();
        // A throttled store makes the readahead workers' head start real.
        let store = ThrottledStore::new(build.into_store(), Duration::from_micros(30));
        let pool = ConcurrentBufferPool::new(store, 1 << 16);
        let queries = workload(208, 16);
        let engine = QueryEngine::new(&index, &pool);
        let outcome = engine.run_range_batch(&queries).unwrap();
        assert!(outcome.prefetch_hints > 0, "crawl-ahead issued no hints");
        let stats = pool.stats();
        assert!(
            stats.total_prefetch_hits() > 0,
            "no demand read was served by a prefetched page"
        );
        // Speculation may waste some reads, but the hinter only guesses
        // pages the crawl has actually enqueued, so most must get used.
        assert!(
            stats.total_prefetch_hits() * 2 >= stats.total_prefetch_reads(),
            "most prefetches should be used: {} hits of {} reads",
            stats.total_prefetch_hits(),
            stats.total_prefetch_reads()
        );
    }

    #[test]
    fn empty_batch_and_empty_index_are_fine() {
        let (pool, index, _) = build_shared(5_000, 209);
        let engine = QueryEngine::new(&index, &pool);
        let outcome = engine.run_range_batch(&[]).unwrap();
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.pages_fetched, 0);

        let mut empty_pool = BufferPool::new(MemStore::new(), 16);
        let (empty_index, _) =
            FlatIndex::build(&mut empty_pool, Vec::new(), FlatOptions::default()).unwrap();
        let empty_pool = empty_pool.into_concurrent();
        let engine = QueryEngine::new(&empty_index, &empty_pool);
        let outcome = engine.run_range_batch(&workload(210, 4)).unwrap();
        assert!(outcome.results.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn knn_batch_matches_serial_knn() {
        let (pool, index, _) = build_shared(10_000, 211);
        let mut rng = StdRng::seed_from_u64(212);
        let queries: Vec<(Point3, usize)> = (0..8)
            .map(|_| {
                (
                    Point3::new(
                        rng.gen_range(0.0..100.0),
                        rng.gen_range(0.0..100.0),
                        rng.gen_range(0.0..100.0),
                    ),
                    rng.gen_range(1..20),
                )
            })
            .collect();
        let engine = QueryEngine::new(&index, &pool);
        let outcome = engine.run_knn_batch(&queries).unwrap();
        for (i, &(p, k)) in queries.iter().enumerate() {
            let serial = index.knn_query(&pool, p, k).unwrap();
            assert_eq!(outcome.results[i], serial, "kNN query {i}");
        }
    }
}
