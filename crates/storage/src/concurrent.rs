//! The one page cache: a lock-sharded LRU over a [`PageStore`] with atomic
//! [`IoStats`], one submission queue for misses and an optional pool of I/O
//! workers. Every build, query, baseline and test in the workspace runs
//! over it.
//!
//! The paper's workloads (§III) are many independent range queries against
//! one index, and its serving story (§VII-E) is many query streams against
//! one device. A single global mutex around one LRU would serialize all
//! readers, so [`ConcurrentBufferPool`] shards the cache by [`PageId`]:
//! page `p` lives in shard `p mod 16`, each shard is an independent LRU
//! behind its own lock, statistics are atomic, and the cache owns its
//! store behind one `RwLock` (page reads share it, writes take it
//! exclusively). `N` reader threads only contend when they touch pages of
//! the same shard at the same moment.
//!
//! A hit locks the shard, looks the page up and hands out a clone of its
//! [`Page`] — a reference to the cached buffer, not a copy of it. Nothing
//! ever writes a cached buffer in place: writes and installs replace the
//! slot's page, and `Page` is copy-on-write, so a handle already out keeps
//! its bytes. A **miss** has one path, whatever the number of I/O workers
//! ([`SchedulerConfig::workers`]): it becomes a request in a central
//! submission queue, serviced against the store by the workers and by the
//! readers waiting on it. A cache without workers
//! ([`ConcurrentBufferPool::new`]) runs the same code with no thread
//! spawned: each miss is fetched by a waiting reader.
//!
//! * **No reader sleeps beside a queued fetch** — until its own request
//!   completes, a reader takes the oldest queued request (its own or
//!   anybody's) and services it on its own thread, exactly as a worker
//!   would. It sleeps only once the queue is empty, when whatever it waits
//!   for is already on the device. So a miss costs no thread hand-off
//!   while work is queued, and the workers plus every waiting reader fetch
//!   side by side. Requests are claimed oldest first, never by page id, so
//!   each is serviced exactly once.
//! * **One fetch per page** — duplicate in-flight reads of one page
//!   resolve with a single device fetch whose result fans out to every
//!   waiter (tracked in [`SchedulerStats::demand_coalesced`]). A read that
//!   finds no fetch in flight looks in the cache again under the queue lock
//!   before it submits one; a fetch caches its page before it leaves the
//!   in-flight table, so the second look catches a fetch that landed since
//!   the first. Only pages fan out: a reader that joined somebody else's
//!   fetch and sees it fail makes one attempt of its own, so the error a
//!   caller gets always comes from a device access made for that call —
//!   not from an announcement's fetch that ran before the call was even
//!   issued.
//! * **Announced demand reads** — a demand read is two halves, *submit*
//!   and *await*. [`PageRead::read_page`] does both;
//!   [`PageRead::want_pages`] does only the first, for a batch of pages the
//!   caller is certain to read next. An announced page that is neither
//!   cached nor in flight becomes an ordinary request with no waiter yet —
//!   same queue, same counters ([`SchedulerStats::demand_submitted`], the
//!   kind's `physical_reads`), never dropped — and the caller's later
//!   `read_page` finds it cached or coalesces onto it. This is how one
//!   query keeps the device queue full: a crawl announces a wave's object
//!   pages together with the next wave's metadata pages, the workers (and
//!   the crawl's own thread) fetch them side by side, and the wave waits
//!   for one overlapped round trip instead of one per page. Without
//!   workers an announcement is a no-op: nobody would fetch the pages
//!   before the reads that wait for them.
//! * **One coherence rule** — a fetch runs outside every shard lock, so
//!   every write of a page ([`PageWrite::write`] / [`PageWrite::free`], and
//!   the shared-borrow [`ConcurrentBufferPool::install_cached`] /
//!   [`ConcurrentBufferPool::drop_cached`]) first marks the page's
//!   in-flight request stale: a stale fetch is never cached, and later
//!   reads do not coalesce onto it.
//! * **One recency rule** — each shard is one LRU list. A fetch lands its
//!   page at the hot end; a read moves a page that holds elements
//!   ([`PageKind::ObjectPage`], [`PageKind::RTreeLeaf`]) to the cold end
//!   and any other page to the hot end. A query rereads the seed tree and
//!   the metadata pages it shares with its neighbours but reads each
//!   object page once, so under a cache smaller than the index the page a
//!   read has just finished with is the next victim, and directory pages
//!   stay. An announced page lands hot and so survives until its read,
//!   which then sends it cold — whether the read hit it, joined its fetch
//!   in flight or fetched it itself. A shard that never fills evicts
//!   nothing, so there the rule changes nothing.
//! * **Graceful shutdown** — dropping the cache *drains every queued and
//!   in-flight read* (announced ones included) before the workers exit, so
//!   no reader ever observes a torn or abandoned request.
//!
//! There is one queue. Every request in it is a read some caller is going
//! to wait for (bar the few object pages a kNN wave announces and its own
//! scans then rule out, [`PageRead::want_pages`]), so nothing is ever
//! dropped, reprioritized or accounted as waste.

use crate::pool::{AtomicIoStats, CacheState};
use crate::sync_util::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};
use crate::{IoStats, Page, PageId, PageKind, PageRead, PageStore, PageWrite, StorageError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Number of lock shards (a power of two).
const DEFAULT_SHARDS: usize = 16;

/// The one tuning knob of a [`ConcurrentBufferPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Number of I/O worker threads servicing the submission queue. They
    /// fetch beside every reader that is waiting on a miss, since such a
    /// reader services queued requests itself until its own completes, so
    /// the device sees up to `workers` plus the waiting readers at once.
    /// `0` spawns no thread: each miss is fetched, through the same queue,
    /// by a reader waiting on it, and announcements are ignored.
    ///
    /// The default is 8, the queue depth of the device model the serving
    /// stack is measured on (`ThrottledStore::with_parallelism(.., 8)`).
    /// With fewer, announced fetches wait for a worker while device slots
    /// sit idle; more buy nothing once every slot is busy. A sweep of the
    /// `device_reads` benchmark over 4, 6, 8, 12 and 16 workers gave
    /// ≈ 227, 254, 273, 275 and 275 queries/s (`BENCH_knn_wave.json`).
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig { workers: 8 }
    }
}

/// Counters describing what the submission queue did — snapshot type,
/// taken with [`ConcurrentBufferPool::scheduler_stats`]. Every miss goes
/// through the queue, so they count every cache's misses, with or without
/// I/O workers.
///
/// Conservation: every submitted request is completed or still queued, so
/// `demand_submitted == demand_completed` once the queue is idle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Demand fetches that entered the submission queue: `read_page` misses
    /// and announced pages ([`PageRead::want_pages`]) that were neither
    /// cached nor already in flight.
    pub demand_submitted: u64,
    /// Demand reads that piggybacked on an in-flight fetch of the same
    /// page instead of submitting their own — another reader's, or one
    /// this reader announced earlier.
    pub demand_coalesced: u64,
    /// Fetches serviced from the queue, by a worker or a waiting reader.
    pub demand_completed: u64,
    /// High-water mark of the queue depth.
    pub demand_queue_max: u64,
    /// Total microseconds requests spent from submission to completion
    /// (queueing + service).
    pub demand_wait_us: u64,
    /// Total microseconds of device service time.
    pub demand_service_us: u64,
}

impl SchedulerStats {
    /// Mean end-to-end demand latency (queueing + service), microseconds.
    pub fn mean_demand_wait_us(&self) -> f64 {
        mean(self.demand_wait_us, self.demand_completed)
    }

    /// Mean device service time, microseconds.
    pub fn mean_demand_service_us(&self) -> f64 {
        mean(self.demand_service_us, self.demand_completed)
    }

    /// Component-wise accumulation (queue-depth high-water marks take the
    /// max) — used to roll shard caches up into one figure.
    pub fn accumulate(&mut self, other: &SchedulerStats) {
        self.demand_submitted += other.demand_submitted;
        self.demand_coalesced += other.demand_coalesced;
        self.demand_completed += other.demand_completed;
        self.demand_queue_max = self.demand_queue_max.max(other.demand_queue_max);
        self.demand_wait_us += other.demand_wait_us;
        self.demand_service_us += other.demand_service_us;
    }
}

fn mean(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

#[derive(Debug, Default)]
struct AtomicSchedulerStats {
    demand_submitted: AtomicU64,
    demand_coalesced: AtomicU64,
    demand_completed: AtomicU64,
    demand_queue_max: AtomicU64,
    demand_wait_us: AtomicU64,
    demand_service_us: AtomicU64,
}

impl AtomicSchedulerStats {
    fn snapshot(&self) -> SchedulerStats {
        let o = Ordering::Relaxed;
        SchedulerStats {
            demand_submitted: self.demand_submitted.load(o),
            demand_coalesced: self.demand_coalesced.load(o),
            demand_completed: self.demand_completed.load(o),
            demand_queue_max: self.demand_queue_max.load(o),
            demand_wait_us: self.demand_wait_us.load(o),
            demand_service_us: self.demand_service_us.load(o),
        }
    }

    fn reset(&self) {
        let o = Ordering::Relaxed;
        self.demand_submitted.store(0, o);
        self.demand_coalesced.store(0, o);
        self.demand_completed.store(0, o);
        self.demand_queue_max.store(0, o);
        self.demand_wait_us.store(0, o);
        self.demand_service_us.store(0, o);
    }
}

/// One in-flight page fetch. Duplicate readers share the same request: the
/// servicing thread (a worker, or a waiting reader) publishes the result
/// into `done` and wakes every waiter.
struct Request {
    /// Set by a write of the same page while this request is in flight:
    /// the fetch may return pre-write bytes. The servicing thread does not
    /// cache them, and new demand reads refuse to coalesce onto the request
    /// (they read the store directly). Waiters that joined *before* the
    /// write still receive the bytes — under the MVCC protocol those
    /// readers are pinned to an epoch whose page version the map still
    /// holds.
    stale: AtomicBool,
    submitted: Instant,
    done: Mutex<Option<Result<Page, StorageError>>>,
    cv: Condvar,
}

impl Request {
    fn new() -> Request {
        Request {
            stale: AtomicBool::new(false),
            submitted: Instant::now(),
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// The published result, if the fetch has completed.
    fn result(&self) -> Option<Result<Page, StorageError>> {
        lock_unpoisoned(&self.done).as_ref().map(fan_out)
    }

    /// Blocks until the servicing thread publishes a result.
    fn await_result(&self) -> Result<Page, StorageError> {
        let mut done = lock_unpoisoned(&self.done);
        loop {
            if let Some(result) = done.as_ref() {
                return fan_out(result);
            }
            done = wait_unpoisoned(&self.cv, done);
        }
    }
}

/// One waiter's copy of a published result.
fn fan_out(result: &Result<Page, StorageError>) -> Result<Page, StorageError> {
    match result {
        Ok(page) => Ok(page.clone()),
        Err(err) => Err(clone_error(err)),
    }
}

/// [`StorageError`] is deliberately not `Clone` ([`std::io::Error`] isn't);
/// fanning one result out to several coalesced waiters reconstructs an
/// equivalent error per waiter, preserving the variant (so callers that
/// match on `PageOutOfRange` etc. behave identically whichever way the
/// miss was fetched).
fn clone_error(err: &StorageError) -> StorageError {
    match err {
        StorageError::PageOutOfRange { page, allocated } => StorageError::PageOutOfRange {
            page: *page,
            allocated: *allocated,
        },
        StorageError::Corrupt(msg) => StorageError::Corrupt(msg.clone()),
        StorageError::Io(io) => StorageError::Io(std::io::Error::new(io.kind(), io.to_string())),
    }
}

fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The submission queue plus the in-flight table. Every in-flight request
/// sits in `demand` exactly once until a worker or a waiting reader pops
/// it.
struct SubmissionQueue {
    demand: VecDeque<PageId>,
    inflight: HashMap<PageId, Arc<Request>>,
    shutdown: bool,
}

/// What a miss finds under the queue lock ([`Core::miss`]).
enum Miss {
    /// A fetch of the page is in flight.
    InFlight(Arc<Request>),
    /// A fetch landed and retired since the caller's miss.
    Cached(Page),
    /// Neither: a fetch was submitted.
    Submitted(Arc<Request>),
}

/// State shared between the cache and its workers.
struct Core<S> {
    store: RwLock<S>,
    shards: Vec<Mutex<CacheState>>,
    shard_capacity: usize,
    config: SchedulerConfig,
    io: AtomicIoStats,
    sched: AtomicSchedulerStats,
    queue: Mutex<SubmissionQueue>,
    /// Wakes workers when work arrives (or shutdown is signalled).
    work: Condvar,
}

impl<S: PageStore> Core<S> {
    fn shard_cache(&self, id: PageId) -> MutexGuard<'_, CacheState> {
        let index = (id.0 as usize) & (self.shards.len() - 1);
        lock_unpoisoned(&self.shards[index])
    }

    /// The cached copy of `id`, if any, leaving the LRU order alone.
    fn peek(&self, id: PageId) -> Option<Page> {
        let cache = self.shard_cache(id);
        cache.slot_of(id).map(|slot| cache.page(slot).clone())
    }

    /// A read of `id` as `kind`: the cached copy, if any, after the read's
    /// recency rule has moved it ([`CacheState::read`]).
    fn cached(&self, id: PageId, kind: PageKind) -> Option<Page> {
        let mut cache = self.shard_cache(id);
        let slot = cache.slot_of(id)?;
        cache.read(slot, kind);
        Some(cache.page(slot).clone())
    }

    fn read_store(&self) -> RwLockReadGuard<'_, S> {
        read_unpoisoned(&self.store)
    }

    fn write_store(&self) -> RwLockWriteGuard<'_, S> {
        write_unpoisoned(&self.store)
    }

    /// A physical read on the calling thread, bypassing queue and cache —
    /// the fallback of reads that cannot use an in-flight fetch.
    fn read_direct(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        self.io.record_physical_read(kind);
        let mut page = Page::new();
        self.read_store().read_page(id, &mut page)?;
        Ok(page)
    }

    /// The *submit* half of a miss, under the queue lock: the page's
    /// in-flight request if there is one; otherwise a second look in the
    /// cache (queue → shard is the only lock nesting) and, only if the page
    /// is still missing, a new request, queued and counted as a physical
    /// read. Whether anyone awaits it is the caller's business (`read_page`
    /// does, `want_pages` does not).
    fn miss(&self, q: &mut SubmissionQueue, id: PageId, kind: PageKind) -> Miss {
        if let Some(req) = q.inflight.get(&id) {
            return Miss::InFlight(Arc::clone(req));
        }
        if let Some(page) = self.peek(id) {
            return Miss::Cached(page);
        }
        let req = Arc::new(Request::new());
        q.inflight.insert(id, Arc::clone(&req));
        q.demand.push_back(id);
        self.sched.demand_submitted.fetch_add(1, Ordering::Relaxed);
        self.sched
            .demand_queue_max
            .fetch_max(q.demand.len() as u64, Ordering::Relaxed);
        self.io.record_physical_read(kind);
        self.work.notify_one();
        Miss::Submitted(req)
    }

    /// The coherence rule, run by every write of `id` before it touches the
    /// cache: marks the page's in-flight fetch, if any, stale.
    fn mark_written(&self, id: PageId) {
        if let Some(req) = lock_unpoisoned(&self.queue).inflight.get(&id) {
            req.stale.store(true, Ordering::Release);
        }
    }
}

/// Pops the next queued request. Returning `None` with `shutdown` set means
/// the queue has fully drained.
fn take_next(q: &mut SubmissionQueue) -> Option<(PageId, Arc<Request>)> {
    while let Some(id) = q.demand.pop_front() {
        if let Some(req) = q.inflight.get(&id) {
            return Some((id, Arc::clone(req)));
        }
    }
    None
}

fn worker_loop<S: PageStore>(core: &Core<S>) {
    loop {
        let claimed = {
            let mut q = lock_unpoisoned(&core.queue);
            loop {
                if let Some(claimed) = take_next(&mut q) {
                    break Some(claimed);
                }
                if q.shutdown {
                    break None; // queue drained — safe to exit
                }
                q = wait_unpoisoned(&core.work, q);
            }
        };
        let Some((id, req)) = claimed else {
            return;
        };
        service(core, id, req);
    }
}

/// Awaits `req` on a reader's thread without sleeping beside queued work:
/// until `req` completes, the reader claims the oldest queued request — its
/// own or anybody's — and services it exactly as a worker would. It sleeps
/// only once the queue is empty, when every request it could be waiting
/// for is already being serviced by some thread.
///
/// A reader claims work through [`take_next`] alone, never by page id.
/// Every submission pushes exactly one queue entry and a request is claimed
/// only by popping that entry, so each request is serviced exactly once —
/// even when its page is retired and resubmitted while readers help. A
/// claim by id would leave the entry behind, and a later pop of it could
/// service (and retire) a newer request for the same page a second time,
/// stranding that request's waiters.
fn await_serving<S: PageStore>(core: &Core<S>, req: &Request) -> Result<Page, StorageError> {
    loop {
        if let Some(result) = req.result() {
            return result;
        }
        let claimed = take_next(&mut lock_unpoisoned(&core.queue));
        match claimed {
            Some((id, next)) => service(core, id, next),
            None => return req.await_result(),
        }
    }
}

/// Fetches one claimed request from the store, publishes the page into the
/// cache unless a write marked the request stale, retires the request from
/// the in-flight table, and completes it — in that order. A waiter woken by
/// the completion finds the page already cached, and a read issued after
/// the retirement either hits that page or submits a fetch of its own: it
/// can never join a request that has already finished.
fn service<S: PageStore>(core: &Core<S>, id: PageId, req: Arc<Request>) {
    let start = Instant::now();
    let mut page = Page::new();
    let result = core.read_store().read_page(id, &mut page).map(|()| page);
    let service_us = start.elapsed().as_micros() as u64;

    if let Ok(page) = &result {
        // A write marks the request stale before it touches the cache, so
        // bytes fetched before the write are either dropped here or
        // overwritten by the write itself.
        let mut cache = core.shard_cache(id);
        if !req.stale.load(Ordering::Acquire) && !cache.contains(id) {
            cache.insert(id, page.clone(), core.shard_capacity);
        }
    }

    let relaxed = Ordering::Relaxed;
    core.sched.demand_completed.fetch_add(1, relaxed);
    core.sched.demand_service_us.fetch_add(service_us, relaxed);
    let wait_us = req.submitted.elapsed().as_micros() as u64;
    core.sched.demand_wait_us.fetch_add(wait_us, relaxed);

    lock_unpoisoned(&core.queue).inflight.remove(&id);
    let mut done = lock_unpoisoned(&req.done);
    *done = Some(result);
    req.cv.notify_all();
}

/// The one shared, `Sync` page cache over a [`PageStore`]: 16 independent
/// LRUs (page `p` lives in shard `p mod 16`, so the densely allocated,
/// interleaved pages of one structure spread evenly) with atomic
/// statistics, owning its store and implementing [`PageRead`] and
/// [`PageWrite`]. Each LRU keeps one rule: a read sends an element page
/// (object page, R-tree leaf) to its cold end and any other page to its hot
/// end, and a fetch lands hot (see the module docs).
///
/// Misses go through one submission queue: duplicate in-flight reads
/// coalesce, and [`SchedulerStats`] reports queue depth, coalescing and
/// latencies. [`ConcurrentBufferPool::new`] has no I/O workers, so the
/// readers waiting on misses fetch them; [`ConcurrentBufferPool::with_config`]
/// adds workers, which also fetch announced pages
/// ([`PageRead::want_pages`]) side by side. Dropping the cache drains the
/// queue and joins the workers. One worker pool per device is the intended
/// deployment; `flat_core`'s `ShardedDb` runs one per shard.
pub struct ConcurrentBufferPool<S: PageStore> {
    core: Arc<Core<S>>,
    /// The I/O workers that started — none for [`Self::new`]. Held
    /// type-erased so only the constructor that spawns them needs
    /// `S: Send + Sync + 'static`.
    workers: Vec<JoinHandle<()>>,
}

impl<S: PageStore> ConcurrentBufferPool<S> {
    /// Creates a cache over `store` holding at most `capacity` pages, with
    /// no I/O workers: every miss is fetched by a reader waiting on it.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(store: S, capacity: usize) -> ConcurrentBufferPool<S> {
        Self::without_workers(store, capacity, SchedulerConfig { workers: 0 })
    }

    fn without_workers(store: S, capacity: usize, config: SchedulerConfig) -> Self {
        assert!(
            capacity > 0,
            "buffer pool capacity must be at least one page"
        );
        let shards = DEFAULT_SHARDS;
        ConcurrentBufferPool {
            core: Arc::new(Core {
                store: RwLock::new(store),
                shards: (0..shards).map(|_| Mutex::new(CacheState::new())).collect(),
                shard_capacity: capacity.div_ceil(shards).max(1),
                config,
                io: AtomicIoStats::default(),
                sched: AtomicSchedulerStats::default(),
                queue: Mutex::new(SubmissionQueue {
                    demand: VecDeque::new(),
                    inflight: HashMap::new(),
                    shutdown: false,
                }),
                work: Condvar::new(),
            }),
            workers: Vec::new(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> SchedulerConfig {
        self.core.config
    }

    /// Maximum number of cached pages (summed over lock shards; per-shard
    /// capacities round up, so the effective bound is `≥ capacity`).
    pub fn capacity(&self) -> usize {
        self.core.shard_capacity * self.core.shards.len()
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|shard| lock_unpoisoned(shard).len())
            .sum()
    }

    /// Shared access to the underlying store (holds the store's read lock
    /// for the guard's lifetime — don't hold it across slow work).
    pub fn store(&self) -> RwLockReadGuard<'_, S> {
        self.core.read_store()
    }

    /// Exclusive access to the store from a shared borrow, bypassing the
    /// cache: the MVCC batch writer's path, which keeps the cache coherent
    /// itself through [`Self::install_cached`] / [`Self::drop_cached`].
    pub(crate) fn write_store(&self) -> RwLockWriteGuard<'_, S> {
        self.core.write_store()
    }

    /// Snapshot of the current I/O statistics (for later
    /// [`IoStats::since`] diffs).
    pub fn stats(&self) -> IoStats {
        self.core.io.snapshot()
    }

    /// Zeroes the I/O statistics.
    pub fn reset_stats(&self) {
        self.core.io.reset();
    }

    /// Snapshot of the scheduling counters (queue, coalescing, latencies).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.core.sched.snapshot()
    }

    /// Zeroes the scheduling counters.
    pub fn reset_scheduler_stats(&self) {
        self.core.sched.reset();
    }

    /// Drops every cached page. Statistics are unaffected.
    pub fn clear_cache(&self) {
        for shard in &self.core.shards {
            lock_unpoisoned(shard).clear();
        }
    }

    /// Installs (or refreshes) the cached copy of `id` from a *shared*
    /// borrow — the write path of the MVCC batch writer, which has already
    /// put the same bytes on the store. A fetch of the page in flight is
    /// marked stale first, so it cannot cache pre-write bytes over these
    /// and later reads won't coalesce onto it.
    pub fn install_cached(&self, id: PageId, page: &Page, kind: PageKind) {
        let core = &self.core;
        core.mark_written(id);
        core.io.record_write(kind);
        let mut cache = core.shard_cache(id);
        if let Some(slot) = cache.slot_of(id) {
            *cache.page_mut(slot) = page.clone();
            cache.touch(slot);
        } else {
            cache.insert(id, page.clone(), core.shard_capacity);
        }
    }

    /// Drops the cached copy of `id` (if any) from a shared borrow — the
    /// free path of the MVCC batch writer. A fetch of the page in flight is
    /// marked stale first, exactly as in [`Self::install_cached`].
    pub fn drop_cached(&self, id: PageId) {
        self.core.mark_written(id);
        self.core.shard_cache(id).remove(id);
    }

    /// Shuts the workers down (draining every queued and in-flight read)
    /// and returns the store.
    #[allow(clippy::panic)]
    pub fn into_store(self) -> S {
        let core = Arc::clone(&self.core);
        drop(self); // signals shutdown and joins every worker
        match Arc::try_unwrap(core) {
            Ok(core) => match core.store.into_inner() {
                Ok(store) => store,
                Err(poisoned) => poisoned.into_inner(),
            },
            // Proof: `self` held the only handle besides this one and the
            // workers' — and every worker has exited and dropped its handle
            // before the drop above returned from joining it.
            Err(_) => panic!("cache core still shared after its workers joined"),
        }
    }
}

impl<S: PageStore + Send + Sync + 'static> ConcurrentBufferPool<S> {
    /// Creates a cache over `store` holding at most `capacity` pages, whose
    /// misses `config.workers` I/O worker threads service beside the
    /// waiting readers (none: as [`ConcurrentBufferPool::new`]). A worker
    /// that fails to start is left out: a cache with fewer is slower, not
    /// wrong.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_config(store: S, capacity: usize, config: SchedulerConfig) -> Self {
        let mut pool = Self::without_workers(store, capacity, config);
        pool.workers = (0..config.workers)
            .filter_map(|i| {
                let core = Arc::clone(&pool.core);
                std::thread::Builder::new()
                    .name(format!("flat-disk-io-{i}"))
                    .spawn(move || worker_loop(&core))
                    .ok()
            })
            .collect();
        pool
    }
}

/// Signals shutdown, lets the queue drain, and joins every worker.
impl<S: PageStore> Drop for ConcurrentBufferPool<S> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.core.queue).shutdown = true;
        self.core.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<S: PageStore> PageRead for ConcurrentBufferPool<S> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        let core = &self.core;
        core.io.record_read(kind, false);
        if let Some(page) = core.cached(id, kind) {
            return Ok(page);
        }
        let miss = core.miss(&mut lock_unpoisoned(&core.queue), id, kind);
        let page = match miss {
            Miss::Cached(page) => page,
            Miss::Submitted(req) => await_serving(core, &req)?,
            // The fetch in flight may predate a write of this page: read
            // the store directly, and leave the cache to the writer.
            Miss::InFlight(req) if req.stale.load(Ordering::Acquire) => {
                core.read_direct(id, kind)?
            }
            Miss::InFlight(req) => {
                core.sched.demand_coalesced.fetch_add(1, Ordering::Relaxed);
                // The fetch this read joined may fail — possibly an
                // announced one that hit the device long before this read
                // was issued. That failure is not this read's: it makes its
                // own attempt, so an error reaches a caller only from a
                // device access made on behalf of that very call.
                await_serving(core, &req).or_else(|_| core.read_direct(id, kind))?
            }
        };
        // Whichever fetch brought the page in — this read's, an earlier
        // announcement's or another reader's — cached it hot. The read's
        // own rule applies now, so an element page a read joined in flight
        // goes cold like one it hit.
        let _ = core.cached(id, kind);
        Ok(page)
    }

    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        if self.workers.is_empty() {
            return; // nobody would fetch ahead of the reads
        }
        let core = &self.core;
        for &(id, kind) in pages {
            // Cached: the read will be a hit. In flight: it coalesces or
            // reads directly, exactly as without the announcement.
            if !core.shard_cache(id).contains(id) {
                let _ = core.miss(&mut lock_unpoisoned(&core.queue), id, kind);
            }
        }
    }
}

/// Exclusive writes: the `&mut` borrow excludes every reader, but a worker
/// may be fetching an announced page, so each write follows the one
/// coherence rule — mark the page's in-flight fetch stale, then change the
/// store and the cache. Writes refresh (and frees drop) any cached copy so
/// later reads observe the new bytes.
impl<S: PageStore> PageWrite for ConcurrentBufferPool<S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.core.write_store().alloc()
    }

    fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError> {
        self.core.mark_written(id);
        self.core.write_store().write_page(id, page)?;
        self.core.io.record_write(kind);
        let mut cache = self.core.shard_cache(id);
        if let Some(slot) = cache.slot_of(id) {
            *cache.page_mut(slot) = page.clone();
            cache.touch(slot);
        }
        Ok(())
    }

    fn free(&mut self, id: PageId) -> Result<(), StorageError> {
        self.core.mark_written(id);
        self.core.write_store().free_page(id)?;
        self.core.shard_cache(id).remove(id);
        Ok(())
    }
}

impl<S: PageStore> std::fmt::Debug for ConcurrentBufferPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentBufferPool")
            .field("capacity", &self.capacity())
            .field("config", &self.core.config)
            .field("cached", &self.cached_pages())
            .field("stats", &self.stats())
            .field("sched", &self.scheduler_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KindStats, MemStore, ThrottledStore};
    use std::time::Duration;

    /// The worker counts every test of the shared contract runs at: none
    /// (readers fetch their own misses), one worker, a small pool, and the
    /// default pool.
    const WORKERS: [usize; 4] = [0, 1, 4, 8];

    fn store_with_pages(n: u64) -> MemStore {
        let mut store = MemStore::new();
        for i in 0..n {
            let id = store.alloc().unwrap();
            let mut page = Page::new();
            page.put_u64(0, i);
            store.write_page(id, &page).unwrap();
        }
        store
    }

    /// `store` behind a device that serves 16 reads at once, at least the
    /// burst of concurrent reads in any test below.
    fn throttled(store: MemStore, latency: Duration) -> ThrottledStore<MemStore> {
        ThrottledStore::with_parallelism(store, latency, 16)
    }

    fn with_workers<S: PageStore + Send + Sync + 'static>(
        store: S,
        capacity: usize,
        workers: usize,
    ) -> ConcurrentBufferPool<S> {
        ConcurrentBufferPool::with_config(store, capacity, SchedulerConfig { workers })
    }

    /// A cache with the default worker pool.
    fn queued<S: PageStore + Send + Sync + 'static>(
        store: S,
        capacity: usize,
    ) -> ConcurrentBufferPool<S> {
        ConcurrentBufferPool::with_config(store, capacity, SchedulerConfig::default())
    }

    #[test]
    fn exclusive_writes_refresh_cached_copies() {
        for workers in WORKERS {
            let mut pool = with_workers(store_with_pages(4), 16, workers);
            // Cache page 2 via a shared read, then overwrite it exclusively.
            let read = pool.read_page(PageId(2), PageKind::Other).unwrap();
            assert_eq!(read.get_u64(0), 2);
            let mut page = Page::new();
            page.put_u64(0, 777);
            pool.write(PageId(2), &page, PageKind::Other).unwrap();
            // The next shared read sees the new bytes without a store read.
            let before = pool.stats().total_physical_reads();
            let read = pool.read_page(PageId(2), PageKind::Other).unwrap();
            assert_eq!(read.get_u64(0), 777, "workers {workers}");
            assert_eq!(pool.stats().total_physical_reads(), before);
            assert_eq!(pool.stats().total_writes(), 1);
        }
    }

    fn stamped(value: u64) -> Page {
        let mut page = Page::new();
        page.put_u64(0, value);
        page
    }

    #[test]
    fn a_hit_shares_the_cached_page_and_no_handle_sees_another_write() {
        let edits: [fn(&mut Page); 4] = [
            |page| page.put_u64(0, 555),
            |page| page.edit().put_u64(0, 555),
            |page| page.bytes_mut()[0] ^= 0xFF,
            |page| page.clear(),
        ];
        let read = |pool: &ConcurrentBufferPool<MemStore>| {
            pool.read_page(PageId(2), PageKind::Other).unwrap()
        };
        for workers in WORKERS {
            let mut pool = with_workers(store_with_pages(4), 16, workers);
            let first = read(&pool);
            let (a, b) = (read(&pool), read(&pool));
            assert!(
                std::ptr::eq(a.bytes(), b.bytes()) && std::ptr::eq(a.bytes(), first.bytes()),
                "workers {workers}: a hit copied the page"
            );
            for edit in edits {
                let mut mine = read(&pool);
                edit(&mut mine);
                assert_ne!(mine.get_u64(0), 2);
                assert_eq!(a.get_u64(0), 2, "workers {workers}: another handle changed");
                assert_eq!(
                    read(&pool).get_u64(0),
                    2,
                    "workers {workers}: the cache changed"
                );
            }

            // A handle keeps its bytes whatever later happens to its id.
            pool.write(PageId(2), &stamped(777), PageKind::Other)
                .unwrap();
            let written = read(&pool);
            assert_eq!(written.get_u64(0), 777);
            pool.install_cached(PageId(2), &stamped(888), PageKind::Other);
            let installed = read(&pool);
            assert_eq!(installed.get_u64(0), 888);
            pool.drop_cached(PageId(2));
            PageWrite::free(&mut pool, PageId(2)).unwrap();
            assert_eq!(PageWrite::alloc(&mut pool).unwrap(), PageId(2));
            assert_eq!(read(&pool).get_u64(0), 0, "the reallocated page is zeroed");
            let held = [&first, &a, &b, &written, &installed].map(|page| page.get_u64(0));
            assert_eq!(held, [2, 2, 2, 777, 888], "workers {workers}");
        }
    }

    #[test]
    fn free_invalidates_and_alloc_reuses_the_id() {
        for workers in WORKERS {
            let mut pool = with_workers(store_with_pages(4), 16, workers);
            pool.read_page(PageId(1), PageKind::Other).unwrap(); // cached
            PageWrite::free(&mut pool, PageId(1)).unwrap();
            assert!(pool.read_page(PageId(1), PageKind::Other).is_err());
            assert_eq!(pool.store().free_pages(), vec![PageId(1)]);
            assert_eq!(PageWrite::alloc(&mut pool).unwrap(), PageId(1));
            // The reallocated page reads back zeroed.
            let page = pool.read_page(PageId(1), PageKind::Other).unwrap();
            assert_eq!(page.get_u64(0), 0, "workers {workers}");
        }
    }

    #[test]
    fn reads_account_exact_counts_at_quiesce() {
        for workers in WORKERS {
            let pool = with_workers(store_with_pages(8), 16, workers);
            for i in [3u64, 0, 3, 7, 0] {
                let page = pool.read_page(PageId(i), PageKind::Other).unwrap();
                assert_eq!(page.get_u64(0), i);
            }
            let stats = pool.stats();
            assert_eq!(stats.total_logical_reads(), 5, "workers {workers}");
            assert_eq!(stats.total_physical_reads(), 3, "workers {workers}");
            let lanes = pool.scheduler_stats();
            assert_eq!(lanes.demand_submitted, 3, "workers {workers}");
            assert_eq!(lanes.demand_completed, 3, "workers {workers}");
        }
    }

    #[test]
    fn clear_cache_forces_physical_reads() {
        for workers in WORKERS {
            let pool = with_workers(store_with_pages(2), 8, workers);
            pool.read_page(PageId(0), PageKind::Other).unwrap();
            pool.clear_cache();
            assert_eq!(pool.cached_pages(), 0);
            pool.read_page(PageId(0), PageKind::Other).unwrap();
            assert_eq!(pool.stats().total_physical_reads(), 2, "workers {workers}");
            assert_eq!(pool.cached_pages(), 1, "workers {workers}");
        }
    }

    #[test]
    fn a_read_after_clear_cache_never_joins_a_finished_fetch() {
        let pool = with_workers(store_with_pages(2), 8, 1);
        for round in 1..=1_000u64 {
            pool.read_page(PageId(0), PageKind::Other).unwrap();
            pool.clear_cache();
            pool.read_page(PageId(0), PageKind::Other).unwrap();
            assert_eq!(
                pool.stats().total_physical_reads(),
                2 * round,
                "round {round}: a read joined a completed fetch"
            );
            assert_eq!(pool.cached_pages(), 1, "round {round}");
            pool.clear_cache();
        }
    }

    #[test]
    fn concurrent_readers_account_all_reads() {
        for workers in WORKERS {
            let shared = Arc::new(with_workers(store_with_pages(8), 16, workers));
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        for i in 0..8u64 {
                            let page = shared.read_page(PageId(i), PageKind::Other).unwrap();
                            assert_eq!(page.get_u64(0), i, "thread {t} read wrong page");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            // The cache holds all 8 pages, and a read that missed just
            // before a fetch of its page landed and retired finds the page
            // on its second look: each page is fetched exactly once.
            let stats = shared.stats();
            assert_eq!(stats.total_logical_reads(), 32);
            assert_eq!(stats.total_physical_reads(), 8, "workers {workers}");
            let lanes = shared.scheduler_stats();
            assert_eq!(lanes.demand_submitted, 8, "workers {workers}");
            assert_eq!(lanes.demand_completed, 8, "workers {workers}");
        }
    }

    #[test]
    fn hits_and_misses_are_counted_per_kind() {
        for workers in WORKERS {
            let pool = with_workers(store_with_pages(4), 8, workers);
            for (id, kind) in [
                (0, PageKind::ObjectPage),
                (0, PageKind::ObjectPage),
                (1, PageKind::RTreeLeaf),
            ] {
                let page = pool.read_page(PageId(id), kind).unwrap();
                assert_eq!(page.get_u64(0), id);
            }
            let s = pool.stats();
            assert_eq!(s.kind(PageKind::ObjectPage).logical_reads, 2);
            assert_eq!(s.kind(PageKind::ObjectPage).physical_reads, 1);
            assert_eq!(s.kind(PageKind::RTreeLeaf).physical_reads, 1);
            assert_eq!(s.kind(PageKind::SeedLeaf), &KindStats::default());
            assert_eq!(s.total_physical_reads(), 2, "workers {workers}");
            assert_eq!(s.total_logical_reads(), 3, "workers {workers}");
            assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn since_isolates_one_query_and_accumulate_sums_streams() {
        for workers in WORKERS {
            let pool = with_workers(store_with_pages(4), 8, workers);
            pool.read_page(PageId(0), PageKind::SeedLeaf).unwrap();
            let before = pool.stats();
            pool.read_page(PageId(1), PageKind::ObjectPage).unwrap();
            pool.read_page(PageId(2), PageKind::ObjectPage).unwrap();
            let query = pool.stats().since(&before);
            assert_eq!(query.kind(PageKind::ObjectPage).physical_reads, 2);
            assert_eq!(query.kind(PageKind::SeedLeaf).physical_reads, 0);
            assert_eq!(query.total_physical_reads(), 2, "workers {workers}");

            let mut sum = IoStats::new();
            sum.accumulate(&pool.stats());
            sum.accumulate(&pool.stats());
            assert_eq!(sum.kind(PageKind::SeedLeaf).physical_reads, 2);
            assert_eq!(sum.kind(PageKind::ObjectPage).logical_reads, 4);
        }
    }

    #[test]
    fn bytes_read_derive_from_page_size() {
        for workers in WORKERS {
            let pool = with_workers(store_with_pages(2), 8, workers);
            pool.read_page(PageId(0), PageKind::ObjectPage).unwrap();
            pool.read_page(PageId(0), PageKind::ObjectPage).unwrap();
            let s = pool.stats();
            assert_eq!(s.physical_bytes_read(), crate::PAGE_SIZE as u64);
            let object = s.physical_bytes_read_of(PageKind::ObjectPage);
            assert_eq!(object, crate::PAGE_SIZE as u64, "workers {workers}");
            assert_eq!(s.physical_bytes_read_of(PageKind::SeedLeaf), 0);
        }
    }

    #[test]
    fn reset_stats_works_from_a_shared_reference() {
        for workers in WORKERS {
            let pool = with_workers(store_with_pages(2), 8, workers);
            let shared: &ConcurrentBufferPool<MemStore> = &pool;
            shared.read_page(PageId(0), PageKind::Other).unwrap();
            shared.reset_stats();
            assert_eq!(shared.stats(), IoStats::default(), "workers {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_is_rejected() {
        let _ = ConcurrentBufferPool::new(MemStore::new(), 0);
    }

    #[test]
    fn each_shard_is_an_lru() {
        // Capacity 32 over 16 shards: two pages per shard. Pages 0, 16 and
        // 32 all live in shard 0.
        let pool = ConcurrentBufferPool::new(store_with_pages(33), 32);
        for i in [0u64, 16, 0, 32, 0, 16] {
            let page = pool.read_page(PageId(i), PageKind::Other).unwrap();
            assert_eq!(page.get_u64(0), i);
        }
        // 0 miss, 16 miss, 0 hit, 32 miss evicting 16 (least recently
        // used), 0 hit, 16 miss again.
        assert_eq!(pool.stats().total_physical_reads(), 4);
        assert_eq!(pool.stats().total_logical_reads(), 6);
    }

    /// Whether `id` is cached, looked at without moving it.
    fn resident<S: PageStore>(pool: &ConcurrentBufferPool<S>, id: u64) -> bool {
        pool.core.shard_cache(PageId(id)).contains(PageId(id))
    }

    /// Reads `id` as `kind` and checks the bytes.
    fn read_as<S: PageStore>(pool: &ConcurrentBufferPool<S>, id: u64, kind: PageKind) {
        assert_eq!(pool.read_page(PageId(id), kind).unwrap().get_u64(0), id);
    }

    // The recency tests below use pages 0, 16, 32, … — all in lock shard 0
    // — so each checks one LRU list, whatever the other shards hold.

    #[test]
    fn a_read_sends_an_element_page_to_the_cold_end() {
        for workers in WORKERS {
            for element in [PageKind::ObjectPage, PageKind::RTreeLeaf] {
                // Two pages per shard. The element page is read last, by a
                // miss: it is still the victim, not the older directory
                // page.
                let pool = with_workers(store_with_pages(49), 32, workers);
                read_as(&pool, 0, PageKind::SeedLeaf);
                read_as(&pool, 16, element);
                read_as(&pool, 32, PageKind::SeedInner);
                assert!(resident(&pool, 0), "workers {workers}, {element:?}");
                assert!(!resident(&pool, 16), "workers {workers}, {element:?}");

                // The same after a hit: a directory page read between two
                // reads of the element page stays, and the element goes.
                read_as(&pool, 48, element);
                read_as(&pool, 32, PageKind::SeedLeaf);
                read_as(&pool, 48, element);
                read_as(&pool, 0, PageKind::SeedLeaf);
                assert!(resident(&pool, 32), "workers {workers}, {element:?}");
                assert!(!resident(&pool, 48), "workers {workers}, {element:?}");
                let misses = pool.stats().total_physical_reads();
                assert_eq!(misses, 5, "workers {workers}, {element:?}");
            }
        }
    }

    #[test]
    fn an_announced_element_page_survives_until_its_read() {
        for workers in [1, 4, 8] {
            // Three pages per shard. The announced page lands hot, ahead of
            // two directory pages read before it…
            let pool = with_workers(store_with_pages(81), 48, workers);
            read_as(&pool, 0, PageKind::SeedLeaf);
            read_as(&pool, 16, PageKind::SeedLeaf);
            pool.want_pages(&[(PageId(32), PageKind::ObjectPage)]);
            spin_until(|| pool.scheduler_stats().demand_completed == 3);
            // …so two unrelated misses evict those, not it…
            read_as(&pool, 48, PageKind::SeedLeaf);
            read_as(&pool, 64, PageKind::SeedLeaf);
            assert!(resident(&pool, 32), "workers {workers}");
            assert!(!resident(&pool, 0) && !resident(&pool, 16));
            // …and its read, a hit, makes it the next victim.
            read_as(&pool, 32, PageKind::ObjectPage);
            assert_eq!(pool.stats().total_physical_reads(), 5);
            read_as(&pool, 80, PageKind::SeedLeaf);
            assert!(!resident(&pool, 32), "workers {workers}");
            assert!(resident(&pool, 48) && resident(&pool, 64));
        }
    }

    #[test]
    fn an_element_read_that_joins_a_fetch_sends_it_cold() {
        // The worker holds the announced fetch of page 32 on the gate while
        // the read joins it; the fetch then lands hot, and the read must
        // still send the page cold.
        let store = GatedStore::closed(store_with_pages(49), false, Some(PageId(32)));
        let pool = with_workers(store, 48, 1);
        read_as(&pool, 0, PageKind::SeedLeaf);
        read_as(&pool, 16, PageKind::SeedLeaf);
        pool.want_pages(&[(PageId(32), PageKind::ObjectPage)]);
        spin_until(|| pool.store().entered.load(Ordering::SeqCst) == 3);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| read_as(&pool, 32, PageKind::ObjectPage));
            spin_until(|| pool.scheduler_stats().demand_coalesced == 1);
            pool.store().open();
            reader.join().unwrap();
        });
        assert!(resident(&pool, 32));
        read_as(&pool, 48, PageKind::SeedLeaf);
        assert!(!resident(&pool, 32), "the joined element read stayed hot");
        assert!(resident(&pool, 0) && resident(&pool, 16));
    }

    #[test]
    fn a_cache_that_holds_the_working_set_evicts_nothing() {
        let kinds = [
            PageKind::ObjectPage,
            PageKind::SeedLeaf,
            PageKind::RTreeLeaf,
            PageKind::SeedInner,
        ];
        for workers in WORKERS {
            // Four pages per shard, four distinct pages per shard read
            // three times each under every kind.
            let pool = with_workers(store_with_pages(64), 64, workers);
            for round in 0..3 {
                for i in 0..64u64 {
                    read_as(&pool, i, kinds[(i as usize + round) % kinds.len()]);
                }
            }
            assert_eq!(pool.stats().total_physical_reads(), 64, "workers {workers}");
            assert_eq!(pool.cached_pages(), 64, "workers {workers}");
        }
    }

    #[test]
    fn shard_capacity_bounds_cached_pages() {
        // 16 shards × 1 page each: pages 0..40 thrash their shards.
        let pool = ConcurrentBufferPool::new(store_with_pages(40), 4);
        for i in [3u64, 0, 19, 35, 3].into_iter().chain(0..40) {
            let page = pool.read_page(PageId(i), PageKind::Other).unwrap();
            assert_eq!(page.get_u64(0), i);
        }
        assert!(pool.cached_pages() <= pool.capacity());
    }

    #[test]
    fn into_store_joins_workers_and_returns_store() {
        for workers in WORKERS {
            let pool = with_workers(store_with_pages(3), 8, workers);
            pool.read_page(PageId(2), PageKind::Other).unwrap();
            let store = pool.into_store();
            assert_eq!(store.num_pages(), 3);
        }
    }

    #[test]
    fn cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConcurrentBufferPool<MemStore>>();
        assert_send_sync::<ConcurrentBufferPool<ThrottledStore<MemStore>>>();
    }

    fn wants(ids: std::ops::Range<u64>) -> Vec<(PageId, PageKind)> {
        ids.map(|i| (PageId(i), PageKind::Other)).collect()
    }

    #[test]
    fn a_zero_worker_cache_never_queues_an_announcement() {
        // No worker fetches ahead in a zero-worker cache: an announcement
        // would only queue a request in front of the read that follows. It
        // must be a no-op — the read costs exactly what it costs
        // unannounced.
        for pool in [
            ConcurrentBufferPool::new(store_with_pages(4), 16),
            with_workers(store_with_pages(4), 16, 0),
        ] {
            assert_eq!(pool.config().workers, 0);
            let pool = Arc::new(pool);
            pool.want_pages(&wants(0..4));
            assert_eq!(pool.stats(), IoStats::default());
            assert_eq!(pool.scheduler_stats(), SchedulerStats::default());
            // The read runs on its own thread so that a hang fails the
            // test instead of stalling it.
            let (tx, rx) = std::sync::mpsc::channel();
            let reader = Arc::clone(&pool);
            let handle = std::thread::spawn(move || {
                let _ = tx.send(reader.read_page(PageId(2), PageKind::Other));
            });
            let page = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("a read after an announcement blocked")
                .unwrap();
            handle.join().unwrap();
            assert_eq!(page.get_u64(0), 2);

            let unannounced = ConcurrentBufferPool::new(store_with_pages(4), 16);
            unannounced.read_page(PageId(2), PageKind::Other).unwrap();
            assert_eq!(pool.stats(), unannounced.stats());
            let (lanes, plain) = (pool.scheduler_stats(), unannounced.scheduler_stats());
            assert_eq!(lanes.demand_submitted, 1);
            assert_eq!(lanes.demand_submitted, plain.demand_submitted);
            assert_eq!(lanes.demand_completed, plain.demand_completed);
            assert_eq!(lanes.demand_queue_max, plain.demand_queue_max);
        }
    }

    #[test]
    fn concurrent_duplicate_reads_coalesce_to_one_fetch() {
        let latency = Duration::from_millis(20);
        let store = throttled(store_with_pages(2), latency);
        let sched = queued(store, 16);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    let page = sched.read_page(PageId(1), PageKind::Other).unwrap();
                    assert_eq!(page.get_u64(0), 1);
                });
            }
        });
        let stats = sched.stats();
        assert_eq!(stats.total_logical_reads(), 6);
        assert_eq!(
            stats.total_physical_reads(),
            1,
            "duplicate in-flight reads must resolve with one device fetch"
        );
        let lanes = sched.scheduler_stats();
        assert_eq!(lanes.demand_submitted + lanes.demand_coalesced, 6);
        assert_eq!(lanes.demand_submitted, 1);
        assert_eq!(lanes.demand_coalesced, 5);
    }

    /// Yields until `done` — progress made by the worker threads — holds.
    fn spin_until(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "scheduler made no progress");
            std::thread::yield_now();
        }
    }

    #[test]
    fn announced_reads_are_demand_reads_that_overlap() {
        const N: u64 = 6;
        let latency = Duration::from_millis(20);
        let store = throttled(store_with_pages(N), latency);
        let sched = queued(store, 16);
        sched.want_pages(&wants(0..N));
        // Submission alone is a physical read; nothing is logical yet.
        assert_eq!(sched.stats().total_physical_reads(), N);
        assert_eq!(sched.stats().total_logical_reads(), 0);
        assert_eq!(sched.stats().hit_rate(), 0.0);
        for i in 0..N {
            let page = sched.read_page(PageId(i), PageKind::Other).unwrap();
            assert_eq!(page.get_u64(0), i);
        }
        let lanes = sched.scheduler_stats();
        assert_eq!(lanes.demand_submitted, N);
        assert_eq!(lanes.demand_completed, N);
        let stats = sched.stats();
        assert_eq!(stats.total_physical_reads(), N);
        assert_eq!(stats.total_logical_reads(), N);
        assert!(
            sched.store().max_queue_depth() >= 2,
            "announced fetches never overlapped on the device"
        );
    }

    #[test]
    fn announcing_a_cached_or_inflight_page_changes_no_counter() {
        let latency = Duration::from_millis(50);
        let store = throttled(store_with_pages(4), latency);
        let sched = queued(store, 16);
        sched.read_page(PageId(1), PageKind::Other).unwrap(); // cached
        sched.want_pages(&wants(2..3)); // in flight (or, later, cached)
        let io = sched.stats();
        let lanes = sched.scheduler_stats();
        assert_eq!(lanes.demand_submitted, 2);
        sched.want_pages(&wants(1..3));
        sched.want_pages(&[]);
        assert_eq!(sched.stats(), io);
        let after = sched.scheduler_stats();
        assert_eq!(after.demand_submitted, lanes.demand_submitted);
        assert_eq!(after.demand_coalesced, lanes.demand_coalesced);
        assert_eq!(after.demand_queue_max, lanes.demand_queue_max);
    }

    #[test]
    fn install_cached_beats_an_announced_fetch_of_the_same_page() {
        // The stale flag must cover requests nobody waits on: the store still holds the old bytes here, so any leak
        // of the announced fetch's result into the cache shows.
        let latency = Duration::from_millis(10);
        let store = throttled(store_with_pages(4), latency);
        let sched = with_workers(store, 16, 1);
        sched.want_pages(&wants(0..2));
        let mut page = Page::new();
        page.put_u64(0, 4242);
        sched.install_cached(PageId(1), &page, PageKind::Other);
        let read = sched.read_page(PageId(1), PageKind::Other).unwrap();
        assert_eq!(read.get_u64(0), 4242);
        // Once both announced fetches have landed the cache still holds
        // the installed bytes.
        spin_until(|| sched.scheduler_stats().demand_completed == 2);
        let read = sched.read_page(PageId(1), PageKind::Other).unwrap();
        assert_eq!(read.get_u64(0), 4242);
    }

    #[test]
    fn announced_fetches_complete_and_never_hang_drop() {
        let latency = Duration::from_millis(5);
        let store = throttled(store_with_pages(16), latency);
        let sched = with_workers(store, 16, 1);
        sched.want_pages(&wants(0..8));
        // The workers complete waiter-less requests like any other.
        assert_conserved(&sched);
        let lanes = sched.scheduler_stats();
        assert_eq!(lanes.demand_submitted, 8);
        assert_eq!(lanes.demand_completed, 8);
        assert_eq!(sched.cached_pages(), 8);
        sched.want_pages(&wants(8..16));
        drop(sched); // drains the queue, then joins the workers
    }

    #[test]
    fn a_failed_announced_fetch_is_neither_cached_nor_lost() {
        let sched = queued(store_with_pages(2), 16);
        sched.want_pages(&[(PageId(99), PageKind::Other)]);
        spin_until(|| sched.scheduler_stats().demand_completed == 1);
        assert_eq!(sched.cached_pages(), 0);
        let err = sched.read_page(PageId(99), PageKind::Other).unwrap_err();
        assert!(
            matches!(err, StorageError::PageOutOfRange { .. }),
            "{err:?}"
        );
    }

    /// A store whose reads decide their fate on entry (fail while `failing`
    /// is set), then park until `gate` opens — so a test can hold a doomed
    /// fetch in flight while the device "recovers". Only reads of `gated`
    /// park when it names a page; every read does when it is `None`.
    struct GatedStore {
        inner: MemStore,
        failing: AtomicBool,
        entered: AtomicU64,
        gated: Option<PageId>,
        gate: (Mutex<bool>, Condvar),
    }

    impl GatedStore {
        fn closed(inner: MemStore, failing: bool, gated: Option<PageId>) -> GatedStore {
            GatedStore {
                inner,
                failing: AtomicBool::new(failing),
                entered: AtomicU64::new(0),
                gated,
                gate: (Mutex::new(false), Condvar::new()),
            }
        }

        fn open(&self) {
            *lock_unpoisoned(&self.gate.0) = true;
            self.gate.1.notify_all();
        }
    }

    impl PageStore for GatedStore {
        fn alloc(&mut self) -> Result<PageId, StorageError> {
            self.inner.alloc()
        }
        fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
            self.inner.write_page(id, page)
        }
        fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
            let doomed = self.failing.load(Ordering::SeqCst);
            self.entered.fetch_add(1, Ordering::SeqCst);
            if self.gated.is_none_or(|gated| gated == id) {
                let mut open = lock_unpoisoned(&self.gate.0);
                while !*open {
                    open = wait_unpoisoned(&self.gate.1, open);
                }
            }
            if doomed {
                return Err(StorageError::Io(std::io::Error::other("device down")));
            }
            self.inner.read_page(id, out)
        }
        fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
            self.inner.free_page(id)
        }
        fn free_pages(&self) -> Vec<PageId> {
            self.inner.free_pages()
        }
        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }
    }

    #[test]
    fn a_read_that_joins_a_failed_fetch_makes_its_own_attempt() {
        let sched = queued(GatedStore::closed(store_with_pages(2), true, None), 16);
        // An announced fetch reaches the device while it is down…
        sched.want_pages(&wants(1..2));
        spin_until(|| sched.store().entered.load(Ordering::SeqCst) == 1);
        // …the device recovers, and only then does the read arrive. It
        // joins the doomed fetch, whose error is not its own.
        sched.store().failing.store(false, Ordering::SeqCst);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| sched.read_page(PageId(1), PageKind::Other));
            spin_until(|| sched.scheduler_stats().demand_coalesced == 1);
            sched.store().open();
            let page = reader
                .join()
                .unwrap()
                .expect("the retry reads a healthy device");
            assert_eq!(page.get_u64(0), 1);
        });
        let stats = sched.stats();
        assert_eq!(stats.total_logical_reads(), 1);
        assert_eq!(
            stats.total_physical_reads(),
            2,
            "the failed fetch and the retry"
        );
    }

    /// Waits for every submitted fetch to retire from the in-flight table
    /// and checks that each one completed.
    fn assert_conserved<S: PageStore>(sched: &ConcurrentBufferPool<S>) {
        spin_until(|| lock_unpoisoned(&sched.core.queue).inflight.is_empty());
        let lanes = sched.scheduler_stats();
        assert_eq!(lanes.demand_submitted, lanes.demand_completed, "{lanes:?}");
    }

    #[test]
    fn a_reader_fetches_its_own_page_while_every_worker_is_busy() {
        // The only worker is parked on the gate with page 1. A read of
        // page 0 must not sleep beside its queued fetch: the reader
        // services it itself.
        let store = GatedStore::closed(store_with_pages(2), false, Some(PageId(1)));
        let sched = Arc::new(with_workers(store, 16, 1));
        sched.want_pages(&wants(1..2));
        spin_until(|| sched.store().entered.load(Ordering::SeqCst) == 1);
        // The read runs on its own thread, so a reader that sleeps fails
        // the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = Arc::clone(&sched);
        let handle = std::thread::spawn(move || {
            let _ = tx.send(reader.read_page(PageId(0), PageKind::Other));
        });
        let page = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the read slept while its fetch sat in the queue")
            .unwrap();
        assert_eq!(page.get_u64(0), 0);
        handle.join().unwrap();
        sched.store().open();
        let sched = Arc::into_inner(sched).expect("the reader has exited");
        assert_conserved(&sched);
        assert_eq!(sched.scheduler_stats().demand_submitted, 2);
        assert_eq!(sched.stats().total_physical_reads(), 2);
    }

    #[test]
    fn readers_that_help_never_strand_a_resubmitted_page() {
        // Readers re-read a handful of pages while the cache is cleared
        // under them, so a page's fetch retires and the same page is
        // submitted again while other readers are servicing the queue.
        // Every request must be serviced exactly once: a second service of
        // a retired request would retire its successor unserviced and
        // strand that request's waiters.
        const PAGES: u64 = 6;
        let store = throttled(store_with_pages(PAGES), Duration::from_micros(50));
        let sched = Arc::new(with_workers(store, 16, 1));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let sched = Arc::clone(&sched);
                std::thread::spawn(move || {
                    for round in 0..300u64 {
                        for i in 0..PAGES {
                            let id = (i + t + round) % PAGES;
                            let page = sched.read_page(PageId(id), PageKind::Other).unwrap();
                            assert_eq!(page.get_u64(0), id);
                        }
                        if round % 3 == t % 3 {
                            sched.clear_cache();
                        }
                    }
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        while !handles.iter().all(|handle| handle.is_finished()) {
            assert!(
                Instant::now() < deadline,
                "a reader is stranded on a request nobody services"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let sched = Arc::into_inner(sched).expect("the readers have exited");
        assert_conserved(&sched);
        let lanes = sched.scheduler_stats();
        assert_eq!(lanes.demand_submitted, sched.stats().total_physical_reads());
        assert!(lanes.demand_submitted > PAGES, "{lanes:?}");
    }

    #[test]
    fn a_write_marks_inflight_fetches_stale() {
        let latency = Duration::from_millis(10);
        let store = throttled(store_with_pages(4), latency);
        let mut sched = with_workers(store, 16, 1);
        // Kick off waiter-less fetches of the page we're about to change.
        sched.want_pages(&wants(0..2));
        let mut page = Page::new();
        page.put_u64(0, 4242);
        sched.write(PageId(1), &page, PageKind::Other).unwrap();
        // However the race resolved, the post-write read sees the new
        // bytes, and so does a read once both fetches have landed.
        let read = sched.read_page(PageId(1), PageKind::Other).unwrap();
        assert_eq!(read.get_u64(0), 4242);
        assert_conserved(&sched);
        let read = sched.read_page(PageId(1), PageKind::Other).unwrap();
        assert_eq!(read.get_u64(0), 4242);
    }

    #[test]
    fn a_fetch_in_flight_across_a_write_is_never_cached() {
        // The one coherence rule: a write marks the page's in-flight fetch
        // stale, and a stale fetch, which may hold pre-write bytes, stays
        // out of the cache. The gate holds the fetch on the device across
        // the write: an announced one with a worker, a reader's own
        // without.
        for workers in [0, 1] {
            let store = GatedStore::closed(store_with_pages(2), false, Some(PageId(1)));
            let sched = with_workers(store, 16, workers);
            std::thread::scope(|scope| {
                let reader = (workers == 0)
                    .then(|| scope.spawn(|| sched.read_page(PageId(1), PageKind::Other)));
                sched.want_pages(&wants(1..2));
                spin_until(|| sched.store().entered.load(Ordering::SeqCst) == 1);
                sched.drop_cached(PageId(1));
                sched.store().open();
                if let Some(reader) = reader {
                    // It joined before the write, so it keeps the bytes.
                    assert_eq!(reader.join().unwrap().unwrap().get_u64(0), 1);
                }
                spin_until(|| sched.scheduler_stats().demand_completed == 1);
            });
            assert_eq!(sched.cached_pages(), 0, "workers {workers}");
        }
    }

    #[test]
    fn errors_fan_out_to_every_coalesced_waiter() {
        let latency = Duration::from_millis(20);
        let store = throttled(store_with_pages(1), latency);
        let sched = queued(store, 16);
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for _ in 0..4 {
                joins.push(scope.spawn(|| sched.read_page(PageId(99), PageKind::Other)));
            }
            for join in joins {
                let err = join.join().unwrap().unwrap_err();
                assert!(
                    matches!(err, StorageError::PageOutOfRange { .. }),
                    "variant must survive the fan-out, got {err:?}"
                );
            }
        });
    }

    #[test]
    fn scheduler_stats_reset_and_accumulate() {
        let sched = queued(store_with_pages(2), 8);
        sched.read_page(PageId(0), PageKind::Other).unwrap();
        let one = sched.scheduler_stats();
        assert_eq!(one.demand_submitted, 1);
        let mut sum = SchedulerStats::default();
        sum.accumulate(&one);
        sum.accumulate(&one);
        assert_eq!(sum.demand_submitted, 2);
        assert_eq!(sum.demand_queue_max, one.demand_queue_max);
        sched.reset_scheduler_stats();
        assert_eq!(sched.scheduler_stats(), SchedulerStats::default());
    }
}
