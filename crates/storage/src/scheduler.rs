//! Asynchronous disk scheduler: a submission-queue worker pool behind the
//! [`PageRead`] hooks.
//!
//! The paper's serving story (§VII-E) is many concurrent query streams
//! against one device. The [`crate::ConcurrentBufferPool`] already lets
//! threads *share a cache*, but every cache miss still blocks the reading
//! thread for the full device latency, and duplicate misses within a
//! shard head-of-line-block each other. [`DiskScheduler`] centralizes
//! device access instead:
//!
//! * **Submission queue + worker pool** — readers enqueue page requests;
//!   a small pool of I/O workers services them against the store. Readers
//!   block only on *their own* request's completion.
//! * **Request coalescing** — duplicate in-flight reads of one page
//!   resolve with a single device fetch whose result fans out to every
//!   waiter (tracked in [`SchedulerStats::demand_coalesced`]). Only pages
//!   fan out: a reader that joined somebody else's fetch and sees it fail
//!   makes one attempt of its own, so the error a caller gets always comes
//!   from a device access made for that call — not from an announcement's
//!   fetch that ran before the call was even issued.
//! * **Announced demand reads** — a demand read is two halves, *submit*
//!   and *await*. [`PageRead::read_page`] does both; [`PageRead::want_pages`]
//!   does only the first, for a batch of pages the caller is certain to
//!   read next. An announced page that is neither cached nor in flight
//!   becomes an ordinary request with no waiter yet — same queue, same
//!   counters ([`SchedulerStats::demand_submitted`], the kind's
//!   `physical_reads`), never dropped — and the caller's later
//!   `read_page` finds it cached or coalesces onto it. This is how one
//!   query keeps the device queue full: a crawl announces a whole wave of
//!   records, the workers fetch them side by side, and the crawl's own
//!   reads then wait for one overlapped round trip instead of one each.
//! * **Graceful shutdown** — dropping the scheduler *drains every queued
//!   and in-flight read* (announced ones included) before the workers
//!   exit, so no reader ever observes a torn or abandoned request.
//!
//! There is one queue. Every request in it is a read some caller is going
//! to wait for, so nothing is ever dropped, reprioritized or accounted as
//! waste.
//!
//! The scheduler is itself a page cache (same lock-sharded LRU state as
//! the concurrent pool) and implements both [`PageRead`] and
//! [`PageWrite`]; exclusive writes quiesce the queue first so a stale
//! in-flight fetch can never clobber freshly written bytes.

use crate::pool::{AtomicIoStats, CacheState};
use crate::sync_util::lock_unpoisoned;
use crate::{
    BufferPool, IoStats, Page, PageId, PageKind, PageRead, PageStore, PageWrite, StorageError,
    DEFAULT_SHARDS,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// The one tuning knob of a [`DiskScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Number of I/O worker threads servicing the submission queue. This is
    /// the device concurrency the scheduler exposes; match it to the
    /// device's internal parallelism (e.g. spindle count).
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig { workers: 4 }
    }
}

/// Counters describing what the scheduler's queue did — snapshot type,
/// taken with [`DiskScheduler::scheduler_stats`].
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
    /// Fetches serviced by the workers.
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
    /// max) — used to roll shard schedulers up into one figure.
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
/// servicing worker publishes the result into `done` and wakes every
/// waiter.
struct Request {
    /// Set by a shared-write install/drop of the same page while this
    /// request is in flight: the fetch may return pre-write bytes. New
    /// demand reads refuse to coalesce onto a stale request (they go to
    /// the store directly), and the servicing worker does not cache its
    /// result. Waiters that joined *before* the write still receive the
    /// bytes — under the MVCC protocol those readers are pinned to an
    /// epoch whose overlay corrects the page anyway.
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

    /// Blocks until the servicing worker publishes a result.
    fn await_result(&self) -> Result<Page, StorageError> {
        let mut done = lock_unpoisoned(&self.done);
        loop {
            if let Some(result) = done.as_ref() {
                return match result {
                    Ok(page) => Ok(page.clone()),
                    Err(err) => Err(clone_error(err)),
                };
            }
            done = wait_unpoisoned(&self.cv, done);
        }
    }
}

/// [`StorageError`] is deliberately not `Clone` ([`std::io::Error`] isn't);
/// fanning one result out to several coalesced waiters reconstructs an
/// equivalent error per waiter, preserving the variant (so callers that
/// match on `PageOutOfRange` etc. behave identically with and without the
/// scheduler).
fn clone_error(err: &StorageError) -> StorageError {
    match err {
        StorageError::PageOutOfRange { page, allocated } => StorageError::PageOutOfRange {
            page: *page,
            allocated: *allocated,
        },
        StorageError::PageOverflow {
            requested,
            remaining,
        } => StorageError::PageOverflow {
            requested: *requested,
            remaining: *remaining,
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
/// sits in `demand` exactly once until a worker pops it.
struct SubmissionQueue {
    demand: VecDeque<PageId>,
    inflight: HashMap<PageId, Arc<Request>>,
    shutdown: bool,
}

/// State shared between the scheduler façade and its workers.
struct Core<S: PageStore> {
    store: RwLock<S>,
    shards: Vec<Mutex<CacheState>>,
    shard_capacity: usize,
    capacity: usize,
    config: SchedulerConfig,
    io: AtomicIoStats,
    sched: AtomicSchedulerStats,
    /// Bumped by every shared-write install/drop. Workers snapshot it
    /// before their store fetch and skip the cache insert if it moved —
    /// the fetched bytes may predate a concurrent writer's install.
    write_stamp: AtomicU64,
    queue: Mutex<SubmissionQueue>,
    /// Wakes workers when work arrives (or shutdown is signalled).
    work: Condvar,
    /// Wakes quiesce/shutdown waiters when the in-flight table empties.
    idle: Condvar,
}

impl<S: PageStore> Core<S> {
    fn shard_cache(&self, id: PageId) -> MutexGuard<'_, CacheState> {
        let index = (id.0 as usize) & (self.shards.len() - 1);
        lock_unpoisoned(&self.shards[index])
    }

    fn read_store(&self) -> std::sync::RwLockReadGuard<'_, S> {
        match self.store.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write_store(&self) -> std::sync::RwLockWriteGuard<'_, S> {
        match self.store.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// A synchronous store read on the calling thread, bypassing queue and
    /// cache — the fallback of reads that cannot use an in-flight fetch.
    fn read_direct(&self, id: PageId) -> Result<Page, StorageError> {
        let mut page = Page::new();
        self.read_store().read_page(id, &mut page)?;
        Ok(page)
    }

    /// The *submit* half of a demand read: queues a fetch of `id` and
    /// counts it as a physical read. The caller holds the queue
    /// lock and has checked that `id` is not in flight; whether anyone
    /// awaits the returned request is the caller's business
    /// (`read_page` does, `want_pages` does not).
    fn submit_demand(&self, q: &mut SubmissionQueue, id: PageId, kind: PageKind) -> Arc<Request> {
        let req = Arc::new(Request::new());
        q.inflight.insert(id, Arc::clone(&req));
        q.demand.push_back(id);
        self.sched.demand_submitted.fetch_add(1, Ordering::Relaxed);
        self.sched
            .demand_queue_max
            .fetch_max(q.demand.len() as u64, Ordering::Relaxed);
        self.io.record_physical_read(kind);
        self.work.notify_one();
        req
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

/// Fetches one claimed request from the store, publishes the page into the
/// cache, completes the request, and retires it from the in-flight table —
/// in that order, so a waiter woken by the completion finds the page
/// already cached.
fn service<S: PageStore>(core: &Core<S>, id: PageId, req: Arc<Request>) {
    let start = Instant::now();
    let stamp = core.write_stamp.load(Ordering::SeqCst);
    let mut page = Page::new();
    let result = {
        let store = core.read_store();
        store.read_page(id, &mut page).map(|()| page)
    };
    let service_us = start.elapsed().as_micros() as u64;

    if let Ok(page) = &result {
        let mut cache = core.shard_cache(id);
        let fresh =
            !req.stale.load(Ordering::Acquire) && core.write_stamp.load(Ordering::SeqCst) == stamp;
        if fresh && !cache.contains(id) {
            cache.insert(id, page.clone(), core.shard_capacity);
        }
    }

    let relaxed = Ordering::Relaxed;
    core.sched.demand_completed.fetch_add(1, relaxed);
    core.sched.demand_service_us.fetch_add(service_us, relaxed);
    let wait_us = req.submitted.elapsed().as_micros() as u64;
    core.sched.demand_wait_us.fetch_add(wait_us, relaxed);

    {
        let mut done = lock_unpoisoned(&req.done);
        *done = Some(result);
        req.cv.notify_all();
    }
    {
        let mut q = lock_unpoisoned(&core.queue);
        q.inflight.remove(&id);
        if q.inflight.is_empty() {
            core.idle.notify_all();
        }
    }
}

/// Owns the worker threads; dropping it signals shutdown, lets the queue
/// drain, and joins every worker.
struct WorkerSet<S: PageStore + Send + Sync + 'static> {
    core: Arc<Core<S>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<S: PageStore + Send + Sync + 'static> Drop for WorkerSet<S> {
    fn drop(&mut self) {
        {
            let mut q = lock_unpoisoned(&self.core.queue);
            q.shutdown = true;
        }
        self.core.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A submission-queue disk scheduler serving a lock-sharded page cache.
///
/// `DiskScheduler` is a drop-in [`PageRead`]/[`PageWrite`] pool (same
/// caching and [`IoStats`] semantics as [`crate::ConcurrentBufferPool`])
/// whose cache misses go through a central submission queue instead of
/// hitting the store from the calling thread — see the [module
/// docs](crate::scheduler) for the scheduling policy. One scheduler per
/// device is the intended deployment; `flat_core`'s `ShardedDb` runs one
/// per shard.
pub struct DiskScheduler<S: PageStore + Send + Sync + 'static> {
    core: Arc<Core<S>>,
    workers: WorkerSet<S>,
}

impl<S: PageStore + Send + Sync + 'static> DiskScheduler<S> {
    /// Creates a scheduler over `store` caching at most `capacity` pages,
    /// with the default [`SchedulerConfig`].
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(store: S, capacity: usize) -> DiskScheduler<S> {
        DiskScheduler::with_config(store, capacity, SchedulerConfig::default())
    }

    /// Creates a scheduler with an explicit worker count (clamped to at
    /// least one).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_config(store: S, capacity: usize, config: SchedulerConfig) -> DiskScheduler<S> {
        assert!(
            capacity > 0,
            "buffer pool capacity must be at least one page"
        );
        let shards = DEFAULT_SHARDS;
        let core = Arc::new(Core {
            store: RwLock::new(store),
            shards: (0..shards).map(|_| Mutex::new(CacheState::new())).collect(),
            shard_capacity: capacity.div_ceil(shards).max(1),
            capacity,
            config,
            io: AtomicIoStats::default(),
            sched: AtomicSchedulerStats::default(),
            write_stamp: AtomicU64::new(0),
            queue: Mutex::new(SubmissionQueue {
                demand: VecDeque::new(),
                inflight: HashMap::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let handles = (0..config.workers.max(1))
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("flat-disk-io-{i}"))
                    .spawn(move || worker_loop(&core))
                    .expect("spawn disk scheduler worker")
            })
            .collect();
        DiskScheduler {
            workers: WorkerSet {
                core: Arc::clone(&core),
                handles,
            },
            core,
        }
    }

    /// Converts an exclusive build pool into a scheduler over the same
    /// store and capacity, carrying the I/O statistics over (the cache
    /// contents are dropped — queries start cold, as the measurement
    /// protocol demands).
    pub fn from_pool(pool: BufferPool<S>, config: SchedulerConfig) -> DiskScheduler<S> {
        let stats = pool.stats();
        let capacity = pool.capacity();
        let scheduler = DiskScheduler::with_config(pool.into_store(), capacity, config);
        scheduler.core.io.load_snapshot(&stats);
        scheduler
    }

    /// The scheduler's configuration.
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
    pub fn store(&self) -> std::sync::RwLockReadGuard<'_, S> {
        self.core.read_store()
    }

    /// Number of pages allocated in the underlying store.
    pub fn num_pages(&self) -> u64 {
        self.core.read_store().num_pages()
    }

    /// Snapshot of the current I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.core.io.snapshot()
    }

    /// Snapshots the statistics (for later [`IoStats::since`] diffs).
    pub fn snapshot(&self) -> IoStats {
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
    /// put the same bytes on the store. Any in-flight fetch of the page is
    /// marked stale: the worker won't cache its result and later demand
    /// reads won't coalesce onto it.
    pub fn install_cached(&self, id: PageId, page: &Page, kind: PageKind) {
        let core = &self.core;
        core.write_stamp.fetch_add(1, Ordering::SeqCst);
        {
            let q = lock_unpoisoned(&core.queue);
            if let Some(req) = q.inflight.get(&id) {
                req.stale.store(true, Ordering::Release);
            }
        }
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
    /// free path of the MVCC batch writer. In-flight fetches of the page
    /// are marked stale, exactly as in [`Self::install_cached`].
    pub fn drop_cached(&self, id: PageId) {
        let core = &self.core;
        core.write_stamp.fetch_add(1, Ordering::SeqCst);
        {
            let q = lock_unpoisoned(&core.queue);
            if let Some(req) = q.inflight.get(&id) {
                req.stale.store(true, Ordering::Release);
            }
        }
        core.shard_cache(id).remove(id);
    }

    /// Exclusive access to the underlying store: quiesces every in-flight
    /// read, then runs `f` under the store's write lock. This is the
    /// flush barrier the durability layer needs — a checkpoint through
    /// the scheduler cannot interleave with reads it is writing under.
    /// The cache is cleared afterwards in case `f` mutated pages.
    pub fn with_store_mut<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        self.quiesce();
        let result = f(&mut self.core.write_store());
        self.clear_cache();
        result
    }

    /// Shuts the workers down (draining every queued and in-flight read)
    /// and returns the store.
    pub fn into_store(self) -> S {
        let DiskScheduler { core, workers } = self;
        drop(workers); // signals shutdown and joins every worker
        match Arc::try_unwrap(core) {
            Ok(core) => match core.store.into_inner() {
                Ok(store) => store,
                Err(poisoned) => poisoned.into_inner(),
            },
            Err(_) => panic!("scheduler core still shared after workers joined"),
        }
    }

    /// Waits until nothing is in flight: blocks until the workers have
    /// retired every submitted request. Called with `&mut self`, so no new
    /// request can arrive concurrently.
    fn quiesce(&mut self) {
        let core = &self.core;
        let mut q = lock_unpoisoned(&core.queue);
        while !q.inflight.is_empty() {
            q = wait_unpoisoned(&core.idle, q);
        }
    }
}

impl<S: PageStore + Send + Sync + 'static> PageRead for DiskScheduler<S> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        let core = &self.core;
        {
            let mut cache = core.shard_cache(id);
            if let Some(slot) = cache.lookup(id) {
                core.io.record_read(kind, false);
                return Ok(cache.page(slot).clone());
            }
        }
        // `joined`: this read piggybacks on a fetch somebody else submitted
        // (another reader, or an earlier announcement).
        let (req, joined) = {
            let mut q = lock_unpoisoned(&core.queue);
            if q.shutdown {
                // Defensive: workers are gone (mid-teardown). Fetch
                // synchronously so the read still completes correctly.
                drop(q);
                core.io.record_read(kind, true);
                return core.read_direct(id);
            }
            if let Some(req) = q.inflight.get(&id) {
                if req.stale.load(Ordering::Acquire) {
                    // The in-flight fetch predates a shared write of this
                    // page: its bytes may be stale. Read the store
                    // directly instead of piggybacking (and leave the
                    // cache alone — the writer's install owns it).
                    drop(q);
                    core.io.record_read(kind, true);
                    return core.read_direct(id);
                }
                // Coalesce: piggyback on the in-flight fetch.
                let req = Arc::clone(req);
                core.sched.demand_coalesced.fetch_add(1, Ordering::Relaxed);
                core.io.record_read(kind, false);
                (req, true)
            } else {
                core.io.record_read(kind, false);
                (core.submit_demand(&mut q, id, kind), false)
            }
        };
        match req.await_result() {
            Ok(page) => Ok(page),
            // The fetch this read joined failed — possibly an announced
            // one that hit the device long before this read was issued.
            // That failure is not this read's: it makes its own attempt,
            // so an error reaches a caller only from a device access made
            // on behalf of that very call.
            Err(_) if joined => {
                core.io.record_physical_read(kind);
                core.read_direct(id)
            }
            Err(err) => Err(err),
        }
    }

    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        let core = &self.core;
        for &(id, kind) in pages {
            if core.shard_cache(id).contains(id) {
                continue; // the read will be a hit
            }
            let mut q = lock_unpoisoned(&core.queue);
            // In flight (stale or not): the read coalesces or goes direct,
            // exactly as without the announcement.
            if !q.shutdown && !q.inflight.contains_key(&id) {
                core.submit_demand(&mut q, id, kind);
            }
        }
    }
}

/// Exclusive writes quiesce the submission queue first (draining every
/// submitted fetch), so a stale in-flight read can never re-insert
/// pre-write bytes into the cache after the write lands.
impl<S: PageStore + Send + Sync + 'static> PageWrite for DiskScheduler<S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.core.write_store().alloc()
    }

    fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError> {
        self.quiesce();
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
        self.quiesce();
        self.core.write_store().free_page(id)?;
        self.core.shard_cache(id).remove(id);
        Ok(())
    }
}

impl<S: PageStore + Send + Sync + 'static> std::fmt::Debug for DiskScheduler<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskScheduler")
            .field("capacity", &self.core.capacity)
            .field("config", &self.core.config)
            .field("cached", &self.cached_pages())
            .field("sched", &self.scheduler_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemStore, ThrottledStore};
    use std::time::Duration;

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

    #[test]
    fn demand_reads_return_correct_pages_and_account_io() {
        let sched = DiskScheduler::new(store_with_pages(8), 16);
        for i in [3u64, 0, 3, 7, 0] {
            let page = sched.read_page(PageId(i), PageKind::Other).unwrap();
            assert_eq!(page.get_u64(0), i);
        }
        let stats = sched.stats();
        assert_eq!(stats.total_logical_reads(), 5);
        assert_eq!(stats.total_physical_reads(), 3);
        let lanes = sched.scheduler_stats();
        assert_eq!(lanes.demand_submitted, 3);
        assert_eq!(lanes.demand_completed, 3);
    }

    #[test]
    fn concurrent_duplicate_reads_coalesce_to_one_fetch() {
        let latency = Duration::from_millis(20);
        let store = ThrottledStore::new(store_with_pages(2), latency);
        let sched = DiskScheduler::new(store, 16);
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

    fn wants(ids: std::ops::Range<u64>) -> Vec<(PageId, PageKind)> {
        ids.map(|i| (PageId(i), PageKind::Other)).collect()
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
        let store = ThrottledStore::new(store_with_pages(N), latency);
        let sched = DiskScheduler::new(store, 16);
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
        let store = ThrottledStore::new(store_with_pages(4), latency);
        let sched = DiskScheduler::new(store, 16);
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
        // The stale / write-stamp protection must cover requests nobody
        // waits on: the store still holds the old bytes here, so any leak
        // of the announced fetch's result into the cache shows.
        let latency = Duration::from_millis(10);
        let store = ThrottledStore::new(store_with_pages(4), latency);
        let config = SchedulerConfig { workers: 1 };
        let sched = DiskScheduler::with_config(store, 16, config);
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
    fn announced_fetches_never_hang_drop_or_store_mut() {
        let latency = Duration::from_millis(5);
        let config = SchedulerConfig { workers: 1 };
        let store = ThrottledStore::new(store_with_pages(16), latency);
        let mut sched = DiskScheduler::with_config(store, 16, config);
        sched.want_pages(&wants(0..8));
        // The flush barrier drains waiter-less requests like any other.
        assert_eq!(sched.with_store_mut(|store| store.num_pages()), 16);
        let lanes = sched.scheduler_stats();
        assert_eq!(lanes.demand_submitted, 8);
        assert_eq!(lanes.demand_completed, 8);
        sched.want_pages(&wants(8..16));
        drop(sched); // drains the queue, then joins the workers
    }

    #[test]
    fn a_failed_announced_fetch_is_neither_cached_nor_lost() {
        let sched = DiskScheduler::new(store_with_pages(2), 16);
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
    /// fetch in flight while the device "recovers".
    struct GatedStore {
        inner: MemStore,
        failing: AtomicBool,
        entered: AtomicU64,
        gate: (Mutex<bool>, Condvar),
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
            let mut open = lock_unpoisoned(&self.gate.0);
            while !*open {
                open = wait_unpoisoned(&self.gate.1, open);
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
        let store = GatedStore {
            inner: store_with_pages(2),
            failing: AtomicBool::new(true),
            entered: AtomicU64::new(0),
            gate: (Mutex::new(false), Condvar::new()),
        };
        let sched = DiskScheduler::new(store, 16);
        // An announced fetch reaches the device while it is down…
        sched.want_pages(&wants(1..2));
        spin_until(|| sched.store().entered.load(Ordering::SeqCst) == 1);
        // …the device recovers, and only then does the read arrive. It
        // joins the doomed fetch, whose error is not its own.
        sched.store().failing.store(false, Ordering::SeqCst);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| sched.read_page(PageId(1), PageKind::Other));
            spin_until(|| sched.scheduler_stats().demand_coalesced == 1);
            *lock_unpoisoned(&sched.store().gate.0) = true;
            sched.store().gate.1.notify_all();
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

    #[test]
    fn write_quiesces_inflight_fetches() {
        let latency = Duration::from_millis(10);
        let store = ThrottledStore::new(store_with_pages(4), latency);
        let config = SchedulerConfig { workers: 1 };
        let mut sched = DiskScheduler::with_config(store, 16, config);
        // Kick off waiter-less fetches of the page we're about to change.
        sched.want_pages(&wants(0..2));
        let mut page = Page::new();
        page.put_u64(0, 4242);
        sched.write(PageId(1), &page, PageKind::Other).unwrap();
        // However the race resolved, the post-write read sees the new bytes.
        let read = sched.read_page(PageId(1), PageKind::Other).unwrap();
        assert_eq!(read.get_u64(0), 4242);
    }

    #[test]
    fn errors_fan_out_to_every_coalesced_waiter() {
        let latency = Duration::from_millis(20);
        let store = ThrottledStore::new(store_with_pages(1), latency);
        let sched = DiskScheduler::new(store, 16);
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
    fn into_store_joins_workers_and_returns_store() {
        let sched = DiskScheduler::new(store_with_pages(3), 8);
        sched.read_page(PageId(2), PageKind::Other).unwrap();
        let store = sched.into_store();
        assert_eq!(store.num_pages(), 3);
    }

    #[test]
    fn from_pool_carries_stats() {
        let mut pool = BufferPool::new(store_with_pages(4), 8);
        pool.read(PageId(0), PageKind::SeedLeaf).unwrap();
        let sched = DiskScheduler::from_pool(pool, SchedulerConfig::default());
        assert_eq!(sched.stats().kind(PageKind::SeedLeaf).physical_reads, 1);
        sched.read_page(PageId(1), PageKind::ObjectPage).unwrap();
        assert_eq!(sched.stats().total_physical_reads(), 2);
    }

    #[test]
    fn free_and_alloc_round_trip_through_the_scheduler() {
        let mut sched = DiskScheduler::new(store_with_pages(4), 16);
        sched.read_page(PageId(1), PageKind::Other).unwrap(); // cached
        PageWrite::free(&mut sched, PageId(1)).unwrap();
        assert!(sched.read_page(PageId(1), PageKind::Other).is_err());
        assert_eq!(PageWrite::alloc(&mut sched).unwrap(), PageId(1));
        // Reallocated page reads back zeroed.
        let page = sched.read_page(PageId(1), PageKind::Other).unwrap();
        assert_eq!(page.get_u64(0), 0);
    }

    #[test]
    fn scheduler_stats_reset_and_accumulate() {
        let sched = DiskScheduler::new(store_with_pages(2), 8);
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

    #[test]
    fn scheduler_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DiskScheduler<MemStore>>();
        assert_send_sync::<DiskScheduler<ThrottledStore<MemStore>>>();
    }
}
