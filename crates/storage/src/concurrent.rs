//! The one page cache: a lock-sharded LRU over a [`PageStore`] with atomic
//! [`IoStats`] and an optional pool of I/O workers. Every build, query,
//! baseline and test in the workspace runs over it.
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
//! A hit is the same whatever the configuration: lock the shard, look the
//! page up, copy it out. Only a **miss** differs, and the number of I/O
//! workers ([`SchedulerConfig::workers`]) decides how:
//!
//! * **No workers** ([`ConcurrentBufferPool::new`]): the caller fetches the
//!   page itself, holding the page's shard lock. Misses serialize within
//!   one shard only, a page is fetched once even when several threads miss
//!   on it together, and no shared-borrow install of the same page can slip
//!   in between the fetch and the cache insert. Nothing is ever queued, so
//!   [`PageRead::want_pages`] is a no-op and exclusive writes have nothing
//!   to quiesce.
//! * **One or more workers** ([`ConcurrentBufferPool::with_config`]): a
//!   miss goes through a central submission queue that the workers service
//!   against the store; a reader blocks only on *its own* request.
//!   * **Request coalescing** — duplicate in-flight reads of one page
//!     resolve with a single device fetch whose result fans out to every
//!     waiter (tracked in [`SchedulerStats::demand_coalesced`]). Only pages
//!     fan out: a reader that joined somebody else's fetch and sees it fail
//!     makes one attempt of its own, so the error a caller gets always
//!     comes from a device access made for that call — not from an
//!     announcement's fetch that ran before the call was even issued.
//!   * **Announced demand reads** — a demand read is two halves, *submit*
//!     and *await*. [`PageRead::read_page`] does both;
//!     [`PageRead::want_pages`] does only the first, for a batch of pages
//!     the caller is certain to read next. An announced page that is
//!     neither cached nor in flight becomes an ordinary request with no
//!     waiter yet — same queue, same counters
//!     ([`SchedulerStats::demand_submitted`], the kind's `physical_reads`),
//!     never dropped — and the caller's later `read_page` finds it cached
//!     or coalesces onto it. This is how one query keeps the device queue
//!     full: a crawl announces a whole wave of records, the workers fetch
//!     them side by side, and the crawl's own reads then wait for one
//!     overlapped round trip instead of one each.
//!   * **Coherence without the shard lock** — a fetch runs outside every
//!     shard lock, so a shared-borrow write of the same page
//!     ([`ConcurrentBufferPool::install_cached`] /
//!     [`ConcurrentBufferPool::drop_cached`]) marks the in-flight request
//!     stale and bumps a write stamp: the worker does not cache bytes that
//!     may predate the write, and later reads do not coalesce onto them.
//!     Exclusive writes ([`PageWrite`]) quiesce the queue first.
//!   * **Graceful shutdown** — dropping the cache *drains every queued and
//!     in-flight read* (announced ones included) before the workers exit,
//!     so no reader ever observes a torn or abandoned request.
//!
//! There is one queue. Every request in it is a read some caller is going
//! to wait for, so nothing is ever dropped, reprioritized or accounted as
//! waste.

use crate::pool::{AtomicIoStats, CacheState};
use crate::sync_util::lock_unpoisoned;
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
    /// Number of I/O worker threads servicing the submission queue. This is
    /// the device concurrency the cache exposes; match it to the device's
    /// internal parallelism (e.g. spindle count). `0` fetches every miss on
    /// the calling thread instead.
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig { workers: 4 }
    }
}

/// Counters describing what the submission queue did — snapshot type,
/// taken with [`ConcurrentBufferPool::scheduler_stats`]. All zero on a
/// cache without I/O workers.
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
/// match on `PageOutOfRange` etc. behave identically whichever way the
/// miss was fetched).
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

/// State shared between the cache and its workers.
struct Core<S> {
    store: RwLock<S>,
    shards: Vec<Mutex<CacheState>>,
    shard_capacity: usize,
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
    /// Wakes quiesce waiters when the in-flight table empties.
    idle: Condvar,
}

impl<S: PageStore> Core<S> {
    fn shard_cache(&self, id: PageId) -> MutexGuard<'_, CacheState> {
        let index = (id.0 as usize) & (self.shards.len() - 1);
        lock_unpoisoned(&self.shards[index])
    }

    fn read_store(&self) -> RwLockReadGuard<'_, S> {
        match self.store.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write_store(&self) -> RwLockWriteGuard<'_, S> {
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

    /// The coherence half of a shared-borrow write of `id`: bumps the
    /// write stamp and marks any in-flight fetch of the page stale.
    fn mark_written(&self, id: PageId) {
        self.write_stamp.fetch_add(1, Ordering::SeqCst);
        let q = lock_unpoisoned(&self.queue);
        if let Some(req) = q.inflight.get(&id) {
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

/// The one shared, `Sync` page cache over a [`PageStore`]: 16 independent
/// LRUs (page `p` lives in shard `p mod 16`, so the densely allocated,
/// interleaved pages of one structure spread evenly) with atomic
/// statistics, owning its store and implementing [`PageRead`] and
/// [`PageWrite`].
///
/// [`ConcurrentBufferPool::new`] fetches a miss on the calling thread
/// under the page's shard lock. [`ConcurrentBufferPool::with_config`]
/// serves misses through a submission queue and I/O workers instead:
/// duplicate in-flight reads coalesce, announced pages
/// ([`PageRead::want_pages`]) are fetched side by side, [`SchedulerStats`]
/// reports queue depth, coalescing and latencies, and dropping the cache
/// drains the queue and joins the workers. One worker pool per device is
/// the intended deployment; `flat_core`'s `ShardedDb` runs one per shard.
pub struct ConcurrentBufferPool<S: PageStore> {
    core: Arc<Core<S>>,
    /// The I/O workers — empty when misses are fetched inline. Held
    /// type-erased so only the constructor that spawns them needs
    /// `S: Send + Sync + 'static`.
    workers: Vec<JoinHandle<()>>,
}

impl<S: PageStore> ConcurrentBufferPool<S> {
    /// Creates a cache over `store` holding at most `capacity` pages, with
    /// no I/O workers: every miss is fetched on the calling thread.
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
                write_stamp: AtomicU64::new(0),
                queue: Mutex::new(SubmissionQueue {
                    demand: VecDeque::new(),
                    inflight: HashMap::new(),
                    shutdown: false,
                }),
                work: Condvar::new(),
                idle: Condvar::new(),
            }),
            workers: Vec::new(),
        }
    }

    /// `true` when misses are fetched on the calling thread.
    fn inline(&self) -> bool {
        self.workers.is_empty()
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
    /// put the same bytes on the store. An inline fetch of the page runs
    /// under its shard lock, as does this install, so it cannot cache
    /// pre-write bytes over it; a queued fetch in flight is marked stale,
    /// so the worker won't cache its result and later reads won't
    /// coalesce onto it.
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
    /// free path of the MVCC batch writer. In-flight fetches of the page
    /// are marked stale, exactly as in [`Self::install_cached`].
    pub fn drop_cached(&self, id: PageId) {
        self.core.mark_written(id);
        self.core.shard_cache(id).remove(id);
    }

    /// Exclusive access to the underlying store: quiesces every in-flight
    /// read, then runs `f` under the store's write lock. This is the
    /// flush barrier the durability layer needs — a checkpoint through
    /// the cache cannot interleave with reads it is writing under. The
    /// cache is cleared afterwards in case `f` mutated pages.
    pub fn with_store_mut<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        self.quiesce();
        let result = f(&mut self.core.write_store());
        self.clear_cache();
        result
    }

    /// Shuts the workers down (draining every queued and in-flight read)
    /// and returns the store.
    pub fn into_store(self) -> S {
        let core = Arc::clone(&self.core);
        drop(self); // signals shutdown and joins every worker
        match Arc::try_unwrap(core) {
            Ok(core) => match core.store.into_inner() {
                Ok(store) => store,
                Err(poisoned) => poisoned.into_inner(),
            },
            Err(_) => panic!("cache core still shared after its workers joined"),
        }
    }

    /// Waits until nothing is in flight: blocks until the workers have
    /// retired every submitted request (at once without workers). Called
    /// with `&mut self`, so no new request can arrive concurrently.
    fn quiesce(&mut self) {
        let core = &self.core;
        let mut q = lock_unpoisoned(&core.queue);
        while !q.inflight.is_empty() {
            q = wait_unpoisoned(&core.idle, q);
        }
    }

    /// A miss through the submission queue: coalesce onto the page's
    /// in-flight fetch or submit one, then await it.
    fn read_queued(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        let core = &self.core;
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
}

impl<S: PageStore + Send + Sync + 'static> ConcurrentBufferPool<S> {
    /// Creates a cache over `store` holding at most `capacity` pages, whose
    /// misses are served by `config.workers` I/O worker threads (none:
    /// fetched inline, as by [`ConcurrentBufferPool::new`]).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_config(store: S, capacity: usize, config: SchedulerConfig) -> Self {
        let mut pool = Self::without_workers(store, capacity, config);
        pool.workers = (0..config.workers)
            .map(|i| {
                let core = Arc::clone(&pool.core);
                std::thread::Builder::new()
                    .name(format!("flat-disk-io-{i}"))
                    .spawn(move || worker_loop(&core))
                    .expect("spawn disk scheduler worker")
            })
            .collect();
        pool
    }
}

/// Signals shutdown, lets the queue drain, and joins every worker.
impl<S: PageStore> Drop for ConcurrentBufferPool<S> {
    fn drop(&mut self) {
        if self.inline() {
            return;
        }
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
        {
            let mut cache = core.shard_cache(id);
            if let Some(slot) = cache.lookup(id) {
                core.io.record_read(kind, false);
                return Ok(cache.page(slot).clone());
            }
            if self.inline() {
                // Fetch while holding the shard lock: misses serialize
                // within one shard only, and a page is fetched once even
                // when several threads miss on it together.
                core.io.record_read(kind, true);
                let mut page = Page::new();
                core.read_store().read_page(id, &mut page)?;
                let slot = cache.insert(id, page, core.shard_capacity);
                return Ok(cache.page(slot).clone());
            }
        }
        self.read_queued(id, kind)
    }

    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        if self.inline() {
            return; // nobody would serve the queue
        }
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

/// Exclusive writes: the `&mut` borrow excludes every reader, and the
/// submission queue is quiesced first (draining every submitted fetch), so
/// a stale in-flight read can never re-insert pre-write bytes into the
/// cache after the write lands. Writes refresh (and frees drop) any cached
/// copy so later reads observe the new bytes.
impl<S: PageStore> PageWrite for ConcurrentBufferPool<S> {
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

    /// The worker counts every test of the shared contract runs at: the
    /// inline miss path, one worker, and the default pool.
    const WORKERS: [usize; 3] = [0, 1, 4];

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
            let queued = if workers == 0 { 0 } else { 3 };
            let lanes = pool.scheduler_stats();
            assert_eq!(lanes.demand_submitted, queued, "workers {workers}");
            assert_eq!(lanes.demand_completed, queued, "workers {workers}");
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
            let stats = shared.stats();
            assert_eq!(stats.total_logical_reads(), 32);
            let physical = stats.total_physical_reads();
            if workers == 0 {
                // The cache holds ≥ 8 pages and a miss is fetched under its
                // shard lock, so each page misses exactly once.
                assert_eq!(physical, 8);
            } else {
                // A read that missed the cache just before a fetch of the
                // same page landed and retired submits a second one; every
                // physical read is still a queued, completed fetch.
                let lanes = shared.scheduler_stats();
                assert!(physical >= 8, "workers {workers}");
                assert_eq!(lanes.demand_submitted, physical, "workers {workers}");
                assert_eq!(lanes.demand_completed, physical, "workers {workers}");
            }
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
        // Nobody serves a zero-worker cache's queue: an announcement that
        // entered it would hang the read that follows. It must be a no-op
        // — the read costs exactly what it costs unannounced.
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
            assert_eq!(pool.scheduler_stats(), SchedulerStats::default());
        }
    }

    #[test]
    fn concurrent_duplicate_reads_coalesce_to_one_fetch() {
        let latency = Duration::from_millis(20);
        let store = ThrottledStore::new(store_with_pages(2), latency);
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
        let store = ThrottledStore::new(store_with_pages(N), latency);
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
        let store = ThrottledStore::new(store_with_pages(4), latency);
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
        // The stale / write-stamp protection must cover requests nobody
        // waits on: the store still holds the old bytes here, so any leak
        // of the announced fetch's result into the cache shows.
        let latency = Duration::from_millis(10);
        let store = ThrottledStore::new(store_with_pages(4), latency);
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
    fn announced_fetches_never_hang_drop_or_store_mut() {
        let latency = Duration::from_millis(5);
        let store = ThrottledStore::new(store_with_pages(16), latency);
        let mut sched = with_workers(store, 16, 1);
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
        let sched = queued(store, 16);
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
        let mut sched = with_workers(store, 16, 1);
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
