//! LRU buffer pool with per-kind I/O accounting.

use crate::{Page, PageId, PageKind, PageRead, PageStore, PageWrite, StorageError, PAGE_SIZE};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Read/write counters for one [`PageKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Reads requested by the index code (cache hits + misses).
    pub logical_reads: u64,
    /// Reads that actually went to the store (cache misses). This is the
    /// paper's "page reads" metric.
    ///
    /// Counted when the fetch is **submitted**, not when it lands: on a
    /// [`crate::ConcurrentBufferPool`] with I/O workers a page announced
    /// through [`crate::PageRead::want_pages`] is a physical read from the
    /// moment it is queued, one step before the `read_page` that makes it
    /// a logical read. So `physical_reads <= logical_reads` holds once the
    /// caller has read what it announced (at quiesce), but not at every
    /// instant in between, nor after a query that failed mid-wave and
    /// never came back for its announced pages.
    pub physical_reads: u64,
    /// Pages written through to the store.
    pub writes: u64,
}

impl KindStats {
    fn add(&mut self, other: &KindStats) {
        self.logical_reads += other.logical_reads;
        self.physical_reads += other.physical_reads;
        self.writes += other.writes;
    }

    fn sub(&mut self, other: &KindStats) {
        self.logical_reads -= other.logical_reads;
        self.physical_reads -= other.physical_reads;
        self.writes -= other.writes;
    }
}

/// I/O statistics broken down by [`PageKind`].
///
/// The paper's evaluation reports *physical page reads* (caches are cleared
/// before each query, §VII-A) and classifies them by structure for the
/// breakdown figures (Fig 14/18). `IoStats` supports snapshot/diff so a
/// harness can attribute I/O to individual queries.
///
/// This is a plain value type — a snapshot. The live counters inside the
/// pools are atomic, so snapshots can be taken from `&self` at any time,
/// including while other threads are reading pages. A snapshot taken
/// mid-query may show a kind's physical reads running ahead of its logical
/// reads (see [`KindStats::physical_reads`]): fetches are counted at
/// submission, and an announced fetch is submitted before it is read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoStats {
    kinds: [KindStats; 6],
}

impl IoStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> IoStats {
        IoStats::default()
    }

    /// Counters for one page kind.
    #[inline]
    pub fn kind(&self, kind: PageKind) -> &KindStats {
        &self.kinds[kind.index()]
    }

    /// Physical reads summed over all kinds — the paper's headline metric.
    pub fn total_physical_reads(&self) -> u64 {
        self.kinds.iter().map(|k| k.physical_reads).sum()
    }

    /// Logical reads summed over all kinds.
    pub fn total_logical_reads(&self) -> u64 {
        self.kinds.iter().map(|k| k.logical_reads).sum()
    }

    /// Writes summed over all kinds.
    pub fn total_writes(&self) -> u64 {
        self.kinds.iter().map(|k| k.writes).sum()
    }

    /// Bytes fetched from the store (`physical reads × 4096`).
    pub fn physical_bytes_read(&self) -> u64 {
        self.total_physical_reads() * PAGE_SIZE as u64
    }

    /// Bytes fetched from the store for one kind.
    pub fn physical_bytes_read_of(&self, kind: PageKind) -> u64 {
        self.kind(kind).physical_reads * PAGE_SIZE as u64
    }

    /// Cache hit rate over all kinds, in `[0, 1]` (`0.0` when no reads
    /// happened, and while announced fetches outnumber the reads so far).
    pub fn hit_rate(&self) -> f64 {
        let logical = self.total_logical_reads();
        if logical == 0 {
            0.0
        } else {
            (1.0 - self.total_physical_reads() as f64 / logical as f64).clamp(0.0, 1.0)
        }
    }

    /// Component-wise `self - earlier`; `earlier` must be a snapshot taken
    /// from the same counter stream (panics on underflow in debug builds).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        let mut out = self.clone();
        for (o, e) in out.kinds.iter_mut().zip(earlier.kinds.iter()) {
            o.sub(e);
        }
        out
    }

    /// Component-wise accumulation.
    pub fn accumulate(&mut self, other: &IoStats) {
        for (s, o) in self.kinds.iter_mut().zip(other.kinds.iter()) {
            s.add(o);
        }
    }
}

/// Live, thread-safe I/O counters.
///
/// The pools record every access here with relaxed atomics — counting from
/// `&self` is what lets [`BufferPool::stats`] and the whole query path work
/// without `&mut`. Snapshots come out as plain [`IoStats`] values.
#[derive(Debug, Default)]
pub(crate) struct AtomicIoStats {
    kinds: [AtomicKindStats; 6],
}

#[derive(Debug, Default)]
struct AtomicKindStats {
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    writes: AtomicU64,
}

impl AtomicIoStats {
    pub(crate) fn record_read(&self, kind: PageKind, miss: bool) {
        let k = &self.kinds[kind.index()];
        k.logical_reads.fetch_add(1, Ordering::Relaxed);
        if miss {
            k.physical_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A demand fetch submitted ahead of its logical read (an announced
    /// page); the read itself is recorded as a non-miss when it arrives.
    pub(crate) fn record_physical_read(&self, kind: PageKind) {
        self.kinds[kind.index()]
            .physical_reads
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self, kind: PageKind) {
        self.kinds[kind.index()]
            .writes
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> IoStats {
        let mut out = IoStats::new();
        for (atomic, plain) in self.kinds.iter().zip(out.kinds.iter_mut()) {
            plain.logical_reads = atomic.logical_reads.load(Ordering::Relaxed);
            plain.physical_reads = atomic.physical_reads.load(Ordering::Relaxed);
            plain.writes = atomic.writes.load(Ordering::Relaxed);
        }
        out
    }

    pub(crate) fn reset(&self) {
        for k in &self.kinds {
            k.logical_reads.store(0, Ordering::Relaxed);
            k.physical_reads.store(0, Ordering::Relaxed);
            k.writes.store(0, Ordering::Relaxed);
        }
    }
}

const NIL: usize = usize::MAX;

/// A cache slot in the LRU slab.
struct Slot {
    id: PageId,
    page: Page,
    prev: usize,
    next: usize,
}

/// The LRU bookkeeping of one cache: id → slot map plus an intrusive
/// doubly-linked recency list over a slot slab.
///
/// Shared between [`BufferPool`] (one cache behind a `RefCell`) and
/// [`crate::ConcurrentBufferPool`] (one cache per shard, each behind a
/// `Mutex`).
pub(crate) struct CacheState {
    map: HashMap<PageId, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl CacheState {
    pub(crate) fn new() -> CacheState {
        CacheState {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Looks up `id`; on a hit, marks it most recently used.
    pub(crate) fn lookup(&mut self, id: PageId) -> Option<usize> {
        let slot = *self.map.get(&id)?;
        self.touch(slot);
        Some(slot)
    }

    /// `true` if `id` is cached (no recency update — an announcement or a
    /// landing fetch must not disturb the LRU order of pages nobody read).
    pub(crate) fn contains(&self, id: PageId) -> bool {
        self.map.contains_key(&id)
    }

    pub(crate) fn page(&self, slot: usize) -> &Page {
        &self.slots[slot].page
    }

    pub(crate) fn page_mut(&mut self, slot: usize) -> &mut Page {
        &mut self.slots[slot].page
    }

    pub(crate) fn slot_of(&self, id: PageId) -> Option<usize> {
        self.map.get(&id).copied()
    }

    /// Unlinks `slot` from the LRU list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links `slot` at the head (most recently used).
    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Drops `id` from the cache if present (page freed or invalidated).
    pub(crate) fn remove(&mut self, id: PageId) {
        if let Some(slot) = self.map.remove(&id) {
            self.unlink(slot);
            self.free.push(slot);
        }
    }

    /// Moves `slot` to the head of the LRU list.
    pub(crate) fn touch(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.link_front(slot);
    }

    /// Inserts a page, evicting the LRU slot if the cache holds `capacity`
    /// pages already. Returns the slot index.
    pub(crate) fn insert(&mut self, id: PageId, page: Page, capacity: usize) -> usize {
        if self.map.len() >= capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.map.remove(&self.slots[victim].id);
            self.free.push(victim);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Slot {
                    id,
                    page,
                    prev: NIL,
                    next: NIL,
                };
                s
            }
            None => {
                self.slots.push(Slot {
                    id,
                    page,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(id, slot);
        self.link_front(slot);
        slot
    }
}

/// An LRU page cache over a [`PageStore`] that tallies I/O per [`PageKind`].
///
/// This is the **exclusive** pool: one owner, used to build indexes
/// ([`PageWrite`]) and to run single-threaded queries ([`PageRead`]). For
/// queries shared across threads, build into the shared
/// [`crate::ConcurrentBufferPool`] instead.
///
/// * Reads are served from the cache when possible; misses fetch from the
///   store, evicting the least-recently-used page when the pool is full.
/// * Writes are **write-through**: they always hit the store (and refresh
///   the cached copy if present). Index construction in this workspace is a
///   bulkload, so write buffering would not change any reported metric.
/// * [`BufferPool::clear_cache`] drops all cached pages, emulating the
///   paper's protocol of overwriting the OS cache before each query.
/// * Statistics are atomic: [`BufferPool::stats`], [`BufferPool::snapshot`],
///   [`BufferPool::reset_stats`] and [`BufferPool::clear_cache`] all take
///   `&self`, so the measurement protocol never needs mutable access.
///
/// The borrowed-read fast path ([`BufferPool::read`], `&mut self`, returns
/// `&Page` without copying) remains for build-time code; the [`PageRead`]
/// implementation returns owned copies from `&self`.
pub struct BufferPool<S: PageStore> {
    store: S,
    capacity: usize,
    cache: RefCell<CacheState>,
    stats: AtomicIoStats,
}

impl<S: PageStore> BufferPool<S> {
    /// Creates a pool over `store` caching at most `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a pool that cannot hold the page it
    /// just fetched would return dangling data.
    pub fn new(store: S, capacity: usize) -> BufferPool<S> {
        assert!(
            capacity > 0,
            "buffer pool capacity must be at least one page"
        );
        BufferPool {
            store,
            capacity,
            cache: RefCell::new(CacheState::new()),
            stats: AtomicIoStats::default(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the underlying store (bypasses the cache; callers
    /// must [`BufferPool::clear_cache`] if they mutate pages directly).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the pool, returning the store.
    pub fn into_store(self) -> S {
        self.store
    }

    /// Maximum number of cached pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Snapshot of the current I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Snapshots the statistics (for later [`IoStats::since`] diffs).
    pub fn snapshot(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Zeroes the statistics.
    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    /// Drops every cached page — the "clear the OS cache" step the paper
    /// performs before each benchmark query. Statistics are unaffected.
    pub fn clear_cache(&self) {
        self.cache.borrow_mut().clear();
    }

    /// Allocates a fresh page in the store.
    pub fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.store.alloc()
    }

    /// Writes a page through to the store, refreshing any cached copy.
    pub fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError> {
        self.store.write_page(id, page)?;
        self.stats.record_write(kind);
        let cache = self.cache.get_mut();
        if let Some(slot) = cache.slot_of(id) {
            *cache.page_mut(slot) = page.clone();
            cache.touch(slot);
        }
        Ok(())
    }

    /// Returns a page to the store's free list, dropping any cached copy.
    pub fn free(&mut self, id: PageId) -> Result<(), StorageError> {
        self.store.free_page(id)?;
        self.cache.get_mut().remove(id);
        Ok(())
    }

    /// Reads a page without copying it, counting it against `kind`. The
    /// returned reference is valid until the next call that mutates the
    /// pool. This is the build-time fast path; shared readers use
    /// [`PageRead::read_page`].
    pub fn read(&mut self, id: PageId, kind: PageKind) -> Result<&Page, StorageError> {
        let cache = self.cache.get_mut();
        if let Some(slot) = cache.lookup(id) {
            self.stats.record_read(kind, false);
            return Ok(cache.page(slot));
        }
        // Miss: fetch from the store.
        self.stats.record_read(kind, true);
        let mut page = Page::new();
        self.store.read_page(id, &mut page)?;
        let slot = cache.insert(id, page, self.capacity);
        Ok(cache.page(slot))
    }
}

impl<S: PageStore> PageRead for BufferPool<S> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        let mut cache = self.cache.borrow_mut();
        if let Some(slot) = cache.lookup(id) {
            self.stats.record_read(kind, false);
            return Ok(cache.page(slot).clone());
        }
        self.stats.record_read(kind, true);
        let mut page = Page::new();
        self.store.read_page(id, &mut page)?;
        let slot = cache.insert(id, page, self.capacity);
        Ok(cache.page(slot).clone())
    }
}

impl<S: PageStore> PageWrite for BufferPool<S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        BufferPool::alloc(self)
    }

    fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError> {
        BufferPool::write(self, id, page, kind)
    }

    fn free(&mut self, id: PageId) -> Result<(), StorageError> {
        BufferPool::free(self, id)
    }
}

impl<S: PageStore> std::fmt::Debug for BufferPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("cached", &self.cached_pages())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    fn pool_with_pages(n: usize, capacity: usize) -> BufferPool<MemStore> {
        let mut store = MemStore::new();
        for i in 0..n {
            let id = store.alloc().unwrap();
            let mut page = Page::new();
            page.put_u64(0, i as u64);
            store.write_page(id, &page).unwrap();
        }
        BufferPool::new(store, capacity)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut pool = pool_with_pages(4, 8);
        pool.read(PageId(0), PageKind::ObjectPage).unwrap();
        pool.read(PageId(0), PageKind::ObjectPage).unwrap();
        pool.read(PageId(1), PageKind::RTreeLeaf).unwrap();
        let s = pool.stats();
        assert_eq!(s.kind(PageKind::ObjectPage).logical_reads, 2);
        assert_eq!(s.kind(PageKind::ObjectPage).physical_reads, 1);
        assert_eq!(s.kind(PageKind::RTreeLeaf).physical_reads, 1);
        assert_eq!(s.total_physical_reads(), 2);
        assert_eq!(s.total_logical_reads(), 3);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn shared_reads_count_like_exclusive_reads() {
        let pool = pool_with_pages(4, 8);
        // Through the PageRead trait: same accounting, no &mut needed.
        let page = pool.read_page(PageId(2), PageKind::ObjectPage).unwrap();
        assert_eq!(page.get_u64(0), 2);
        let page = pool.read_page(PageId(2), PageKind::ObjectPage).unwrap();
        assert_eq!(page.get_u64(0), 2);
        let s = pool.stats();
        assert_eq!(s.kind(PageKind::ObjectPage).logical_reads, 2);
        assert_eq!(s.kind(PageKind::ObjectPage).physical_reads, 1);
    }

    #[test]
    fn read_returns_correct_contents() {
        let mut pool = pool_with_pages(4, 2);
        for i in [3u64, 0, 2, 1, 3] {
            let page = pool.read(PageId(i), PageKind::Other).unwrap();
            assert_eq!(page.get_u64(0), i);
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut pool = pool_with_pages(3, 2);
        pool.read(PageId(0), PageKind::Other).unwrap(); // miss {0}
        pool.read(PageId(1), PageKind::Other).unwrap(); // miss {0,1}
        pool.read(PageId(0), PageKind::Other).unwrap(); // hit, 0 is MRU
        pool.read(PageId(2), PageKind::Other).unwrap(); // miss, evicts 1
        pool.read(PageId(0), PageKind::Other).unwrap(); // hit
        pool.read(PageId(1), PageKind::Other).unwrap(); // miss again
        assert_eq!(pool.stats().total_physical_reads(), 4);
        assert_eq!(pool.stats().total_logical_reads(), 6);
    }

    #[test]
    fn capacity_is_respected() {
        let mut pool = pool_with_pages(10, 3);
        for i in 0..10 {
            pool.read(PageId(i), PageKind::Other).unwrap();
        }
        assert_eq!(pool.cached_pages(), 3);
    }

    #[test]
    fn clear_cache_forces_physical_reads() {
        let mut pool = pool_with_pages(2, 8);
        pool.read(PageId(0), PageKind::Other).unwrap();
        pool.clear_cache();
        pool.read(PageId(0), PageKind::Other).unwrap();
        assert_eq!(pool.stats().total_physical_reads(), 2);
        assert_eq!(pool.cached_pages(), 1);
    }

    #[test]
    fn write_through_refreshes_cache() {
        let mut pool = pool_with_pages(1, 4);
        pool.read(PageId(0), PageKind::Other).unwrap();
        let mut page = Page::new();
        page.put_u64(0, 999);
        pool.write(PageId(0), &page, PageKind::Other).unwrap();
        // Cached copy must reflect the write without a new physical read.
        let before = pool.stats().total_physical_reads();
        let read = pool.read(PageId(0), PageKind::Other).unwrap();
        assert_eq!(read.get_u64(0), 999);
        assert_eq!(pool.stats().total_physical_reads(), before);
        assert_eq!(pool.stats().total_writes(), 1);
    }

    #[test]
    fn snapshot_since_isolates_one_query() {
        let mut pool = pool_with_pages(4, 8);
        pool.read(PageId(0), PageKind::SeedLeaf).unwrap();
        let snap = pool.snapshot();
        pool.read(PageId(1), PageKind::ObjectPage).unwrap();
        pool.read(PageId(2), PageKind::ObjectPage).unwrap();
        let delta = pool.stats().since(&snap);
        assert_eq!(delta.kind(PageKind::ObjectPage).physical_reads, 2);
        assert_eq!(delta.kind(PageKind::SeedLeaf).physical_reads, 0);
        assert_eq!(delta.total_physical_reads(), 2);
    }

    #[test]
    fn accumulate_sums_streams() {
        let mut a = IoStats::new();
        let mut pool = pool_with_pages(2, 4);
        pool.read(PageId(0), PageKind::SeedInner).unwrap();
        a.accumulate(&pool.stats());
        a.accumulate(&pool.stats());
        assert_eq!(a.kind(PageKind::SeedInner).physical_reads, 2);
    }

    #[test]
    fn reset_stats_works_from_shared_reference() {
        let mut pool = pool_with_pages(2, 4);
        pool.read(PageId(0), PageKind::Other).unwrap();
        let shared: &BufferPool<MemStore> = &pool;
        shared.reset_stats();
        assert_eq!(shared.stats().total_logical_reads(), 0);
    }

    #[test]
    fn bytes_read_derives_from_page_size() {
        let mut pool = pool_with_pages(2, 4);
        pool.read(PageId(0), PageKind::ObjectPage).unwrap();
        assert_eq!(pool.stats().physical_bytes_read(), PAGE_SIZE as u64);
        assert_eq!(
            pool.stats().physical_bytes_read_of(PageKind::ObjectPage),
            PAGE_SIZE as u64
        );
        assert_eq!(pool.stats().physical_bytes_read_of(PageKind::SeedLeaf), 0);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_rejected() {
        let _ = BufferPool::new(MemStore::new(), 0);
    }

    #[test]
    fn single_slot_pool_thrashes_correctly() {
        let mut pool = pool_with_pages(2, 1);
        for _ in 0..3 {
            assert_eq!(pool.read(PageId(0), PageKind::Other).unwrap().get_u64(0), 0);
            assert_eq!(pool.read(PageId(1), PageKind::Other).unwrap().get_u64(0), 1);
        }
        // Every access alternates pages through one slot: all misses.
        assert_eq!(pool.stats().total_physical_reads(), 6);
    }

    #[test]
    fn free_drops_cached_copy_and_reaches_store() {
        let mut pool = pool_with_pages(3, 8);
        pool.read(PageId(1), PageKind::Other).unwrap(); // cached
        pool.free(PageId(1)).unwrap();
        assert_eq!(pool.store().num_free(), 1);
        // The cached copy must be gone: a read now fails at the store.
        assert!(pool.read(PageId(1), PageKind::Other).is_err());
        // Reallocation brings the id back, zeroed.
        assert_eq!(pool.alloc().unwrap(), PageId(1));
        assert_eq!(pool.read(PageId(1), PageKind::Other).unwrap().get_u64(0), 0);
    }

    #[test]
    fn alloc_through_pool_reaches_store() {
        let mut pool = BufferPool::new(MemStore::new(), 4);
        let id = pool.alloc().unwrap();
        assert_eq!(id, PageId(0));
        assert_eq!(pool.store().num_pages(), 1);
    }

    #[test]
    fn exclusive_and_shared_reads_share_one_cache() {
        let mut pool = pool_with_pages(2, 4);
        pool.read(PageId(0), PageKind::Other).unwrap(); // miss, cached
        let page = pool.read_page(PageId(0), PageKind::Other).unwrap(); // hit
        assert_eq!(page.get_u64(0), 0);
        assert_eq!(pool.stats().total_physical_reads(), 1);
        assert_eq!(pool.stats().total_logical_reads(), 2);
    }
}
