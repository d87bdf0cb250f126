//! Lock-sharded buffer pool for concurrent query streams.
//!
//! The paper's workloads (§III) are many independent range queries — the
//! natural deployment runs them from many threads against one index. The
//! exclusive [`BufferPool`] structurally forbids that (`&mut` per
//! operation), and a single global mutex around it would serialize all
//! readers. [`ConcurrentBufferPool`] shards the cache by [`PageId`] instead:
//! each shard is an independent LRU behind its own lock, statistics are
//! atomic, and the store itself is only ever accessed through `&self`
//! ([`PageStore::read_page`] is shared by design), so `N` reader threads
//! only contend when they touch pages of the same shard at the same moment.

use crate::pool::{AtomicIoStats, CacheState};
use crate::sync_util::lock_unpoisoned;
use crate::{
    BufferPool, IoStats, Page, PageId, PageKind, PageRead, PageStore, PageWrite, StorageError,
};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default number of lock shards (must be a power of two).
pub const DEFAULT_SHARDS: usize = 16;

/// A shared, `Sync` page cache over a [`PageStore`].
///
/// Reads come through the [`PageRead`] trait and take `&self`; there is no
/// write path — indexes are built in an exclusive [`BufferPool`] first and
/// the pool is then converted with [`BufferPool::into_concurrent`] (or the
/// store is handed to [`ConcurrentBufferPool::new`] directly).
///
/// The cache is split into `shards` independent LRUs; page `p` lives in
/// shard `p mod shards`. Because page ids are allocated densely and index
/// structures interleave their pages, consecutive pages of one structure
/// spread evenly across shards.
pub struct ConcurrentBufferPool<S: PageStore> {
    store: S,
    shards: Vec<Mutex<CacheState>>,
    shard_capacity: usize,
    capacity: usize,
    stats: AtomicIoStats,
}

impl<S: PageStore> ConcurrentBufferPool<S> {
    /// Creates a pool over `store` caching at most `capacity` pages total,
    /// with [`DEFAULT_SHARDS`] lock shards.
    pub fn new(store: S, capacity: usize) -> ConcurrentBufferPool<S> {
        Self::with_shards(store, capacity, DEFAULT_SHARDS)
    }

    /// Creates a pool with an explicit shard count (rounded up to a power
    /// of two, clamped to at least one).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_shards(store: S, capacity: usize, shards: usize) -> ConcurrentBufferPool<S> {
        assert!(
            capacity > 0,
            "buffer pool capacity must be at least one page"
        );
        let shards = shards.max(1).next_power_of_two();
        let shard_capacity = capacity.div_ceil(shards).max(1);
        ConcurrentBufferPool {
            store,
            shards: (0..shards).map(|_| Mutex::new(CacheState::new())).collect(),
            shard_capacity,
            capacity,
            stats: AtomicIoStats::default(),
        }
    }

    #[inline]
    fn shard(&self, id: PageId) -> MutexGuard<'_, CacheState> {
        let index = (id.0 as usize) & (self.shards.len() - 1);
        lock_unpoisoned(&self.shards[index])
    }

    /// The underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the underlying store (bypasses the cache;
    /// callers must [`ConcurrentBufferPool::clear_cache`] if they mutate
    /// pages directly).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the pool, returning the store.
    pub fn into_store(self) -> S {
        self.store
    }

    /// Converts back into an exclusive [`BufferPool`] (same capacity,
    /// statistics carried over, cache dropped).
    pub fn into_exclusive(self) -> BufferPool<S> {
        let stats = self.stats.snapshot();
        let capacity = self.capacity;
        let pool = BufferPool::new(self.store, capacity);
        pool.load_stats(&stats);
        pool
    }

    /// Number of lock shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Maximum number of cached pages (summed over shards; per-shard
    /// capacities round up, so the effective bound is `≥ capacity`).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Number of pages currently cached across all shards.
    pub fn cached_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| lock_unpoisoned(shard).len())
            .sum()
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

    /// Drops every cached page in every shard. Statistics are unaffected.
    pub fn clear_cache(&self) {
        for shard in &self.shards {
            lock_unpoisoned(shard).clear();
        }
    }

    pub(crate) fn load_stats(&self, stats: &IoStats) {
        self.stats.load_snapshot(stats);
    }

    /// Installs (or refreshes) the cached copy of `id` from a *shared*
    /// borrow — the write path of the MVCC batch writer, which has already
    /// put the same bytes on the store. Every store fetch of this pool
    /// runs under the page's shard lock, as does this install, so no
    /// reader can cache pre-write bytes over it.
    pub fn install_cached(&self, id: PageId, page: &Page, kind: PageKind) {
        self.stats.record_write(kind);
        let mut cache = self.shard(id);
        if let Some(slot) = cache.slot_of(id) {
            *cache.page_mut(slot) = page.clone();
            cache.touch(slot);
        } else {
            cache.insert(id, page.clone(), self.shard_capacity);
        }
    }

    /// Drops the cached copy of `id` (if any) from a shared borrow — the
    /// free path of the MVCC batch writer.
    pub fn drop_cached(&self, id: PageId) {
        self.shard(id).remove(id);
    }

    /// Wraps the pool in an [`Arc`]-backed cloneable handle.
    pub fn into_handle(self) -> PoolHandle<S> {
        PoolHandle(Arc::new(self))
    }
}

impl<S: PageStore> PageRead for ConcurrentBufferPool<S> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        let mut cache = self.shard(id);
        if let Some(slot) = cache.lookup(id) {
            self.stats.record_read(kind, false);
            return Ok(cache.page(slot).clone());
        }
        // Miss: fetch from the store while holding the shard lock. This
        // serializes misses *within one shard* only, and guarantees a page
        // is fetched once even when several threads miss on it together.
        self.stats.record_read(kind, true);
        let mut page = Page::new();
        self.store.read_page(id, &mut page)?;
        let slot = cache.insert(id, page, self.shard_capacity);
        Ok(cache.page(slot).clone())
    }
}

/// Exclusive writes through a shared pool: a dynamic-update layer holds the
/// pool behind an `RwLock`-style discipline — queries take shared access
/// ([`PageRead`], `&self`), update batches take `&mut self` and go through
/// this impl. The exclusive borrow is what guarantees readers see either
/// the pre-batch or the post-batch pages, never a torn mix; writes refresh
/// (and frees drop) any cached shard copy so later shared reads observe
/// the new bytes.
impl<S: PageStore> PageWrite for ConcurrentBufferPool<S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.store.alloc()
    }

    fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError> {
        self.store.write_page(id, page)?;
        self.stats.record_write(kind);
        let mut cache = self.shard(id);
        if let Some(slot) = cache.slot_of(id) {
            *cache.page_mut(slot) = page.clone();
            cache.touch(slot);
        }
        Ok(())
    }

    fn free(&mut self, id: PageId) -> Result<(), StorageError> {
        self.store.free_page(id)?;
        self.shard(id).remove(id);
        Ok(())
    }
}

impl<S: PageStore> std::fmt::Debug for ConcurrentBufferPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentBufferPool")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("cached", &self.cached_pages())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

/// A cloneable, `Arc`-backed handle to a [`ConcurrentBufferPool`].
///
/// Each query thread clones the handle; the pool is dropped when the last
/// handle goes away. The handle implements [`PageRead`] by delegation, so
/// it plugs directly into every query entry point.
pub struct PoolHandle<S: PageStore>(Arc<ConcurrentBufferPool<S>>);

impl<S: PageStore> PoolHandle<S> {
    /// Wraps a pool.
    pub fn new(pool: ConcurrentBufferPool<S>) -> PoolHandle<S> {
        PoolHandle(Arc::new(pool))
    }

    /// Recovers the pool if this is the last handle.
    pub fn try_unwrap(self) -> Result<ConcurrentBufferPool<S>, PoolHandle<S>> {
        Arc::try_unwrap(self.0).map_err(PoolHandle)
    }
}

impl<S: PageStore> Clone for PoolHandle<S> {
    fn clone(&self) -> Self {
        PoolHandle(Arc::clone(&self.0))
    }
}

impl<S: PageStore> std::ops::Deref for PoolHandle<S> {
    type Target = ConcurrentBufferPool<S>;

    fn deref(&self) -> &ConcurrentBufferPool<S> {
        &self.0
    }
}

impl<S: PageStore> PageRead for PoolHandle<S> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        self.0.read_page(id, kind)
    }
}

impl<S: PageStore> std::fmt::Debug for PoolHandle<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PoolHandle({:?})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemStore, PageWrite};

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
    fn exclusive_writes_refresh_shard_caches() {
        let mut pool = ConcurrentBufferPool::new(store_with_pages(4), 16);
        // Cache page 2 via a shared read, then overwrite it exclusively.
        assert_eq!(
            pool.read_page(PageId(2), PageKind::Other)
                .unwrap()
                .get_u64(0),
            2
        );
        let mut page = Page::new();
        page.put_u64(0, 777);
        pool.write(PageId(2), &page, PageKind::Other).unwrap();
        // The next shared read must see the new bytes without a store read.
        let before = pool.stats().total_physical_reads();
        assert_eq!(
            pool.read_page(PageId(2), PageKind::Other)
                .unwrap()
                .get_u64(0),
            777
        );
        assert_eq!(pool.stats().total_physical_reads(), before);
        assert_eq!(pool.stats().total_writes(), 1);
    }

    #[test]
    fn exclusive_free_invalidates_shard_caches() {
        let mut pool = ConcurrentBufferPool::new(store_with_pages(4), 16);
        pool.read_page(PageId(1), PageKind::Other).unwrap();
        PageWrite::free(&mut pool, PageId(1)).unwrap();
        assert!(pool.read_page(PageId(1), PageKind::Other).is_err());
        assert_eq!(pool.store().free_pages(), vec![PageId(1)]);
        // alloc reuses the freed id.
        assert_eq!(PageWrite::alloc(&mut pool).unwrap(), PageId(1));
    }

    #[test]
    fn reads_return_correct_pages_and_account_io() {
        let pool = ConcurrentBufferPool::new(store_with_pages(8), 16);
        for i in [3u64, 0, 3, 7, 0] {
            let page = pool.read_page(PageId(i), PageKind::Other).unwrap();
            assert_eq!(page.get_u64(0), i);
        }
        let stats = pool.stats();
        assert_eq!(stats.total_logical_reads(), 5);
        assert_eq!(stats.total_physical_reads(), 3);
    }

    #[test]
    fn shard_capacity_bounds_cached_pages() {
        // 4 shards × 1 page each: pages 0..8 thrash their shards.
        let pool = ConcurrentBufferPool::with_shards(store_with_pages(8), 4, 4);
        for i in 0..8 {
            pool.read_page(PageId(i), PageKind::Other).unwrap();
        }
        assert!(pool.cached_pages() <= pool.capacity());
        assert_eq!(pool.num_shards(), 4);
    }

    #[test]
    fn clear_cache_forces_physical_reads() {
        let pool = ConcurrentBufferPool::new(store_with_pages(2), 8);
        pool.read_page(PageId(0), PageKind::Other).unwrap();
        pool.clear_cache();
        pool.read_page(PageId(0), PageKind::Other).unwrap();
        assert_eq!(pool.stats().total_physical_reads(), 2);
    }

    #[test]
    fn concurrent_readers_account_all_reads() {
        let mut pool = BufferPool::new(MemStore::new(), 16);
        for i in 0..8u64 {
            let id = PageWrite::alloc(&mut pool).unwrap();
            let mut page = Page::new();
            page.put_u64(0, i);
            pool.write(id, &page, PageKind::Other).unwrap();
        }
        pool.reset_stats();
        let shared = pool.into_concurrent().into_handle();

        let mut handles = Vec::new();
        for t in 0..4 {
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..8u64 {
                    let page = shared.read_page(PageId(i), PageKind::Other).unwrap();
                    assert_eq!(page.get_u64(0), i, "thread {t} read wrong page");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = shared.stats();
        assert_eq!(stats.total_logical_reads(), 32);
        // Pool holds ≥ 8 pages, so each page misses exactly once.
        assert_eq!(stats.total_physical_reads(), 8);
    }

    #[test]
    fn conversion_carries_statistics_both_ways() {
        let mut pool = BufferPool::new(store_with_pages(4), 8);
        pool.read(PageId(0), PageKind::SeedLeaf).unwrap();
        let concurrent = pool.into_concurrent();
        assert_eq!(
            concurrent.stats().kind(PageKind::SeedLeaf).physical_reads,
            1
        );
        concurrent
            .read_page(PageId(1), PageKind::ObjectPage)
            .unwrap();
        let exclusive = concurrent.into_exclusive();
        let stats = exclusive.stats();
        assert_eq!(stats.kind(PageKind::SeedLeaf).physical_reads, 1);
        assert_eq!(stats.kind(PageKind::ObjectPage).physical_reads, 1);
    }

    #[test]
    fn handle_try_unwrap_round_trips() {
        let pool = ConcurrentBufferPool::new(store_with_pages(1), 4);
        let handle = pool.into_handle();
        let second = handle.clone();
        let handle = match handle.try_unwrap() {
            Err(h) => h, // `second` still alive
            Ok(_) => panic!("unwrap must fail with two handles"),
        };
        drop(second);
        assert!(handle.try_unwrap().is_ok());
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConcurrentBufferPool<MemStore>>();
        assert_send_sync::<PoolHandle<MemStore>>();
    }
}
