//! Epoch-based MVCC page versioning: wait-free snapshot reads under a
//! live batch writer.
//!
//! The update story so far required writers to take the pool exclusively
//! (`&mut` through [`PageWrite`]), so a churn batch stalls every in-flight
//! query for its full duration. [`VersionedPool`] removes that stall with
//! a copy-on-write **undo overlay** per batch:
//!
//! * **Readers pin an epoch** ([`VersionedPool::pin`] → [`EpochPin`]) and
//!   stay wait-free: a pinned read takes no lock a writer holds for more
//!   than a page copy. The pin registry is the only coordination point,
//!   touched once at pin creation and once at drop.
//! * **Writers copy-on-write only the pages they touch**
//!   ([`VersionedPool::begin_batch`] → [`BatchWriter`]): the first write
//!   to a page this batch saves its pre-image into the pending overlay
//!   *before* the base store is updated, then writes through to the store
//!   and refreshes the shared cache. A pinned reader reads base bytes
//!   first and then overrides them from the smallest overlay tagged at or
//!   after its pin — so it observes either the untouched base page or the
//!   saved pre-image, never a torn mix, regardless of interleaving.
//! * **Publish is atomic**: [`BatchWriter::publish`] bumps the epoch, at
//!   which point the pending overlay becomes a sealed *version* serving
//!   exactly the readers pinned before the bump. Dropping a `BatchWriter`
//!   without publishing aborts: the overlay stays pending and merges into
//!   the next batch (copy-on-write keeps the *oldest* pre-image), so
//!   readers at the old epoch remain consistent even across an abort.
//! * **Reclamation is deferred**: a sealed version is freed once the last
//!   reader pinned at or before its tag departs. Page frees are deferred
//!   the same way (recorded in the overlay's free list, executed at
//!   reclamation), so [`PageStore::free_page`] reuse can never hand a
//!   pinned reader's page back out mid-crawl.
//!
//! The pool layers over the one shared cache, [`ConcurrentBufferPool`],
//! and reaches the store through the cache's own lock. The cache's
//! `install_cached`/`drop_cached` hooks let the batch writer keep it
//! coherent from a shared borrow, by one of two arguments depending on how
//! the cache serves a miss: without I/O workers the fetch runs under the
//! page's shard lock, which the install takes too; with workers it runs
//! outside every shard lock and is checked against a write stamp and the
//! request's stale flag. Either way a fetch racing a batch write can never
//! re-cache (or hand a *new* reader) pre-write bytes.
//!
//! Durability composes transparently: wrap a [`crate::DurableStore`] in
//! the pool and append the WAL record through
//! [`VersionedPool::with_store_mut`] before applying the batch — the WAL
//! commit point and the version publish are then serialized by the single
//! writer, and a crash simply discards the in-memory overlays along with
//! the store's uncommitted RAM overlay.

use crate::sync_util::lock_unpoisoned;
use crate::{
    ConcurrentBufferPool, Page, PageId, PageKind, PageRead, PageStore, PageWrite, StorageError,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard};

/// One batch's undo record: the pre-images of every page it touched, and
/// the frees it deferred. While the batch is open this is the *pending*
/// overlay (tagged with the current epoch); after publish it is a sealed
/// version serving readers pinned at or before its tag.
#[derive(Default)]
struct Overlay {
    /// Pre-images keyed by raw page id: the page's bytes as of the epoch
    /// the overlay is tagged with.
    pages: HashMap<u64, Page>,
    /// Frees deferred to reclamation (a pinned reader may still crawl
    /// into these pages).
    frees: Vec<PageId>,
}

/// The pin registry: the current epoch and a refcount per pinned epoch.
struct Registry {
    epoch: u64,
    pins: BTreeMap<u64, usize>,
}

/// Snapshot of the versioning machinery, for invariant tests and the
/// `versioned.*` rows of the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// The current epoch (number of published batches).
    pub epoch: u64,
    /// Readers currently holding an [`EpochPin`].
    pub pinned_readers: usize,
    /// Overlays currently retained (sealed versions plus a pending batch).
    pub retained_versions: usize,
    /// Cumulative pages copy-on-written across all batches.
    pub cow_pages: u64,
    /// Cumulative overlays reclaimed.
    pub reclaimed_versions: u64,
    /// Page frees currently deferred (not yet returned to the store).
    pub deferred_frees: usize,
}

/// An MVCC layer over the shared page cache: snapshot-versioned pages with
/// epoch-based reclamation. See the [module docs](self) for the protocol.
pub struct VersionedPool<S: PageStore> {
    /// Serves every read and owns the backing store.
    cache: ConcurrentBufferPool<S>,
    /// Undo overlays by epoch tag, oldest first. The entry tagged with the
    /// current epoch (if any) is the pending batch.
    overlays: RwLock<BTreeMap<u64, Overlay>>,
    /// Mirror of `overlays.len()` so readers skip the overlay lock
    /// entirely while no versions are retained (the common idle case).
    overlay_count: AtomicUsize,
    registry: Mutex<Registry>,
    /// Serializes batch writers (one open batch at a time).
    writer: Mutex<()>,
    cow_pages: AtomicU64,
    reclaimed: AtomicU64,
}

impl<S: PageStore> VersionedPool<S> {
    /// Creates a pool over `store` with a [`ConcurrentBufferPool`] cache
    /// of at most `capacity` pages and no I/O workers.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(store: S, capacity: usize) -> VersionedPool<S> {
        VersionedPool::from_cache(ConcurrentBufferPool::new(store, capacity))
    }

    /// Layers the pool over a ready cache and the store it owns (e.g. one
    /// with I/O workers, [`ConcurrentBufferPool::with_config`]).
    pub fn from_cache(cache: ConcurrentBufferPool<S>) -> VersionedPool<S> {
        VersionedPool {
            cache,
            overlays: RwLock::new(BTreeMap::new()),
            overlay_count: AtomicUsize::new(0),
            registry: Mutex::new(Registry {
                epoch: 0,
                pins: BTreeMap::new(),
            }),
            writer: Mutex::new(()),
            cow_pages: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
        }
    }

    /// The shared cache (for its statistics and cache controls).
    pub fn cache(&self) -> &ConcurrentBufferPool<S> {
        &self.cache
    }

    /// Runs `f` under the store's read lock.
    pub fn with_store<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.cache.store())
    }

    /// Shared access guard to the backing store.
    pub fn store_guard(&self) -> RwLockReadGuard<'_, S> {
        self.cache.store()
    }

    /// Runs `f` under the store's write lock, **bypassing versioning**.
    ///
    /// This is the escape hatch for store mutations that no query path
    /// ever reads — WAL appends, header updates, checkpoints. Pages that
    /// *are* on a query path must go through a [`BatchWriter`] instead;
    /// mutating them here would tear pinned readers.
    pub fn with_store_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.cache.write_store())
    }

    /// The current epoch (number of published batches).
    pub fn epoch(&self) -> u64 {
        lock_unpoisoned(&self.registry).epoch
    }

    /// Snapshot of the versioning machinery.
    pub fn version_stats(&self) -> VersionStats {
        let reg = lock_unpoisoned(&self.registry);
        let epoch = reg.epoch;
        let pinned_readers = reg.pins.values().sum();
        drop(reg);
        let overlays = read_unpoisoned(&self.overlays);
        VersionStats {
            epoch,
            pinned_readers,
            retained_versions: overlays.len(),
            cow_pages: self.cow_pages.load(Ordering::Relaxed),
            reclaimed_versions: self.reclaimed.load(Ordering::Relaxed),
            deferred_frees: overlays.values().map(|ov| ov.frees.len()).sum(),
        }
    }

    /// Pins the current epoch: every page read through the returned
    /// [`EpochPin`] observes the store as of pin time, no matter how many
    /// batches publish concurrently. Dropping the pin unpins and reclaims
    /// any versions only it was holding.
    pub fn pin(&self) -> EpochPin<'_, S> {
        let mut reg = lock_unpoisoned(&self.registry);
        let epoch = reg.epoch;
        *reg.pins.entry(epoch).or_insert(0) += 1;
        EpochPin { pool: self, epoch }
    }

    /// Opens a copy-on-write batch. Exactly one batch can be open at a
    /// time; this blocks until the previous batch publishes or aborts.
    /// Readers are *not* blocked — that is the point.
    pub fn begin_batch(&self) -> BatchWriter<'_, S> {
        let guard = lock_unpoisoned(&self.writer);
        let epoch = lock_unpoisoned(&self.registry).epoch;
        {
            let mut overlays = write_unpoisoned(&self.overlays);
            if let std::collections::btree_map::Entry::Vacant(e) = overlays.entry(epoch) {
                e.insert(Overlay::default());
                self.overlay_count.fetch_add(1, Ordering::SeqCst);
            }
            // else: an aborted batch left the pending overlay in place;
            // the new batch merges into it (copy-on-write keeps the
            // oldest pre-image, which is exactly the epoch's state).
        }
        BatchWriter {
            pool: self,
            _guard: guard,
            epoch,
            local: RefCell::new(HashMap::new()),
            fresh: HashSet::new(),
            freed: HashSet::new(),
            reusable: BTreeSet::new(),
            store_free: self
                .with_store(|s| s.free_pages())
                .into_iter()
                .map(|p| p.0)
                .collect(),
        }
    }

    /// Reclaims every retained version and executes every deferred free.
    /// The exclusive borrow proves no pin or batch is alive, so this is
    /// always safe; it is the quiesce point before operations that need
    /// the raw store (persist, checkpoint hand-off, [`Self::into_store`]).
    pub fn reclaim_all(&mut self) {
        let tags: Vec<u64> = read_unpoisoned(&self.overlays).keys().copied().collect();
        self.reclaim_tags(&tags);
    }

    /// Tears the pool down, returning the backing store. Deferred frees
    /// are executed first.
    pub fn into_store(mut self) -> S {
        self.reclaim_all();
        self.cache.into_store()
    }

    /// Pre-image lookup for a reader pinned at `epoch`: the smallest
    /// overlay tagged `>= epoch` that holds `id` has the page's bytes as
    /// of pin time.
    fn overlay_override(&self, epoch: u64, id: PageId) -> Option<Page> {
        let overlays = read_unpoisoned(&self.overlays);
        for (_, overlay) in overlays.range(epoch..) {
            if let Some(pre) = overlay.pages.get(&id.0) {
                return Some(pre.clone());
            }
        }
        None
    }

    /// Epochs whose overlays are reclaimable under `reg`: sealed (tag
    /// before the current epoch) with no reader pinned at or before the
    /// tag.
    fn reclaimable(&self, reg: &Registry) -> Vec<u64> {
        let min_pin = reg.pins.keys().next().copied();
        read_unpoisoned(&self.overlays)
            .keys()
            .copied()
            .filter(|&tag| tag < reg.epoch && min_pin.is_none_or(|p| p > tag))
            .collect()
    }

    /// Removes the given overlays and executes their deferred frees.
    /// Removal is the idempotence point: concurrent reclaimers computing
    /// overlapping tag sets are fine, only the thread that removes an
    /// overlay executes its frees.
    fn reclaim_tags(&self, tags: &[u64]) {
        for &tag in tags {
            let overlay = write_unpoisoned(&self.overlays).remove(&tag);
            let Some(overlay) = overlay else { continue };
            self.overlay_count.fetch_sub(1, Ordering::SeqCst);
            self.reclaimed.fetch_add(1, Ordering::Relaxed);
            for id in overlay.frees {
                self.cache.drop_cached(id);
                let freed = self.with_store_mut(|s| s.free_page(id));
                debug_assert!(freed.is_ok(), "deferred free of {id} failed: {freed:?}");
            }
        }
    }

    fn unpin(&self, epoch: u64) {
        let mut reg = lock_unpoisoned(&self.registry);
        if let Some(count) = reg.pins.get_mut(&epoch) {
            *count -= 1;
            if *count == 0 {
                reg.pins.remove(&epoch);
            }
        }
        let tags = self.reclaimable(&reg);
        drop(reg);
        if !tags.is_empty() {
            self.reclaim_tags(&tags);
        }
    }
}

/// The unpinned *latest* view: reads see the store's current bytes
/// through the cache. Correct whenever no batch is open (build, replay,
/// invariant checks) and for any page the open batch has not touched.
impl<S: PageStore> PageRead for VersionedPool<S> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        self.cache.read_page(id, kind)
    }

    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        self.cache.want_pages(pages)
    }
}

/// The exclusive, **non-versioned** write path: bulk builds and recovery
/// replay write through here. The `&mut` borrow proves no reader is
/// pinned, so no pre-images are saved.
impl<S: PageStore> PageWrite for VersionedPool<S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.with_store_mut(|s| s.alloc())
    }

    fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError> {
        self.with_store_mut(|s| s.write_page(id, page))?;
        self.cache.install_cached(id, page, kind);
        Ok(())
    }

    fn free(&mut self, id: PageId) -> Result<(), StorageError> {
        self.with_store_mut(|s| s.free_page(id))?;
        self.cache.drop_cached(id);
        Ok(())
    }
}

impl<S: PageStore> std::fmt::Debug for VersionedPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedPool")
            .field("stats", &self.version_stats())
            .finish()
    }
}

/// A wait-free snapshot view: every read observes the store as of the
/// epoch pinned at creation. Cloning re-pins the same epoch; dropping
/// unpins (and reclaims versions nobody else holds).
pub struct EpochPin<'a, S: PageStore> {
    pool: &'a VersionedPool<S>,
    epoch: u64,
}

impl<S: PageStore> EpochPin<'_, S> {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<S: PageStore> Clone for EpochPin<'_, S> {
    fn clone(&self) -> Self {
        let mut reg = lock_unpoisoned(&self.pool.registry);
        *reg.pins.entry(self.epoch).or_insert(0) += 1;
        EpochPin {
            pool: self.pool,
            epoch: self.epoch,
        }
    }
}

impl<S: PageStore> Drop for EpochPin<'_, S> {
    fn drop(&mut self) {
        self.pool.unpin(self.epoch);
    }
}

impl<S: PageStore> PageRead for EpochPin<'_, S> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        let pool = self.pool;
        // A pre-image in an overlay tagged at/after our pin holds the
        // bytes as of pin time. A page present only in *older* overlays
        // changed before our pin, so the current bytes are the right
        // answer — and the shared cache is ground truth for those: inline
        // misses fetch under the cache's shard lock, and queued fetches
        // are write-stamp-validated against the batch writer's installs,
        // so the cache never retains pre-write bytes past an install.
        if pool.overlay_count.load(Ordering::SeqCst) > 0 {
            if let Some(pre) = pool.overlay_override(self.epoch, id) {
                return Ok(pre);
            }
        }
        let page = pool.cache.read_page(id, kind)?;
        // Re-check: a batch beginning mid-read saves its pre-images
        // *before* writing the base, so if our cache read saw post-write
        // bytes the override below finds the pre-image.
        if pool.overlay_count.load(Ordering::SeqCst) > 0 {
            if let Some(pre) = pool.overlay_override(self.epoch, id) {
                return Ok(pre);
            }
        }
        Ok(page)
    }

    /// Forwarded straight to the cache, with no per-page overlay lookup:
    /// an announced page whose pre-image answers this pin costs at worst
    /// one spare fetch, whereas filtering every announcement through the
    /// overlays taxes every wave of every pinned query.
    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        self.pool.cache.want_pages(pages)
    }
}

impl<S: PageStore> std::fmt::Debug for EpochPin<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EpochPin(epoch={})", self.epoch)
    }
}

/// A copy-on-write batch over a [`VersionedPool`]. Implements
/// [`PageRead`]/[`PageWrite`], so the delta layer's
/// `insert_batch`/`delete_batch`/`compact` run over it unchanged.
///
/// Writes save pre-images into the pending overlay (first touch only),
/// write through to the store and refresh the shared cache; reads are
/// read-your-writes (a private page table backs reads of pages this
/// batch wrote).
///
/// Frees mirror the plain store's lowest-id-first free-list discipline
/// *within* the batch: a freed page joins a batch-local reuse set, and
/// `alloc` serves the smallest id across that set and the store's own
/// free list — so free-then-realloc patterns (compaction) lay pages out
/// exactly as a non-versioned session would. Reusing a pre-existing
/// page is safe because its first overwrite saves a pre-image like any
/// other write. Pages still in the reuse set when the batch publishes
/// are then freed for real: immediately if the batch allocated them (no
/// reader can reach them), deferred to reclamation otherwise (a pinned
/// reader may still crawl into them).
///
/// Dropping the writer without calling [`BatchWriter::publish`] aborts
/// the batch: readers pinned at the current epoch stay consistent (the
/// overlay keeps serving pre-images), but the latest view is undefined
/// until the next successful batch — callers are expected to poison
/// their session, as `FlatDb` does. An aborted batch's unexecuted frees
/// are dropped (the pages leak, which is safe — never wrong bytes).
pub struct BatchWriter<'a, S: PageStore> {
    pool: &'a VersionedPool<S>,
    _guard: MutexGuard<'a, ()>,
    /// Tag of the pending overlay (the epoch this batch branches from).
    epoch: u64,
    /// Read-your-writes table: pages written this batch.
    local: RefCell<HashMap<u64, Page>>,
    /// Pages allocated this batch (no pre-image needed on write).
    fresh: HashSet<u64>,
    /// Pages currently freed (fence for use-after-free; realloc unfrees).
    freed: HashSet<u64>,
    /// Freed pages available for in-batch reuse (smallest id first).
    reusable: BTreeSet<u64>,
    /// Snapshot of the store's free list at batch start, maintained as
    /// the batch allocates: lets `alloc` pick the global minimum across
    /// in-batch frees and pre-batch free pages without peeking at the
    /// store each time. Concurrent reclamation can add store frees this
    /// mirror misses — that only perturbs layout, never correctness.
    store_free: BTreeSet<u64>,
}

impl<S: PageStore> BatchWriter<'_, S> {
    /// The epoch this batch branches from (readers pinned at or before it
    /// see none of the batch's effects).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Commits the batch: bumps the epoch — sealing the pending overlay
    /// as the just-departed epoch's version — and reclaims every version
    /// no reader holds. Returns the new epoch.
    ///
    /// The caller is responsible for making the epoch bump atomic with
    /// its own resident-state swap (e.g. publish under the write side of
    /// the lock readers pin under).
    pub fn publish(self) -> u64 {
        let pool = self.pool;
        // Frees still outstanding in the reuse set become real now:
        // batch-allocated pages free immediately (no reader ever saw
        // them), pre-existing pages defer to reclamation through the
        // pending overlay (a pinned reader may still crawl into them).
        let mut deferred: Vec<PageId> = Vec::new();
        for &raw in &self.reusable {
            let id = PageId(raw);
            if self.fresh.contains(&raw) {
                let result = pool.with_store_mut(|s| s.free_page(id));
                debug_assert!(result.is_ok(), "freeing batch page {id} failed: {result:?}");
            } else {
                deferred.push(id);
            }
        }
        if !deferred.is_empty() {
            let mut overlays = write_unpoisoned(&pool.overlays);
            overlays
                .get_mut(&self.epoch)
                .expect("pending overlay exists while the batch is open")
                .frees
                .extend(deferred);
        }
        let mut reg = lock_unpoisoned(&pool.registry);
        reg.epoch += 1;
        let epoch = reg.epoch;
        let tags = pool.reclaimable(&reg);
        drop(reg);
        pool.reclaim_tags(&tags);
        epoch
    }

    fn ensure_preimage(&self, id: PageId, kind: PageKind) -> Result<(), StorageError> {
        let pool = self.pool;
        {
            let overlays = read_unpoisoned(&pool.overlays);
            if overlays
                .get(&self.epoch)
                .is_some_and(|ov| ov.pages.contains_key(&id.0))
            {
                return Ok(());
            }
        }
        // First touch: capture the pre-image through the cache (hot pages
        // skip the device) *before* the base write below lands. A reader
        // that observes post-write base bytes therefore always finds this
        // pre-image in the overlay.
        let pre = pool.cache.read_page(id, kind)?;
        let mut overlays = write_unpoisoned(&pool.overlays);
        let overlay = overlays
            .get_mut(&self.epoch)
            .expect("pending overlay exists while the batch is open");
        overlay.pages.insert(id.0, pre);
        pool.cow_pages.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl<S: PageStore> PageRead for BatchWriter<'_, S> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        if self.freed.contains(&id.0) {
            return Err(StorageError::Corrupt(format!(
                "batch read of {id} after freeing it"
            )));
        }
        if let Some(page) = self.local.borrow().get(&id.0) {
            return Ok(page.clone());
        }
        // Not written this batch: the shared cache holds (or fetches) the
        // current bytes. In-flight fetches the batch staled are refused by
        // the cache layer, so this cannot observe its own torn write.
        self.pool.cache.read_page(id, kind)
    }
}

impl<S: PageStore> PageWrite for BatchWriter<'_, S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        // Serve the smallest free id across the batch's own frees and
        // the store's free list — the same lowest-id-first order a plain
        // store serves, so versioned and non-versioned sessions allocate
        // identical layouts. A reused pre-existing page stays non-fresh:
        // its first overwrite saves a pre-image for readers pinned
        // before the free.
        if let Some(&raw) = self.reusable.first() {
            if self.store_free.first().is_none_or(|&s| raw < s) {
                self.reusable.remove(&raw);
                self.freed.remove(&raw);
                return Ok(PageId(raw));
            }
        }
        let id = self.pool.with_store_mut(|s| s.alloc())?;
        self.store_free.remove(&id.0);
        self.fresh.insert(id.0);
        Ok(id)
    }

    fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError> {
        if self.freed.contains(&id.0) {
            return Err(StorageError::Corrupt(format!(
                "batch write to {id} after freeing it"
            )));
        }
        if !self.fresh.contains(&id.0) {
            self.ensure_preimage(id, kind)?;
        }
        self.pool.with_store_mut(|s| s.write_page(id, page))?;
        self.pool.cache.install_cached(id, page, kind);
        self.local.borrow_mut().insert(id.0, page.clone());
        Ok(())
    }

    fn free(&mut self, id: PageId) -> Result<(), StorageError> {
        if !self.freed.insert(id.0) {
            return Err(StorageError::Corrupt(format!("batch double free of {id}")));
        }
        self.local.borrow_mut().remove(&id.0);
        // Not freed for real yet: the page joins the batch's reuse set.
        // A pinned reader may still crawl into it, and the store's bytes
        // are its version (any batch write is covered by the saved
        // pre-image) — the real free happens at publish, or never if a
        // later alloc reuses the page.
        self.reusable.insert(id.0);
        self.pool.cache.drop_cached(id);
        Ok(())
    }
}

impl<S: PageStore> std::fmt::Debug for BatchWriter<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchWriter")
            .field("epoch", &self.epoch)
            .field("written", &self.local.borrow().len())
            .field("fresh", &self.fresh.len())
            .field("freed", &self.freed.len())
            .finish()
    }
}

fn read_unpoisoned<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match lock.read() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write_unpoisoned<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    match lock.write() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemStore, SchedulerConfig, ThrottledStore};
    use std::time::Duration;

    fn pool_with_pages(n: u64) -> VersionedPool<MemStore> {
        let mut store = MemStore::new();
        for i in 0..n {
            let id = store.alloc().unwrap();
            let mut page = Page::new();
            page.put_u64(0, i);
            store.write_page(id, &page).unwrap();
        }
        VersionedPool::new(store, 64)
    }

    fn stamped(value: u64) -> Page {
        let mut page = Page::new();
        page.put_u64(0, value);
        page
    }

    #[test]
    fn pinned_reader_sees_pre_batch_bytes_throughout() {
        let pool = pool_with_pages(4);
        let pin = pool.pin();
        let mut batch = pool.begin_batch();
        batch
            .write(PageId(1), &stamped(111), PageKind::Other)
            .unwrap();
        // Mid-batch: pinned reader sees the old bytes, latest view the new.
        assert_eq!(
            pin.read_page(PageId(1), PageKind::Other)
                .unwrap()
                .get_u64(0),
            1
        );
        assert_eq!(
            pool.read_page(PageId(1), PageKind::Other)
                .unwrap()
                .get_u64(0),
            111
        );
        batch.publish();
        // Post-publish: the pin still sees its epoch.
        assert_eq!(
            pin.read_page(PageId(1), PageKind::Other)
                .unwrap()
                .get_u64(0),
            1
        );
        // A fresh pin sees the new bytes.
        let new_pin = pool.pin();
        assert_eq!(
            new_pin
                .read_page(PageId(1), PageKind::Other)
                .unwrap()
                .get_u64(0),
            111
        );
        drop(pin);
        // The old version is reclaimed once its last reader departs.
        assert_eq!(pool.version_stats().retained_versions, 0);
        assert_eq!(pool.version_stats().reclaimed_versions, 1);
    }

    #[test]
    fn versions_stack_across_multiple_batches() {
        let pool = pool_with_pages(2);
        let pin0 = pool.pin();
        for round in 0..3u64 {
            let mut batch = pool.begin_batch();
            batch
                .write(PageId(0), &stamped(100 + round), PageKind::Other)
                .unwrap();
            batch.publish();
        }
        let pin3 = pool.pin();
        // pin0 predates every batch: smallest overlay ≥ 0 has its bytes.
        assert_eq!(
            pin0.read_page(PageId(0), PageKind::Other)
                .unwrap()
                .get_u64(0),
            0
        );
        assert_eq!(
            pin3.read_page(PageId(0), PageKind::Other)
                .unwrap()
                .get_u64(0),
            102
        );
        assert_eq!(pool.version_stats().retained_versions, 3);
        drop(pin0);
        // Only pin3 remains (epoch 3): every sealed version reclaims.
        assert_eq!(pool.version_stats().retained_versions, 0);
        drop(pin3);
    }

    #[test]
    fn deferred_frees_execute_only_after_last_pin_departs() {
        let pool = pool_with_pages(4);
        let pin = pool.pin();
        let mut batch = pool.begin_batch();
        PageWrite::free(&mut batch, PageId(2)).unwrap();
        batch.publish();
        // Pinned reader can still read the freed page (free is deferred).
        assert_eq!(
            pin.read_page(PageId(2), PageKind::Other)
                .unwrap()
                .get_u64(0),
            2
        );
        assert!(pool.with_store(|s| s.free_pages().is_empty()));
        drop(pin);
        assert_eq!(pool.with_store(|s| s.free_pages()), vec![PageId(2)]);
        assert_eq!(pool.version_stats().deferred_frees, 0);
    }

    #[test]
    fn aborted_batches_merge_overlays_and_leak_frees_safely() {
        let pool = pool_with_pages(2);
        let pin = pool.pin();
        {
            let mut batch = pool.begin_batch();
            let id = batch.alloc().unwrap();
            batch.write(id, &stamped(7), PageKind::Other).unwrap();
            PageWrite::free(&mut batch, id).unwrap();
            batch
                .write(PageId(0), &stamped(50), PageKind::Other)
                .unwrap();
            // Abort (drop without publish).
        }
        // The pinned reader still sees the pre-abort bytes.
        assert_eq!(
            pin.read_page(PageId(0), PageKind::Other)
                .unwrap()
                .get_u64(0),
            0
        );
        // A new batch merges into the pending overlay and keeps the
        // oldest pre-image.
        let mut batch = pool.begin_batch();
        batch
            .write(PageId(0), &stamped(60), PageKind::Other)
            .unwrap();
        batch.publish();
        assert_eq!(
            pin.read_page(PageId(0), PageKind::Other)
                .unwrap()
                .get_u64(0),
            0
        );
        drop(pin);
        assert_eq!(
            pool.read_page(PageId(0), PageKind::Other)
                .unwrap()
                .get_u64(0),
            60
        );
    }

    #[test]
    fn batch_reuses_in_batch_frees_like_a_plain_store() {
        // Free-then-realloc inside one batch must lay pages out exactly
        // as a plain store session would (lowest free id first), while a
        // pinned reader keeps the pre-batch bytes of every reused page.
        let pool = pool_with_pages(3);
        let pin = pool.pin();
        let mut batch = pool.begin_batch();
        PageWrite::free(&mut batch, PageId(2)).unwrap();
        PageWrite::free(&mut batch, PageId(0)).unwrap();
        // Lowest id first, regardless of free order.
        assert_eq!(batch.alloc().unwrap(), PageId(0));
        assert_eq!(batch.alloc().unwrap(), PageId(2));
        // Exhausted the reuse set: the store extends.
        assert_eq!(batch.alloc().unwrap(), PageId(3));
        batch
            .write(PageId(0), &stamped(70), PageKind::Other)
            .unwrap();
        batch
            .write(PageId(2), &stamped(72), PageKind::Other)
            .unwrap();
        batch.publish();
        // The store never grew a free list (every free was reused) and
        // the pinned reader still sees the pre-batch bytes of the
        // overwritten, reused pages.
        assert_eq!(pool.with_store(|s| s.free_pages()).len(), 0);
        assert_eq!(pool.with_store(|s| s.num_pages()), 4);
        assert_eq!(
            pin.read_page(PageId(0), PageKind::Other)
                .unwrap()
                .get_u64(0),
            0
        );
        assert_eq!(
            pin.read_page(PageId(2), PageKind::Other)
                .unwrap()
                .get_u64(0),
            2
        );
        drop(pin);
        pool_reclaims_clean(&pool);
        assert_eq!(
            pool.read_page(PageId(0), PageKind::Other)
                .unwrap()
                .get_u64(0),
            70
        );

        // Frees left on the stack at publish become real: fresh pages
        // free immediately, pre-existing ones defer to reclamation.
        let pin = pool.pin();
        let mut batch = pool.begin_batch();
        let fresh = batch.alloc().unwrap();
        PageWrite::free(&mut batch, fresh).unwrap();
        PageWrite::free(&mut batch, PageId(1)).unwrap();
        batch.publish();
        let free_now = pool.with_store(|s| s.free_pages());
        assert!(free_now.contains(&fresh), "fresh page freed at publish");
        assert!(
            !free_now.contains(&PageId(1)),
            "pre-existing page defers while the reader is pinned"
        );
        drop(pin);
        pool_reclaims_clean(&pool);
        assert!(pool.with_store(|s| s.free_pages()).contains(&PageId(1)));
    }

    #[test]
    fn batch_is_read_your_writes_and_fences_freed_pages() {
        let pool = pool_with_pages(3);
        let mut batch = pool.begin_batch();
        batch
            .write(PageId(1), &stamped(9), PageKind::Other)
            .unwrap();
        assert_eq!(
            batch
                .read_page(PageId(1), PageKind::Other)
                .unwrap()
                .get_u64(0),
            9
        );
        assert_eq!(
            batch
                .read_page(PageId(2), PageKind::Other)
                .unwrap()
                .get_u64(0),
            2
        );
        PageWrite::free(&mut batch, PageId(2)).unwrap();
        assert!(batch.read_page(PageId(2), PageKind::Other).is_err());
        assert!(batch
            .write(PageId(2), &stamped(1), PageKind::Other)
            .is_err());
        assert!(PageWrite::free(&mut batch, PageId(2)).is_err());
        batch.publish();
        pool_reclaims_clean(&pool);
    }

    fn pool_reclaims_clean(pool: &VersionedPool<MemStore>) {
        assert_eq!(pool.version_stats().retained_versions, 0);
        assert_eq!(pool.version_stats().pinned_readers, 0);
    }

    #[test]
    fn into_store_executes_outstanding_frees() {
        let pool = pool_with_pages(4);
        let pin = pool.pin();
        let mut batch = pool.begin_batch();
        PageWrite::free(&mut batch, PageId(1)).unwrap();
        batch.publish();
        drop(pin);
        let store = pool.into_store();
        assert_eq!(store.free_pages(), vec![PageId(1)]);
    }

    #[test]
    fn pinned_readers_race_a_churn_writer_at_every_worker_count() {
        // Coherence rests on a different argument per miss path — an
        // inline fetch runs under the shard lock, a queued one is checked
        // against the write stamp and the stale flag — so the race runs
        // over both. 4 reader threads pin/read/unpin in a loop while a
        // writer publishes batches; every pinned read of a page must return
        // that page's value at some epoch ≤ the pin's — and within one
        // pin, *the* value of the pinned epoch.
        for workers in [0, 4] {
            let mut store = MemStore::new();
            let mut ids = Vec::new();
            for _ in 0..16u64 {
                let id = store.alloc().unwrap();
                store.write_page(id, &stamped(1_000)).unwrap();
                ids.push(id);
            }
            let store = ThrottledStore::with_parallelism(store, Duration::from_micros(20), 8);
            // A tiny cache forces fetch races.
            let cache = ConcurrentBufferPool::with_config(store, 8, SchedulerConfig { workers });
            let pool = VersionedPool::from_cache(cache);
            let rounds = 60u64;
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| loop {
                        let pin = pool.pin();
                        let epoch = pin.epoch();
                        let mut seen = None;
                        for &id in &ids {
                            let v = pin.read_page(id, PageKind::Other).unwrap().get_u64(0);
                            // All pages are written together per batch, so
                            // one pinned view must be uniform.
                            match seen {
                                None => seen = Some(v),
                                Some(prev) => assert_eq!(
                                    prev, v,
                                    "torn snapshot at epoch {epoch} (workers {workers})"
                                ),
                            }
                            assert!(
                                v >= 1_000 && v - 1_000 <= epoch,
                                "future read at {epoch}: {v} (workers {workers})"
                            );
                        }
                        if seen == Some(1_000 + rounds) {
                            break;
                        }
                    });
                }
                scope.spawn(|| {
                    for round in 1..=rounds {
                        let mut batch = pool.begin_batch();
                        for &id in &ids {
                            batch
                                .write(id, &stamped(1_000 + round), PageKind::Other)
                                .unwrap();
                        }
                        batch.publish();
                    }
                });
            });
            assert_eq!(pool.version_stats().epoch, rounds);

            // At rest: a pin keeps its epoch across one more batch, and a
            // fresh pin sees that batch.
            let pin = pool.pin();
            let mut batch = pool.begin_batch();
            for &id in &ids {
                batch.write(id, &stamped(99), PageKind::Other).unwrap();
            }
            batch.publish();
            let fresh = pool.pin();
            for &id in &ids {
                let old = pin.read_page(id, PageKind::Other).unwrap().get_u64(0);
                assert_eq!(old, 1_000 + rounds, "workers {workers}");
                let new = fresh.read_page(id, PageKind::Other).unwrap().get_u64(0);
                assert_eq!(new, 99, "workers {workers}");
            }
            drop(pin);
            drop(fresh);
            let _ = pool.into_store();
        }
    }
}
