//! Epoch-based MVCC over one page-version map: wait-free snapshot reads
//! under a live batch writer, and — with a write-ahead log — crash
//! durability from the same structure.
//!
//! The map is `page id → versions`. A version `(e, v)` says "from epoch
//! `e` on, the page reads `v`", where `v` is a shared [`Page`] (a
//! copy-on-write handle, so a version costs one reference) or `None` for
//! a free. The store holds the bytes in force before a page's oldest
//! version; the cache holds store bytes only.
//!
//! * **Write.** One rule. A page the map does not hold and nothing can
//!   read is written once, in place: store and cache, no version. Nothing
//!   can read it if the pool is held `&mut` without a log, or if `alloc`
//!   took it from the store (free list or end) since the later of the
//!   open batch's start and the last checkpoint. Any other write is a
//!   version at the batch's pending epoch `E = current + 1` (an exclusive
//!   write's: the current one), replacing one already at `E` or adding
//!   one, and touches neither store nor cache. A batch reads back both.
//! * **Read.** An [`EpochPin`] at `P` takes a page's newest version at or
//!   before `P`; without one it reads the cache, then looks again (a
//!   checkpoint may have saved the page's base bytes meanwhile). The batch
//!   and the unpinned [`PageRead`] take the newest version. A free reads
//!   as [`StorageError::Corrupt`]. An empty map costs one atomic load.
//! * **Write-back** takes versions to the store, then the cache
//!   (`install_cached` / `drop_cached` keep its fetches coherent). A page
//!   a reader may still read *below* its oldest version first gets the
//!   store's bytes as an epoch-0 version. Without a log a batch writes
//!   back right before its publish, so a device error fails it while
//!   still invisible. With one, the dirty versions wait for a checkpoint:
//!   a sync of the in-place writes, one [`Wal::append`] group of the
//!   dirty versions' images and the checkpoint record (the commit point),
//!   then the write-back and the log's generation switch. With nothing
//!   dirty there is no group: the switch is the commit point, and the
//!   frees follow it. A free a pinned reader can still see waits for a
//!   later checkpoint.
//! * **Reclaim**, after every publish and unpin: with `m` the oldest
//!   pinned epoch (the current one if none), each page given a version at
//!   or before `m` keeps only the newest of those, and a page down to one
//!   version that is on the store leaves the map.
//! * **Alloc** hands out the lowest id of the store's free list and the
//!   pages whose newest version is a free no pinned reader can see, or
//!   that the open batch made — so a compaction lays pages out exactly as
//!   a plain store would. A page the map holds gets a zeroed version.
//!
//! A durable pool ([`VersionedPool::create_durable`] /
//! [`VersionedPool::open_durable`]) writes in place only pages its last
//! checkpoint holds free, which recovery frees again. A crash loses the
//! map, the RAM a redo-only log expects to lose.

use crate::durable::{create_log, recover, RecoveredLog};
use crate::sync_util::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};
use crate::wal::{Wal, WalRecord};
use crate::{
    ConcurrentBufferPool, Page, PageId, PageKind, PageRead, PageStore, PageWrite, StorageError,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard};

/// One page's versions, oldest first; never empty.
struct Chain {
    versions: Vec<(u64, Option<Page>)>,
    /// Kind of the latest write, for the cache install at write-back.
    kind: PageKind,
    /// The newest version is on the store.
    clean: bool,
}

impl Chain {
    /// The newest version is a free.
    fn freed(&self) -> bool {
        matches!(self.versions.last(), Some((_, None)))
    }

    /// A free that is not on the store yet.
    fn pending_free(&self) -> bool {
        !self.clean && self.freed()
    }
}

/// A newest version on its way to the store: page id, bytes (`None`: a
/// free) and the kind of its latest write.
type Head = (u64, Option<Page>, PageKind);

/// The version map, and the allocator state that changes with it.
#[derive(Default)]
struct Versions {
    chains: HashMap<u64, Chain>,
    /// Pages given a new version, by its epoch: what reclaim visits.
    touched: BTreeMap<u64, Vec<u64>>,
    /// Ids `alloc` may hand out (see the module docs).
    free: BTreeSet<u64>,
    /// Pages `alloc` took from the store since the later of the open
    /// batch's start and the last checkpoint: no pin and no durable state
    /// can read them.
    fresh: HashSet<u64>,
}

/// The pin registry: the current epoch and a refcount per pinned epoch.
struct Registry {
    epoch: u64,
    pins: BTreeMap<u64, usize>,
}

impl Registry {
    /// The oldest epoch a reader can still ask for.
    fn oldest(&self) -> u64 {
        self.pins.keys().next().copied().unwrap_or(self.epoch)
    }
}

/// Snapshot of the versioning machinery, for invariant tests and the
/// `versioned.*` rows of the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// The current epoch (number of published batches).
    pub epoch: u64,
    /// Readers currently holding an [`EpochPin`].
    pub pinned_readers: usize,
    /// Batches whose page versions the map still holds: each one newer
    /// than the oldest pinned epoch (an open batch included), and each one
    /// not on the store yet (a durable pool's since the last checkpoint).
    pub retained_versions: usize,
    /// Cumulative versions batches created for pages they did not
    /// allocate: one per page a batch writes or frees, however often.
    pub cow_pages: u64,
    /// Cumulative superseded page versions dropped from the map.
    pub reclaimed_versions: u64,
    /// Page frees the store has not applied yet.
    pub deferred_frees: usize,
}

/// An MVCC layer over the shared page cache: one page-version map with
/// epoch-based reclamation, optionally backed by a write-ahead log. See
/// the [module docs](self) for the protocol.
pub struct VersionedPool<S: PageStore> {
    /// Serves every read of store bytes and owns the backing store.
    cache: ConcurrentBufferPool<S>,
    versions: RwLock<Versions>,
    /// Number of chains, so readers skip the map's lock while it is empty.
    live: AtomicUsize,
    registry: Mutex<Registry>,
    /// Serializes batches, log appends and checkpoints.
    writer: Mutex<()>,
    /// The write-ahead log of a durable pool.
    log: Option<Mutex<Wal>>,
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
        VersionedPool::assemble(cache, None)
    }

    /// A durable pool over the cache of an **empty** store: lays down the
    /// log and commits `snapshot` as its first checkpoint. A crash inside
    /// leaves a store [`VersionedPool::open_durable`] refuses with
    /// [`StorageError::Corrupt`]: it never reached a durable state.
    pub fn create_durable(
        cache: ConcurrentBufferPool<S>,
        snapshot: &[u8],
    ) -> Result<VersionedPool<S>, StorageError> {
        let wal = create_log(&mut *cache.write_store())?;
        let pool = VersionedPool::assemble(cache, Some(wal));
        pool.checkpoint(snapshot)?;
        Ok(pool)
    }

    /// A durable pool over the cache of a store a previous session (or a
    /// crash) left: recovers the last committed checkpoint, redoing its
    /// write-back, and returns what the log held past it.
    pub fn open_durable(
        cache: ConcurrentBufferPool<S>,
    ) -> Result<(VersionedPool<S>, RecoveredLog), StorageError> {
        let (wal, recovered) = recover(&mut *cache.write_store())?;
        cache.clear_cache();
        Ok((VersionedPool::assemble(cache, Some(wal)), recovered))
    }

    fn assemble(cache: ConcurrentBufferPool<S>, log: Option<Wal>) -> VersionedPool<S> {
        let free = cache.store().free_pages().iter().map(|p| p.0).collect();
        VersionedPool {
            cache,
            versions: RwLock::new(Versions {
                free,
                ..Versions::default()
            }),
            live: AtomicUsize::new(0),
            registry: Mutex::new(Registry {
                epoch: 0,
                pins: BTreeMap::new(),
            }),
            writer: Mutex::new(()),
            log: log.map(Mutex::new),
            cow_pages: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
        }
    }

    /// The shared cache (for its statistics and cache controls).
    pub fn cache(&self) -> &ConcurrentBufferPool<S> {
        &self.cache
    }

    /// Shared access guard to the backing store: the bytes in force before
    /// each page's oldest version.
    pub fn store_guard(&self) -> RwLockReadGuard<'_, S> {
        self.cache.store()
    }

    /// The current epoch (number of published batches).
    pub fn epoch(&self) -> u64 {
        lock_unpoisoned(&self.registry).epoch
    }

    /// Snapshot of the versioning machinery.
    pub fn version_stats(&self) -> VersionStats {
        let reg = lock_unpoisoned(&self.registry);
        let (epoch, oldest) = (reg.epoch, reg.oldest());
        let pinned_readers = reg.pins.values().sum();
        drop(reg);
        let versions = read_unpoisoned(&self.versions);
        let (mut batches, mut deferred_frees) = (BTreeSet::new(), 0);
        for chain in versions.chains.values() {
            batches.extend(chain.versions.iter().map(|v| v.0).filter(|&e| e > oldest));
            if !chain.clean {
                batches.extend(chain.versions.last().map(|v| v.0));
            }
            deferred_frees += usize::from(chain.pending_free());
        }
        VersionStats {
            epoch,
            pinned_readers,
            retained_versions: batches.len(),
            cow_pages: self.cow_pages.load(Ordering::Relaxed),
            reclaimed_versions: self.reclaimed.load(Ordering::Relaxed),
            deferred_frees,
        }
    }

    /// Ids free in the latest view, ascending: the store's free list plus
    /// every page whose newest version is a free.
    pub fn free_pages(&self) -> Vec<PageId> {
        let versions = read_unpoisoned(&self.versions);
        let freed = versions.chains.iter().filter(|(_, c)| c.freed());
        let mut free: BTreeSet<PageId> = freed.map(|(&id, _)| PageId(id)).collect();
        free.extend(self.cache.store().free_pages());
        free.into_iter().collect()
    }

    /// Pins the current epoch: every page read through the returned
    /// [`EpochPin`] observes the pages as of pin time, no matter how many
    /// batches publish concurrently. Dropping the pin unpins and reclaims
    /// any versions only it was holding.
    pub fn pin(&self) -> EpochPin<'_, S> {
        let mut reg = lock_unpoisoned(&self.registry);
        let epoch = reg.epoch;
        *reg.pins.entry(epoch).or_insert(0) += 1;
        EpochPin { pool: self, epoch }
    }

    /// Opens a batch. One batch is open at a time; this blocks until the
    /// previous one publishes or aborts (or a log append or checkpoint
    /// ends). Readers are *not* blocked — that is the point.
    pub fn begin_batch(&self) -> BatchWriter<'_, S> {
        let guard = lock_unpoisoned(&self.writer);
        write_unpoisoned(&self.versions).fresh.clear();
        let epoch = self.epoch();
        BatchWriter {
            pool: self,
            _guard: guard,
            epoch,
        }
    }

    /// Tears the pool down, returning the backing store. Without a log
    /// every version is written back first (a failed write-back loses
    /// them); a durable pool's map is dropped like the RAM it models,
    /// leaving the last checkpoint, the log and the in-place writes since.
    pub fn into_store(self) -> S {
        if self.log.is_none() {
            let _ = self.dirty_heads(false).and_then(|h| self.write_heads(&h));
        }
        self.cache.into_store()
    }

    /// Appends logical records to a durable pool's log as **one group
    /// commit**: one atomic log publish and one sync, so a crash exposes
    /// all of the records or none. Once this returns, the group survives
    /// any crash.
    pub fn append_records(
        &self,
        payloads: impl IntoIterator<Item = Vec<u8>>,
    ) -> Result<(), StorageError> {
        let _writer = lock_unpoisoned(&self.writer);
        let mut wal = self.wal()?;
        self.log_group(&mut wal, payloads.into_iter().map(WalRecord::Logical))
    }

    fn wal(&self) -> Result<MutexGuard<'_, Wal>, StorageError> {
        match &self.log {
            Some(wal) => Ok(lock_unpoisoned(wal)),
            None => Err(StorageError::Corrupt("the pool has no log".into())),
        }
    }

    /// `records` as one synced log group. The pages the log took from the
    /// store's free list stop being allocatable.
    fn log_group(
        &self,
        wal: &mut Wal,
        records: impl IntoIterator<Item = WalRecord>,
    ) -> Result<(), StorageError> {
        let before = wal.chain().len();
        let result = {
            let mut store = self.cache.write_store();
            wal.append(&mut *store, records).and_then(|()| store.sync())
        };
        let mut versions = write_unpoisoned(&self.versions);
        for page in wal.chain().get(before..).unwrap_or_default() {
            versions.free.remove(&page.0);
        }
        result
    }

    /// Checkpoints a durable pool: commits every dirty version plus the
    /// caller's `snapshot` as the new durable baseline, writes the
    /// versions back and truncates the log (see the module docs). Safe
    /// with readers pinned. After a failure, drop the pool and reopen.
    pub fn checkpoint(&self, snapshot: &[u8]) -> Result<(), StorageError> {
        let _writer = lock_unpoisoned(&self.writer);
        let mut wal = self.wal()?;
        let heads = self.dirty_heads(false)?;
        let (pages, store_free) = {
            let store = self.cache.store();
            (store.num_pages(), store.free_pages())
        };
        let mut free: Vec<u64> = store_free.iter().map(|p| p.0).collect();
        free.extend(heads.iter().filter(|h| h.1.is_none()).map(|h| h.0));
        // The log's continuation pages die with its generation: once the
        // switch below frees them, a batch may take them, and a crash
        // before the next checkpoint must hand them back.
        free.extend(wal.chain().iter().skip(1).map(|p| p.0));
        free.sort_unstable();
        let ckpt = WalRecord::Checkpoint {
            pages,
            free,
            snapshot: snapshot.to_vec(),
        };
        let mut images = heads
            .iter()
            .filter_map(|(page, bytes, _)| {
                let bytes = bytes.clone()?;
                Some(WalRecord::PageImage { page: *page, bytes })
            })
            .peekable();
        let imaged = images.peek().is_some();
        if imaged {
            // The pages written in place since the last checkpoint reach
            // the device first, as the record names them. Then one group:
            // an image of every dirty page and the checkpoint record — the
            // commit point of this durable state — and the write-back.
            self.cache.store().sync()?;
            self.log_group(&mut wal, images.chain([ckpt.clone()]))?;
            self.write_heads(&heads)?;
        }
        // The atomic switch to a fresh generation headed by the
        // checkpoint (the commit point when nothing was imaged); the old
        // log's pages are dead after it.
        let old = {
            let mut store = self.cache.write_store();
            store.sync()?;
            let old = wal.begin_generation(&mut *store, ckpt)?;
            store.sync()?;
            for &id in &old {
                store.free_page(id)?;
            }
            old
        };
        if !imaged {
            // Only frees are left, and the checkpoint lists them: a crash
            // after its commit point redoes them.
            self.write_heads(&heads)?;
        }
        let mut versions = write_unpoisoned(&self.versions);
        // The new log chain may have taken any of the store's free pages.
        versions.free.extend(old.iter().map(|p| p.0));
        for page in wal.chain() {
            versions.free.remove(&page.0);
        }
        versions.fresh.clear();
        drop(versions);
        self.reclaim(lock_unpoisoned(&self.registry).oldest());
        Ok(())
    }

    /// The newest versions not on the store, ascending by page — in a
    /// durable pool, except a free a pinned reader can still see. A page a
    /// reader may read below its oldest version first gets the store's
    /// bytes as an epoch-0 version, so the write-back leaves them to it:
    /// readers pinned now, and — `publishing` a batch — any reader of the
    /// current epoch.
    fn dirty_heads(&self, publishing: bool) -> Result<Vec<Head>, StorageError> {
        let mut versions = write_unpoisoned(&self.versions);
        let reg = lock_unpoisoned(&self.registry);
        let oldest = reg.oldest();
        let below = publishing
            .then_some(reg.epoch)
            .or(reg.pins.keys().next().copied());
        drop(reg);
        let mut heads = Vec::new();
        for (&id, chain) in versions.chains.iter_mut() {
            let Some((epoch, newest)) = chain.versions.last().cloned() else {
                continue;
            };
            let held = self.log.is_some() && newest.is_none() && epoch > oldest;
            if chain.clean || held {
                continue;
            }
            if below.is_some_and(|pin| pin < chain.versions[0].0) {
                let base = self.cache.read_page(PageId(id), chain.kind)?;
                chain.versions.insert(0, (0, Some(base)));
            }
            heads.push((id, newest, chain.kind));
        }
        heads.sort_unstable_by_key(|h| h.0);
        Ok(heads)
    }

    /// The write-back: `heads` to the store (pages, then frees) and the
    /// cache; then their frees are allocatable, and those the map holds
    /// are clean and visited by reclaim.
    fn write_heads(&self, heads: &[Head]) -> Result<(), StorageError> {
        {
            let mut store = self.cache.write_store();
            for (id, page, _) in heads {
                if let Some(page) = page {
                    store.write_page(PageId(*id), page)?;
                }
            }
            for (id, _, _) in heads.iter().filter(|h| h.1.is_none()) {
                store.free_page(PageId(*id))?;
            }
        }
        for (id, page, kind) in heads {
            match page {
                Some(page) => self.cache.install_cached(PageId(*id), page, *kind),
                None => self.cache.drop_cached(PageId(*id)),
            }
        }
        let epoch = self.epoch();
        let mut versions = write_unpoisoned(&self.versions);
        let v = &mut *versions;
        for (id, page, _) in heads {
            if page.is_none() {
                v.free.insert(*id);
            }
            if let Some(chain) = v.chains.get_mut(id) {
                chain.clean = true;
                v.touched.entry(epoch).or_default().push(*id);
            }
        }
        Ok(())
    }

    /// The version a reader pinned at `epoch` reads, if the map holds one.
    fn version_at(&self, id: PageId, epoch: u64) -> Option<Result<Page, StorageError>> {
        if self.live.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let versions = read_unpoisoned(&self.versions);
        let chain = versions.chains.get(&id.0)?;
        let (_, page) = chain.versions.iter().rev().find(|(e, _)| *e <= epoch)?;
        let freed = || StorageError::Corrupt(format!("access to freed {id}"));
        Some(page.clone().ok_or_else(freed))
    }

    /// Hands out the lowest allocatable id for a write at `epoch`. A page
    /// the map holds gets a zeroed version; any other joins `fresh`.
    fn alloc_at(&self, epoch: u64) -> Result<PageId, StorageError> {
        let mut versions = write_unpoisoned(&self.versions);
        let v = &mut *versions;
        let lowest = v.free.first().copied();
        let id = match lowest.filter(|id| v.chains.get(id).is_some_and(Chain::pending_free)) {
            Some(id) => PageId(id),
            // Otherwise the lowest id is the store's own lowest free one.
            None => self.cache.write_store().alloc()?,
        };
        v.free.remove(&id.0);
        if v.chains.contains_key(&id.0) {
            self.stage(v, epoch, id.0, Some(Page::new()), PageKind::Other);
        } else {
            v.fresh.insert(id.0);
        }
        Ok(id)
    }

    /// Writes `page` (`None`: a free) to `id`, refusing a page that is out
    /// of range or free. A page the map does not hold goes straight to the
    /// store and the cache if it is `fresh`, or if `unseen` (no reader and
    /// no log exist); any other write is a version at `epoch` (see
    /// `stage`). Returns whether it added one.
    fn put(
        &self,
        epoch: u64,
        id: PageId,
        page: Option<Page>,
        kind: PageKind,
        unseen: bool,
    ) -> Result<bool, StorageError> {
        let allocated = self.cache.store().num_pages();
        if id.0 >= allocated {
            return Err(StorageError::PageOutOfRange {
                page: id,
                allocated,
            });
        }
        let mut versions = write_unpoisoned(&self.versions);
        let v = &mut *versions;
        if v.free.contains(&id.0) || v.chains.get(&id.0).is_some_and(Chain::freed) {
            return Err(StorageError::Corrupt(format!("access to freed {id}")));
        }
        if v.chains.contains_key(&id.0) || !(unseen || v.fresh.contains(&id.0)) {
            if page.is_none() {
                v.free.insert(id.0);
            }
            return Ok(self.stage(v, epoch, id.0, page, kind));
        }
        drop(versions);
        self.write_heads(&[(id.0, page, kind)])?;
        Ok(false)
    }

    /// Settles every page given a version at or before `oldest`, the
    /// oldest epoch a reader can ask for: its versions up to there
    /// collapse into the newest of them, and a page down to one version
    /// that is on the store leaves the map.
    fn reclaim(&self, oldest: u64) {
        let mut versions = write_unpoisoned(&self.versions);
        let v = &mut *versions;
        let later = v.touched.split_off(&oldest.saturating_add(1));
        let due = std::mem::replace(&mut v.touched, later);
        for id in due.into_values().flatten() {
            let Some(chain) = v.chains.get_mut(&id) else {
                continue;
            };
            let Some(keep) = chain.versions.iter().rposition(|(e, _)| *e <= oldest) else {
                continue;
            };
            chain.versions.drain(..keep);
            self.reclaimed.fetch_add(keep as u64, Ordering::Relaxed);
            if chain.versions.len() > 1 {
                continue;
            }
            if chain.clean {
                v.chains.remove(&id);
                self.live.fetch_sub(1, Ordering::SeqCst);
            } else if chain.pending_free() {
                // A free no pinned reader can see: allocatable.
                v.free.insert(id);
            }
        }
    }

    /// Gives chain `id` the version `page` at `epoch`: replaces the newest
    /// version if it is already that recent, adds one otherwise. Returns
    /// whether it added one.
    fn stage(
        &self,
        v: &mut Versions,
        epoch: u64,
        id: u64,
        page: Option<Page>,
        kind: PageKind,
    ) -> bool {
        let chain = v.chains.entry(id).or_insert_with(|| {
            self.live.fetch_add(1, Ordering::SeqCst);
            Chain {
                versions: Vec::new(),
                kind,
                clean: false,
            }
        });
        chain.clean = false;
        if page.is_some() {
            chain.kind = kind;
        }
        match chain.versions.last_mut() {
            Some(newest) if newest.0 >= epoch => {
                newest.1 = page;
                false
            }
            _ => {
                chain.versions.push((epoch, page));
                v.touched.entry(epoch).or_default().push(id);
                true
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
        let oldest = reg.oldest();
        drop(reg);
        let versions = read_unpoisoned(&self.versions);
        let due = versions.touched.keys().next().is_some_and(|&e| e <= oldest);
        drop(versions);
        if due {
            self.reclaim(oldest);
        }
    }

    /// An exclusive write at the current epoch: the `&mut` borrow proves
    /// no reader is pinned, so without a log none can read any page.
    fn put_exclusive(
        &mut self,
        id: PageId,
        page: Option<Page>,
        kind: PageKind,
    ) -> Result<(), StorageError> {
        let unseen = self.log.is_none();
        self.put(self.epoch(), id, page, kind, unseen).map(drop)
    }
}

/// The unpinned *latest* view: a page's newest version, else the cache.
/// Correct whenever no batch is open (build, replay, invariant checks)
/// and for any page the open batch has not touched.
impl<S: PageStore> PageRead for VersionedPool<S> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        let newest = self.version_at(id, u64::MAX);
        newest.unwrap_or_else(|| self.cache.read_page(id, kind))
    }

    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        self.cache.want_pages(pages)
    }
}

/// The exclusive write path: bulk builds and recovery replay. The `&mut`
/// borrow proves no reader is pinned and no batch is open, so writes land
/// at the current epoch.
impl<S: PageStore> PageWrite for VersionedPool<S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.alloc_at(self.epoch())
    }

    fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError> {
        self.put_exclusive(id, Some(page.clone()), kind)
    }

    fn free(&mut self, id: PageId) -> Result<(), StorageError> {
        self.put_exclusive(id, None, PageKind::Other)
    }
}

impl<S: PageStore> std::fmt::Debug for VersionedPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedPool")
            .field("stats", &self.version_stats())
            .field("durable", &self.log.is_some())
            .finish()
    }
}

/// A wait-free snapshot view: every read observes the pages as of the
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
        if let Some(page) = pool.version_at(id, self.epoch) {
            return page;
        }
        let page = pool.cache.read_page(id, kind)?;
        // Look again: a write-back saves a page's base bytes as an
        // epoch-0 version *before* it writes the page, so if the cache
        // read saw the written-back bytes, this finds the base.
        pool.version_at(id, self.epoch).unwrap_or(Ok(page))
    }

    /// Forwarded straight to the cache, with no per-page map lookup: an
    /// announced page a version answers costs at worst one spare fetch,
    /// whereas filtering every announcement through the map taxes every
    /// wave of every pinned query.
    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        self.pool.cache.want_pages(pages)
    }
}

impl<S: PageStore> std::fmt::Debug for EpochPin<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EpochPin(epoch={})", self.epoch)
    }
}

/// A batch over a [`VersionedPool`]: writes and frees become versions at
/// the pending epoch, reads see them, and [`BatchWriter::publish`] makes
/// them visible to new pins at once. Implements
/// [`PageRead`]/[`PageWrite`], so the delta layer's
/// `insert_batch`/`delete_batch`/`compact` run over it unchanged.
///
/// Dropping the writer without publishing aborts the batch: pinned
/// readers never see it, but the latest view holds its versions until the
/// next batch writes on top — callers poison their session, as `FlatDb`
/// does.
pub struct BatchWriter<'a, S: PageStore> {
    pool: &'a VersionedPool<S>,
    _guard: MutexGuard<'a, ()>,
    /// The epoch this batch branches from.
    epoch: u64,
}

impl<S: PageStore> BatchWriter<'_, S> {
    /// The epoch this batch branches from (readers pinned at or before it
    /// see none of the batch's effects).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Without a log, writes the batch's versions back now (see the
    /// module docs), so a device error surfaces before anything is
    /// visible: a batch whose write-back fails is to be dropped, not
    /// published, and every reader stays on the pre-batch bytes.
    /// [`BatchWriter::publish`] writes back whatever this has not. A
    /// durable pool writes back at checkpoints; this does nothing there.
    pub fn write_back(&mut self) -> Result<(), StorageError> {
        match self.pool.log {
            Some(_) => Ok(()),
            None => self.pool.write_heads(&self.pool.dirty_heads(true)?),
        }
    }

    /// Commits the batch: bumps the epoch, making its versions visible to
    /// new pins, and reclaims every version no reader holds. Returns the
    /// new epoch.
    ///
    /// The caller is responsible for making the epoch bump atomic with
    /// its own resident-state swap (e.g. publish under the write side of
    /// the lock readers pin under).
    pub fn publish(mut self) -> u64 {
        // A failed write-back leaves its versions in the map, served.
        let _ = self.write_back();
        let pool = self.pool;
        let mut versions = write_unpoisoned(&pool.versions);
        versions.fresh.clear();
        let mut reg = lock_unpoisoned(&pool.registry);
        reg.epoch += 1;
        let (epoch, oldest) = (reg.epoch, reg.oldest());
        drop(reg);
        if pool.log.is_some() && oldest < epoch {
            // A page this batch freed stays readable to older pins, so it
            // is not allocatable until they leave.
            let v = &mut *versions;
            for id in v.touched.get(&epoch).into_iter().flatten() {
                if v.chains.get(id).is_some_and(Chain::freed) {
                    v.free.remove(id);
                }
            }
        }
        drop(versions);
        pool.reclaim(oldest);
        epoch
    }

    fn put(&mut self, id: PageId, page: Option<Page>, kind: PageKind) -> Result<(), StorageError> {
        if self.pool.put(self.epoch + 1, id, page, kind, false)? {
            self.pool.cow_pages.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

impl<S: PageStore> PageRead for BatchWriter<'_, S> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        self.pool.read_page(id, kind)
    }
}

impl<S: PageStore> PageWrite for BatchWriter<'_, S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.pool.alloc_at(self.epoch + 1)
    }

    fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError> {
        self.put(id, Some(page.clone()), kind)
    }

    fn free(&mut self, id: PageId) -> Result<(), StorageError> {
        self.put(id, None, PageKind::Other)
    }
}

impl<S: PageStore> std::fmt::Debug for BatchWriter<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BatchWriter(epoch={})", self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultStore, MemStore, SchedulerConfig, ThrottledStore, PAGE_SIZE};
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
        // pin0 predates every batch: it reads the bytes the first
        // write-back kept as the epoch-0 version.
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
    fn a_freed_page_stays_readable_under_older_pins() {
        let pool = pool_with_pages(4);
        let pin = pool.pin();
        let mut batch = pool.begin_batch();
        PageWrite::free(&mut batch, PageId(2)).unwrap();
        assert_eq!(pool.version_stats().deferred_frees, 1);
        batch.publish();
        // The free reached the store; the pinned reader still reads the
        // page's bytes, which the write-back kept in the map.
        assert_eq!(pool.store_guard().free_pages(), vec![PageId(2)]);
        assert_eq!(pool.version_stats().deferred_frees, 0);
        assert_eq!(
            pin.read_page(PageId(2), PageKind::Other)
                .unwrap()
                .get_u64(0),
            2
        );
        assert!(pool.read_page(PageId(2), PageKind::Other).is_err());
        drop(pin);
        pool_reclaims_clean(&pool);
    }

    #[test]
    fn an_aborted_batch_stays_invisible_and_the_next_writes_on_top() {
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
        // The next batch writes on top of the aborted versions; the pin
        // still reads the bytes kept for it at publish.
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
        assert_eq!(pool.store_guard().free_pages().len(), 0);
        assert_eq!(pool.store_guard().num_pages(), 4);
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

        // Frees left at publish reach the store with it — a page the
        // batch allocated too — while the pinned reader keeps reading the
        // freed page's pre-batch bytes from the map.
        let pin = pool.pin();
        let mut batch = pool.begin_batch();
        let fresh = batch.alloc().unwrap();
        PageWrite::free(&mut batch, fresh).unwrap();
        PageWrite::free(&mut batch, PageId(1)).unwrap();
        batch.publish();
        assert_eq!(pool.store_guard().free_pages(), vec![PageId(1), fresh]);
        assert_eq!(pool.free_pages(), vec![PageId(1), fresh], "latest view");
        assert_eq!(
            pin.read_page(PageId(1), PageKind::Other)
                .unwrap()
                .get_u64(0),
            1
        );
        drop(pin);
        pool_reclaims_clean(&pool);
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
    fn a_page_read_under_a_pin_keeps_its_bytes_through_write_publish_and_reclaim() {
        // The cache, the version map and the reader share one buffer per
        // page version; a write-back must install a new one, never edit it.
        for workers in [0, 4, 8] {
            let mut store = MemStore::new();
            for i in 0..4u64 {
                let id = store.alloc().unwrap();
                store.write_page(id, &stamped(i)).unwrap();
            }
            let cache = ConcurrentBufferPool::with_config(store, 64, SchedulerConfig { workers });
            let pool = VersionedPool::from_cache(cache);
            let pin = pool.pin();
            let held = pin.read_page(PageId(1), PageKind::Other).unwrap();
            let cached = pool.read_page(PageId(1), PageKind::Other).unwrap();
            assert!(
                std::ptr::eq(held.bytes(), cached.bytes()),
                "workers {workers}: a pinned hit copied the page"
            );

            let mut batch = pool.begin_batch();
            batch
                .write(PageId(1), &stamped(111), PageKind::Other)
                .unwrap();
            let pre = pin.read_page(PageId(1), PageKind::Other).unwrap();
            assert!(
                std::ptr::eq(pre.bytes(), held.bytes()),
                "workers {workers}: the pre-batch bytes are the buffer the reader holds"
            );
            batch.publish();
            drop(pin);
            assert_eq!(pool.version_stats().retained_versions, 0);

            // The next batch frees the page and reuses its id.
            let mut batch = pool.begin_batch();
            PageWrite::free(&mut batch, PageId(1)).unwrap();
            assert_eq!(batch.alloc().unwrap(), PageId(1));
            batch
                .write(PageId(1), &stamped(222), PageKind::Other)
                .unwrap();
            batch.publish();
            pool_reclaims_clean(&pool);

            let now = pool.pin().read_page(PageId(1), PageKind::Other).unwrap();
            assert_eq!(now.get_u64(0), 222, "workers {workers}");
            for page in [&held, &cached, &pre] {
                assert_eq!(page.get_u64(0), 1, "workers {workers}: a held page changed");
            }
            let _ = pool.into_store();
        }
    }

    #[test]
    fn pinned_readers_race_a_churn_writer_at_every_worker_count() {
        // Coherence rests on one rule at every worker count — a write
        // marks the page's in-flight fetch stale, and a stale fetch is
        // never cached — and the race runs without workers (readers fetch
        // their own misses) and with them. 4 reader threads pin/read/unpin
        // in a loop while a writer publishes batches; every pinned read of
        // a page must return that page's value at some epoch ≤ the pin's —
        // and within one pin, *the* value of the pinned epoch.
        for workers in [0, 4, 8] {
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

    /// Asserts the map is empty and the store holds `expected` (page id →
    /// stamp; `None` for a free page) byte for byte.
    fn assert_drained<S: PageStore>(pool: &VersionedPool<S>, expected: &[(u64, Option<u64>)]) {
        assert_eq!(pool.version_stats().retained_versions, 0, "the map drained");
        let store = pool.store_guard();
        let free = store.free_pages();
        for &(id, stamp) in expected {
            match stamp {
                Some(stamp) => {
                    let mut page = Page::new();
                    store.read_page(PageId(id), &mut page).unwrap();
                    assert_eq!(page, stamped(stamp), "page {id} on the store");
                }
                None => assert!(free.contains(&PageId(id)), "page {id} free on the store"),
            }
        }
    }

    #[test]
    fn the_map_drains() {
        // Without a log: a publish with nothing pinned writes back at once.
        let pool = pool_with_pages(3);
        let mut batch = pool.begin_batch();
        batch
            .write(PageId(0), &stamped(10), PageKind::Other)
            .unwrap();
        PageWrite::free(&mut batch, PageId(1)).unwrap();
        batch.publish();
        assert_drained(&pool, &[(0, Some(10)), (1, None), (2, Some(2))]);

        // With one pin held across three commits, releasing it drains.
        let pin = pool.pin();
        for round in 1..=3 {
            let mut batch = pool.begin_batch();
            batch
                .write(PageId(0), &stamped(10 + round), PageKind::Other)
                .unwrap();
            batch
                .write(PageId(2), &stamped(20 + round), PageKind::Other)
                .unwrap();
            batch.publish();
        }
        assert_eq!(pool.version_stats().retained_versions, 3);
        drop(pin);
        assert_drained(&pool, &[(0, Some(13)), (1, None), (2, Some(23))]);

        // With a log: the pages a batch allocates are written in place,
        // and a rewrite of a checkpointed page stays dirty until a
        // checkpoint writes it back, pinned or not.
        let pool = durable_pool(MemStore::new());
        let ids = write_pages(&pool, &[1, 2, 3]);
        assert_eq!(pool.version_stats().retained_versions, 0, "in place");
        pool.checkpoint(b"one").unwrap();
        write_marked(&pool, ids[2], 4);
        assert_eq!(
            pool.version_stats().retained_versions,
            1,
            "dirty until checkpoint"
        );
        pool.checkpoint(b"one'").unwrap();
        assert_drained(
            &pool,
            &[
                (ids[0].0, Some(1)),
                (ids[1].0, Some(2)),
                (ids[2].0, Some(4)),
            ],
        );
        let pin = pool.pin();
        for round in 1..=3u64 {
            let mut batch = pool.begin_batch();
            batch
                .write(ids[0], &stamped(10 + round), PageKind::Other)
                .unwrap();
            if round == 2 {
                PageWrite::free(&mut batch, ids[1]).unwrap();
            }
            batch.publish();
        }
        pool.checkpoint(b"two").unwrap();
        assert!(
            pool.version_stats().retained_versions > 0,
            "the pin holds versions"
        );
        drop(pin);
        pool.checkpoint(b"three").unwrap();
        assert_drained(
            &pool,
            &[(ids[0].0, Some(13)), (ids[1].0, None), (ids[2].0, Some(4))],
        );
    }

    // ---- durable pools: the log ----------------------------------------

    fn durable_pool<S: PageStore>(store: S) -> VersionedPool<S> {
        VersionedPool::create_durable(ConcurrentBufferPool::new(store, 64), b"").unwrap()
    }

    fn reopen<S: PageStore>(store: S) -> (VersionedPool<S>, RecoveredLog) {
        VersionedPool::open_durable(ConcurrentBufferPool::new(store, 64)).unwrap()
    }

    /// One batch allocating a page per stamp; returns the ids.
    fn write_pages<S: PageStore>(pool: &VersionedPool<S>, stamps: &[u64]) -> Vec<PageId> {
        let mut batch = pool.begin_batch();
        let ids = stamps
            .iter()
            .map(|&stamp| {
                let id = batch.alloc().unwrap();
                batch.write(id, &stamped(stamp), PageKind::Other).unwrap();
                id
            })
            .collect();
        batch.publish();
        ids
    }

    fn write_marked<S: PageStore>(pool: &VersionedPool<S>, id: PageId, marker: u64) {
        let mut batch = pool.begin_batch();
        batch.write(id, &stamped(marker), PageKind::Other).unwrap();
        batch.publish();
    }

    fn read_marker<S: PageStore>(pool: &VersionedPool<S>, id: PageId) -> u64 {
        pool.read_page(id, PageKind::Other).unwrap().get_u64(0)
    }

    fn free_page<S: PageStore>(pool: &VersionedPool<S>, id: PageId) -> Result<(), StorageError> {
        let mut batch = pool.begin_batch();
        PageWrite::free(&mut batch, id)?;
        batch.publish();
        Ok(())
    }

    fn record(payload: &[u8]) -> [Vec<u8>; 1] {
        [payload.to_vec()]
    }

    fn log_chain<S: PageStore>(pool: &VersionedPool<S>) -> Vec<PageId> {
        pool.wal().unwrap().chain().to_vec()
    }

    #[test]
    fn create_checkpoint_reopen_roundtrip() {
        let pool =
            VersionedPool::create_durable(ConcurrentBufferPool::new(MemStore::new(), 64), b"v0")
                .unwrap();
        let a = write_pages(&pool, &[0xA11CE])[0];
        pool.append_records(record(b"op-1")).unwrap();
        pool.checkpoint(b"v1").unwrap();
        pool.append_records(record(b"op-2")).unwrap();

        let (pool2, log) = reopen(pool.into_store());
        assert_eq!(log.snapshot, b"v1");
        assert_eq!(log.logical, vec![b"op-2".to_vec()]);
        assert!(!log.torn_truncated);
        assert_eq!(read_marker(&pool2, a), 0xA11CE);
    }

    #[test]
    fn logging_requires_a_checkpoint() {
        // `create_durable` commits the first checkpoint, so its store
        // recovers...
        let pool = VersionedPool::create_durable(
            ConcurrentBufferPool::new(MemStore::new(), 64),
            b"genesis",
        )
        .unwrap();
        let active = log_chain(&pool)[0];
        let (pool, log) = reopen(pool.into_store());
        assert_eq!(log.snapshot, b"genesis");
        assert!(log.logical.is_empty());
        // ...and undoing that checkpoint's head write — the state a crash
        // inside `create_durable` leaves — leaves no generation to recover.
        let mut store = pool.into_store();
        store.write_page(active, &Page::new()).unwrap();
        assert!(matches!(
            VersionedPool::open_durable(ConcurrentBufferPool::new(store, 64)),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn uncheckpointed_versions_are_lost_like_ram() {
        let pool = durable_pool(MemStore::new());
        let a = write_pages(&pool, &[7])[0];
        pool.checkpoint(b"with-a").unwrap();
        write_marked(&pool, a, 8); // dirty, never checkpointed
        assert_eq!(read_marker(&pool, a), 8, "reads see the map");

        let (pool2, log) = reopen(pool.into_store());
        assert_eq!(log.snapshot, b"with-a");
        assert_eq!(
            read_marker(&pool2, a),
            7,
            "recovery is the checkpointed state"
        );
    }

    #[test]
    fn frees_are_deferred_and_survive_recovery_cumulatively() {
        let pool = durable_pool(MemStore::new());
        let ids = write_pages(&pool, &[1, 2]);
        let (a, b) = (ids[0], ids[1]);
        pool.checkpoint(b"both").unwrap();
        free_page(&pool, a).unwrap();
        // Fenced immediately, applied to the store only at checkpoint.
        assert!(pool.read_page(a, PageKind::Other).is_err());
        let mut batch = pool.begin_batch();
        assert!(batch.write(a, &Page::new(), PageKind::Other).is_err());
        assert!(PageWrite::free(&mut batch, a).is_err(), "double free");
        drop(batch);
        assert!(!pool.store_guard().free_pages().contains(&a));
        pool.checkpoint(b"freed-a").unwrap();
        free_page(&pool, b).unwrap();
        pool.checkpoint(b"freed-b").unwrap();

        // Both frees (one per checkpoint cycle) are in the durable state.
        let (pool2, _) = reopen(pool.into_store());
        let free = pool2.free_pages();
        assert!(free.contains(&a) && free.contains(&b));
        assert!(pool2.read_page(a, PageKind::Other).is_err());
    }

    #[test]
    fn alloc_reuses_lowest_free_across_both_sets() {
        let pool = durable_pool(MemStore::new());
        let ids = write_pages(&pool, &[0, 1, 2, 3]);
        free_page(&pool, ids[2]).unwrap();
        pool.checkpoint(b"ckpt").unwrap(); // ids[2] now free on the store
        free_page(&pool, ids[0]).unwrap(); // deferred
        let mut batch = pool.begin_batch();
        // Lowest id first: ids[0] (deferred) before ids[2] (on-store)...
        let r1 = batch.alloc().unwrap();
        assert_eq!(r1, ids[0]);
        assert_eq!(
            batch.read_page(r1, PageKind::Other).unwrap().get_u64(0),
            0,
            "reused page reads zeroed"
        );
        // ...unless the log chain reused it first, which alloc reflects.
        let r2 = batch.alloc().unwrap();
        assert!(r2 == ids[2] || r2.0 >= pool.store_guard().num_pages() - 1);
    }

    #[test]
    fn crash_between_checkpoints_recovers_the_last_commit() {
        let pool = durable_pool(FaultStore::new(MemStore::new()));
        let a = write_pages(&pool, &[10])[0];
        pool.append_records(record(b"L1")).unwrap();
        pool.checkpoint(b"c1").unwrap();
        write_marked(&pool, a, 20);
        pool.append_records(record(b"L2")).unwrap();
        pool.append_records(record(b"L3")).unwrap();

        // "Crash": drop the map with the pool, reopen the raw store.
        let frozen = pool.into_store().into_inner();
        let (pool2, log) = reopen(frozen);
        assert_eq!(log.snapshot, b"c1");
        assert_eq!(log.logical, vec![b"L2".to_vec(), b"L3".to_vec()]);
        assert_eq!(
            read_marker(&pool2, a),
            10,
            "uncheckpointed image lost, logged ops returned"
        );
    }

    #[test]
    fn kill_points_across_a_checkpoint_never_lose_the_commit() {
        // Baseline run: count the writes a full session issues, then kill
        // at every write index and reopen. The session's first checkpoint
        // images nothing (its batch wrote its page in place), so the
        // generation switch commits it; the second first syncs a page
        // written in place, then logs the image of a rewritten one; the
        // third holds only a free, which must wait for the switch.
        let (total, [a, b]) = {
            let pool = durable_pool(FaultStore::new(MemStore::new()));
            let pages = committed_session(&pool, &mut Vec::new()).unwrap();
            (pool.into_store().writes_done(), pages)
        };
        let is_checkpoint = |name: &[u8]| name.is_empty() || name.starts_with(b"ckpt");
        for kill in 0..=total {
            let cache =
                ConcurrentBufferPool::new(FaultStore::crash_after(MemStore::new(), kill), 64);
            let pool = match VersionedPool::create_durable(cache, b"") {
                Ok(pool) => pool,
                Err(_) => continue, // killed inside create: nothing durable yet
            };
            // What the session acknowledged, in order: log records and
            // checkpoints (by snapshot; `create_durable` committed "").
            let mut acked: Vec<&[u8]> = vec![b""];
            committed_session(&pool, &mut acked).ok();
            let frozen = pool.into_store().into_inner();
            let (pool, log) = VersionedPool::open_durable(ConcurrentBufferPool::new(frozen, 64))
                .unwrap_or_else(|e| panic!("kill={kill}: a created store must recover, got {e:?}"));
            // The recovered checkpoint is the last one acknowledged, or a
            // later one whose commit landed before the kill; every record
            // acknowledged after it replays.
            let since = acked
                .iter()
                .position(|&name| name == log.snapshot.as_slice())
                .map_or(acked.len(), |i| i + 1);
            for &want in &acked[since..] {
                assert!(
                    !is_checkpoint(want),
                    "kill={kill}: lost checkpoint {want:?}"
                );
                assert!(
                    log.logical.iter().any(|got| got == want),
                    "kill={kill}: lost committed {want:?}"
                );
            }
            // Its pages read as it committed them, and a page written in
            // place since is free again.
            match log.snapshot.as_slice() {
                b"" => {}
                b"ckpt-placed" => {
                    assert_eq!(read_marker(&pool, a), 0xBEEF, "kill={kill}");
                    assert!(
                        b.0 >= pool.store_guard().num_pages() || pool.free_pages().contains(&b)
                    );
                }
                b"ckpt-mid" => {
                    assert_eq!(read_marker(&pool, a), 0xCAFE, "kill={kill}");
                    assert_eq!(read_marker(&pool, b), 0xF00D, "kill={kill}");
                }
                b"ckpt-freed" => {
                    assert_eq!(read_marker(&pool, a), 0xCAFE, "kill={kill}");
                    assert!(pool.free_pages().contains(&b), "kill={kill}");
                }
                other => panic!("kill={kill}: unknown snapshot {other:?}"),
            }
        }

        fn committed_session(
            pool: &VersionedPool<FaultStore<MemStore>>,
            acked: &mut Vec<&'static [u8]>,
        ) -> Result<[PageId; 2], StorageError> {
            let mut batch = pool.begin_batch();
            let a = batch.alloc()?;
            batch.write(a, &stamped(0xBEEF), PageKind::Other)?;
            batch.publish();
            pool.append_records(record(b"before"))?;
            acked.push(b"before");
            pool.checkpoint(b"ckpt-placed")?;
            acked.push(b"ckpt-placed");
            let mut batch = pool.begin_batch();
            batch.write(a, &stamped(0xCAFE), PageKind::Other)?;
            let b = batch.alloc()?;
            batch.write(b, &stamped(0xF00D), PageKind::Other)?;
            batch.publish();
            pool.append_records(record(b"after"))?;
            acked.push(b"after");
            pool.checkpoint(b"ckpt-mid")?;
            acked.push(b"ckpt-mid");
            pool.append_records(record(b"late"))?;
            acked.push(b"late");
            let mut batch = pool.begin_batch();
            PageWrite::free(&mut batch, b)?;
            batch.publish();
            pool.checkpoint(b"ckpt-freed")?;
            acked.push(b"ckpt-freed");
            Ok([a, b])
        }
    }

    #[test]
    fn a_page_a_batch_takes_from_the_store_is_written_in_place() {
        for durable in [false, true] {
            let pool = match durable {
                false => VersionedPool::new(MemStore::new(), 64),
                true => durable_pool(MemStore::new()),
            };
            let pin = pool.pin();
            let mut batch = pool.begin_batch();
            let id = batch.alloc().unwrap();
            batch.write(id, &stamped(5), PageKind::Other).unwrap();
            {
                let v = read_unpoisoned(&pool.versions);
                assert!(v.chains.is_empty(), "durable {durable}: no version");
                assert!(v.touched.is_empty(), "durable {durable}: no touched entry");
            }
            let mut page = Page::new();
            pool.store_guard().read_page(id, &mut page).unwrap();
            assert_eq!(page, stamped(5), "durable {durable}: on the store");
            assert_eq!(batch.read_page(id, PageKind::Other).unwrap(), stamped(5));
            batch.publish();
            drop(pin);
            let stats = pool.version_stats();
            assert_eq!((stats.cow_pages, stats.retained_versions), (0, 0));
            // Published, the page is readable: a rewrite is a version.
            let pin = pool.pin();
            write_marked(&pool, id, 6);
            assert_eq!(pool.version_stats().cow_pages, 1, "durable {durable}");
            assert_eq!(read_marker(&pool, id), 6);
            assert_eq!(pin.read_page(id, PageKind::Other).unwrap(), stamped(5));
        }
    }

    #[test]
    fn a_page_reused_from_a_pending_free_is_versioned_for_older_pins() {
        for durable in [false, true] {
            let pool = match durable {
                false => VersionedPool::new(MemStore::new(), 64),
                true => durable_pool(MemStore::new()),
            };
            let ids = write_pages(&pool, &[1, 2]);
            if durable {
                pool.checkpoint(b"placed").unwrap();
            }
            let pin = pool.pin();
            let mut batch = pool.begin_batch();
            PageWrite::free(&mut batch, ids[0]).unwrap();
            assert_eq!(batch.alloc().unwrap(), ids[0], "the free is reused first");
            batch.write(ids[0], &stamped(10), PageKind::Other).unwrap();
            let versioned = read_unpoisoned(&pool.versions)
                .chains
                .contains_key(&ids[0].0);
            assert!(versioned, "durable {durable}: the reuse is a version");
            let pinned = |stage: &str| {
                let page = pin.read_page(ids[0], PageKind::Other).unwrap();
                assert_eq!(page.get_u64(0), 1, "durable {durable}: {stage}");
            };
            pinned("in the batch");
            batch.publish();
            pinned("after publish");
            if durable {
                pool.checkpoint(b"reused").unwrap();
            }
            pool.cache().clear_cache();
            pinned("after the write-back");
            assert_eq!(read_marker(&pool, ids[0]), 10);
            drop(pin);
            assert_eq!(read_marker(&pool, ids[0]), 10);
            assert!(
                read_unpoisoned(&pool.versions).chains.is_empty(),
                "reclaimed"
            );
        }
    }

    #[test]
    fn an_exclusive_build_without_a_log_leaves_the_map_empty() {
        let mut pool = VersionedPool::new(MemStore::new(), 8);
        let ids: Vec<PageId> = (0..16u64)
            .map(|i| {
                let id = pool.alloc().unwrap();
                pool.write(id, &stamped(i), PageKind::Other).unwrap();
                id
            })
            .collect();
        pool.write(ids[3], &stamped(33), PageKind::Other).unwrap();
        PageWrite::free(&mut pool, ids[5]).unwrap();
        assert_eq!(pool.alloc().unwrap(), ids[5], "the free is reused first");
        pool.write(ids[5], &stamped(55), PageKind::Other).unwrap();
        let v = read_unpoisoned(&pool.versions);
        assert!(v.chains.is_empty() && v.touched.is_empty());
        drop(v);
        assert_drained(&pool, &[(3, Some(33)), (5, Some(55)), (15, Some(15))]);
    }

    #[test]
    fn group_commit_recovers_all_records_with_fewer_writes() {
        let writes = |pool: &VersionedPool<FaultStore<MemStore>>| pool.store_guard().writes_done();
        let grouped = durable_pool(FaultStore::new(MemStore::new()));
        let payloads: Vec<Vec<u8>> = (0u8..6).map(|i| vec![i; 40]).collect();
        let before = writes(&grouped);
        grouped.append_records(payloads.clone()).unwrap();
        let grouped_writes = writes(&grouped) - before;

        let single = durable_pool(FaultStore::new(MemStore::new()));
        let before = writes(&single);
        for p in &payloads {
            single.append_records([p.clone()]).unwrap();
        }
        let single_writes = writes(&single) - before;
        assert!(
            grouped_writes < single_writes,
            "group commit must coalesce head-page publishes ({grouped_writes} vs {single_writes})"
        );

        let (_, log) = reopen(grouped.into_store().into_inner());
        assert_eq!(log.logical, payloads);
        assert!(!log.torn_truncated);

        // An empty group writes nothing.
        let before = writes(&single);
        single.append_records([]).unwrap();
        assert_eq!(writes(&single), before);
    }

    #[test]
    fn a_checkpoint_writes_each_log_page_once() {
        // N dirty pages: the checkpoint's group is N image frames plus the
        // checkpoint frame. Laid as one stream, it fills at most one page
        // per payload's worth of bytes, plus the page the log ended in.
        const N: usize = 96;
        let pool = durable_pool(FaultStore::new(MemStore::new()));
        let stamps: Vec<u64> = (3..3 + N as u64).collect();
        let ids = write_pages(&pool, &stamps);
        pool.checkpoint(b"placed").unwrap();
        // Rewritten after a checkpoint, every page is a dirty version.
        let mut batch = pool.begin_batch();
        for (&id, &stamp) in ids.iter().zip(&stamps) {
            batch.write(id, &stamped(stamp), PageKind::Other).unwrap();
        }
        batch.publish();
        let before = pool.store_guard().writes_done();
        pool.checkpoint(b"images").unwrap();
        let writes = (pool.store_guard().writes_done() - before) as usize;
        let image_frame = 8 + 1 + 8 + PAGE_SIZE;
        let checkpoint_frame = 8 + 1 + 8 + 8 + b"images".len(); // empty free list
        let stream = N * image_frame + checkpoint_frame;
        let log_writes = writes - N - log_chain(&pool).len(); // minus write-back and new head
        assert!(
            log_writes <= stream.div_ceil(PAGE_SIZE - 8) + 1,
            "{log_writes} log-page writes for a {stream}-byte group"
        );
        let (pool2, log) = reopen(pool.into_store().into_inner());
        assert_eq!(log.snapshot, b"images");
        assert_eq!(
            read_marker(&pool2, PageId(3 + N as u64 - 1)),
            3 + N as u64 - 1
        );
    }

    #[test]
    fn torn_log_tail_truncates_to_committed_prefix() {
        let pool = durable_pool(MemStore::new());
        pool.append_records(record(b"committed")).unwrap();
        let tail = *log_chain(&pool).last().unwrap();
        let mut store = pool.into_store();
        // Corrupt a payload byte of the *logical* record, which follows
        // the generation's 25-byte checkpoint record in the stream
        // (page offset = 24-byte head header + stream offset 25+8+2).
        let mut page = Page::new();
        store.read_page(tail, &mut page).unwrap();
        page.bytes_mut()[24 + 35] ^= 0x10;
        store.write_page(tail, &page).unwrap();

        let (_, log) = reopen(store);
        assert!(log.torn_truncated);
        assert!(
            log.logical.is_empty(),
            "corrupt record truncated, not replayed"
        );
    }
}
