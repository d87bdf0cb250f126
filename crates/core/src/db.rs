//! [`FlatDb`]: one session façade over build, query, update and
//! durability.
//!
//! Each capability of the library has its own entry point: the
//! [`FlatIndexBuilder`] bulkload and its spill budget, serial and batched
//! queries, the mutable [`DeltaIndex`], MVCC over the one page cache
//! ([`VersionedPool`] over [`flat_storage::ConcurrentBufferPool`]), and
//! the write-ahead log with its checkpoint snapshot (`durable.rs`). A
//! caller would have to know all of them and wire them together correctly
//! (when to fill the delta layer's tables, what a checkpoint must record).
//! `FlatDb` is the one handle that owns that wiring:
//!
//! ```text
//!   FlatDb::create(store, DbOptions)       FlatDb::create_durable(store, ..)
//!                  │                                   │
//!                  ▼                                   ▼
//!        db.build_from(entries)  ◄── one pipeline, spills past
//!        db.build_streaming(iter)    the memory budget
//!                  │
//!      ┌───────────┼─────────────────────┐
//!      ▼           ▼                     ▼
//!  db.reader()  db.query()           db.writer()
//!  Snapshot     QueryBuilder         Writer (&self)
//!  range/knn    .range(..)           insert/delete/compact
//!  (&self)      .run_batch()         (adopts into DeltaIndex)
//!      │           │                     │
//!      └───────────┴──────────┬──────────┘
//!                             ▼
//!        db.checkpoint() ──► FlatDb::open_durable(FileStore::open(path)?, ..)
//! ```
//!
//! A database file is the logged layout of a durable database and nothing
//! else; a [`Durability::Off`] database is ephemeral.
//!
//! The façade adds **no new machinery** on the query side: every method
//! routes to the pre-existing entry point (the query path, the delta
//! layer), so results are bit-for-bit identical to hand-written low-level
//! code — `tests/db_api.rs` asserts this for every path. A batch is that
//! same query path called from a few client threads over one [`Snapshot`]
//! (see [`QueryBuilder`]).
//!
//! # Snapshots & epochs
//!
//! Reads and writes are **both shared** (`&self`): the database owns a
//! [`VersionedPool`] (epoch-based MVCC over the page cache), so a
//! [`Snapshot`] pins an epoch at creation and stays wait-free — range,
//! kNN and batched crawls all observe the store exactly
//! as of pin time — while a concurrent [`Writer`] adds new versions of
//! the pages its batch touches. A batch commits by publishing atomically:
//! the epoch bump and the resident-index swap happen under one lock, so
//! a snapshot taken at any instant sees either the whole batch or none
//! of it, never a partial one. Old page versions reclaim once the last
//! snapshot pinned to them drops. Writers serialize against each other
//! (one [`FlatDb::writer`] session at a time); only readers are
//! wait-free.
//!
//! # Example
//!
//! ```
//! use flat_core::{DbOptions, FlatDb};
//! use flat_geom::{Aabb, Point3};
//! use flat_rtree::Entry;
//! use flat_storage::MemStore;
//!
//! let entries: Vec<Entry> = (0..2000)
//!     .map(|i| Entry::new(i, Aabb::cube(Point3::splat((i % 100) as f64), 1.5)))
//!     .collect();
//!
//! let mut db = FlatDb::create(MemStore::new(), DbOptions::default());
//! db.build_from(entries).unwrap();
//!
//! // Serial reads through a cheap snapshot handle.
//! let query = Aabb::cube(Point3::splat(50.0), 8.0);
//! let hits = db.reader().range(&query).unwrap();
//! assert!(!hits.is_empty());
//!
//! // The same queries as one batch: one epoch, overlapped device reads.
//! let outcome = db.query().range(query).run_batch().unwrap();
//! assert_eq!(outcome.results[0], hits);
//! ```

use crate::aggregate::{density, AggregateStats};
use crate::builder::{FlatIndexBuilder, StreamingStats, DEFAULT_SPILL_BUDGET};
use crate::continuous::{ContinuousQueries, ContinuousQueryId, QueryDelta};
use crate::delta::{DeltaIndex, DeltaReport};
use crate::durable::{decode_logical, encode_logical, DbSnapshot};
pub use crate::durable::{Durability, RecoveryReport};
use crate::error::FlatError;
use crate::index::{BuildStats, FlatIndex, FlatOptions};
use crate::join::{JoinEngine, JoinInput, JoinResult};
use crate::knn::{KnnStats, Neighbor};
use crate::query::QueryStats;
use flat_geom::{Aabb, Point3};
use flat_rtree::{Entry, Hit, LeafLayout};
use flat_storage::{
    ConcurrentBufferPool, EpochPin, IoStats, PageRead, PageStore, PageWrite, StorageError,
    VersionStats, VersionedPool,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks a mutex, tolerating poison: a panicking writer thread must not
/// wedge every later session call (the MVCC state it guards is kept
/// consistent by the publish protocol, not by unwind safety).
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn read_unpoisoned<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn write_unpoisoned<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Configuration of a [`FlatDb`] session.
#[derive(Debug, Clone, Copy)]
pub struct DbOptions {
    /// Index build options (layout, domain, inflation, metadata order).
    pub index: FlatOptions,
    /// Page capacity of the owned buffer pool.
    pub pool_pages: usize,
    /// Memory budget of a build, in *entries*: the spill budget of the
    /// [`FlatIndexBuilder`] pipeline behind [`FlatDb::build_from`] and
    /// [`FlatDb::build_streaming`]. Inputs within it stay resident; larger
    /// ones spill sorted runs to scratch pages. The built pages do not
    /// depend on it, only peak memory does. Must be positive.
    pub memory_budget: usize,
    /// Crash durability of committed writer batches. Anything other than
    /// [`Durability::Off`] requires the database to be created with
    /// [`FlatDb::create_durable`] (or opened with
    /// [`FlatDb::open_durable`]): every batch is then committed to a
    /// write-ahead log before any page mutates, and a crash recovers to
    /// exactly the committed prefix. Only a durable database is ever
    /// reopened; with [`Durability::Off`] (the default) it is ephemeral.
    pub durability: Durability,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            index: FlatOptions::default(),
            pool_pages: 1 << 16,
            memory_budget: DEFAULT_SPILL_BUDGET,
            durability: Durability::Off,
        }
    }
}

impl DbOptions {
    /// Options for an updatable database over `domain`: stable element
    /// ids ([`LeafLayout::WithIds`]) and the fixed tiling domain that
    /// [`FlatDb::writer`] requires.
    pub fn updatable(domain: Aabb) -> DbOptions {
        DbOptions {
            index: FlatOptions {
                layout: LeafLayout::WithIds,
                domain: Some(domain),
                ..FlatOptions::default()
            },
            ..DbOptions::default()
        }
    }

    /// Replaces the index build options.
    pub fn with_index(mut self, index: FlatOptions) -> DbOptions {
        self.index = index;
        self
    }

    /// Replaces the entry memory budget (see [`DbOptions::memory_budget`]).
    pub fn with_memory_budget(mut self, entries: usize) -> DbOptions {
        self.memory_budget = entries;
        self
    }

    /// Replaces the durability mode (see [`DbOptions::durability`]).
    pub fn with_durability(mut self, durability: Durability) -> DbOptions {
        self.durability = durability;
        self
    }

    /// Refuses options no session can run with. Every fallible
    /// constructor calls this before it touches its store.
    pub(crate) fn check(&self) -> Result<(), FlatError> {
        if self.pool_pages == 0 {
            return Err(FlatError::Build(
                "pool_pages must be at least one page".into(),
            ));
        }
        Ok(())
    }
}

/// What [`FlatDb::build_from`] did.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// The bulkload's phase timings and pointer statistics.
    pub stats: BuildStats,
    /// What the pipeline held resident and spilled.
    pub streaming: StreamingStats,
}

impl BuildReport {
    /// `true` when the input exceeded [`DbOptions::memory_budget`] and the
    /// build spilled sorted runs to scratch pages.
    pub fn spilled(&self) -> bool {
        self.streaming.spill.runs > 0
    }
}

/// The writer-side source of truth, serialized by the truth mutex: one
/// writer session at a time mutates it, then publishes a clone of
/// `index` for snapshots.
///
/// The index is behind an [`Arc`] so its resident tables can be
/// *published*: the writer's truth copy and the snapshot-visible copy
/// share them until a batch mutates ([`Arc::make_mut`] deep-clones
/// exactly then, the resident-table analogue of the page versions in
/// [`VersionedPool`]).
struct DbTruth {
    index: Arc<DeltaIndex>,
    built: bool,
    /// Sequence number the next committed writer batch will log under.
    next_seq: u64,
    /// Committed batches since the last checkpoint (drives the automatic
    /// [`Durability::WalCheckpoint`] cadence).
    batches_since_ckpt: usize,
    /// Set when a commit failed between its point of no return (the log
    /// append, or the first page of the apply) and the publish: the
    /// resident state may disagree with the pages, so further writes are
    /// refused. Snapshots stay consistent — the failed batch was never
    /// published — and reopening a durable database recovers.
    poisoned: bool,
}

impl DbTruth {
    /// Adopts the index before its first write — a one-time
    /// resident-table scan that rewrites no page. `false` if it was
    /// adopted already; on an error the truth is unchanged.
    fn adopt(&mut self, pool: &impl PageRead) -> Result<bool, FlatError> {
        if self.index.is_adopted() {
            return Ok(false);
        }
        Arc::make_mut(&mut self.index).adopt(pool)?;
        self.built = true; // a delta-only database counts as built
        Ok(true)
    }

    /// Applies one mutation to the truth through `pool`: how many
    /// elements it applied to, and the rebuild's statistics if it was a
    /// compaction.
    fn apply_op(
        &mut self,
        pool: &mut (impl PageRead + PageWrite),
        op: WriteOp,
    ) -> Result<(usize, Option<BuildStats>), StorageError> {
        let delta = Arc::make_mut(&mut self.index);
        Ok(match op {
            WriteOp::Insert(entries) => {
                let inserted = entries.len();
                delta.insert_batch(pool, entries)?;
                (inserted, None)
            }
            WriteOp::Delete(ids) => (delta.delete_batch(pool, &ids)?, None),
            WriteOp::Compact => (0, Some(delta.compact(pool)?)),
        })
    }
}

/// A FLAT database: one handle owning the versioned buffer pool and the
/// index lifecycle. See the [module docs](self) for the session diagram
/// and the crate docs for the underlying machinery.
pub struct FlatDb<S: PageStore> {
    pool: VersionedPool<S>,
    /// Writer-side truth; the mutex serializes writer sessions.
    truth: Mutex<DbTruth>,
    /// The resident state snapshots read. Swapped under the write lock
    /// together with the epoch bump ([`BatchWriter::publish`][pb]), and
    /// pinned under the read lock by [`FlatDb::reader`] — that pairing is
    /// what makes a snapshot's epoch and resident tables one consistent
    /// cut.
    ///
    /// [pb]: flat_storage::BatchWriter::publish
    published: RwLock<Arc<DeltaIndex>>,
    /// Continuous-query registry. Mutated only inside the publish
    /// critical section (under the `published` write lock) and during
    /// registration (under the read lock), so the delta stream tiles
    /// the commit history exactly — see [`crate::continuous`].
    subscriptions: Mutex<ContinuousQueries>,
    options: DbOptions,
}

impl<S: PageStore> std::fmt::Debug for FlatDb<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let index = read_unpoisoned(&self.published).clone();
        f.debug_struct("FlatDb")
            .field("live_elements", &index.num_live_elements())
            .field("delta", &index.is_adopted())
            .field("versions", &self.pool.version_stats())
            .finish()
    }
}

impl<S: PageStore> std::fmt::Debug for Snapshot<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Snapshot({:?})", self.db)
    }
}

impl<S: PageStore> std::fmt::Debug for QueryBuilder<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBuilder")
            .field("ranges", &self.ranges.len())
            .field("knns", &self.knns.len())
            .finish()
    }
}

impl<S: PageStore> std::fmt::Debug for Writer<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Writer({:?})", self.db)
    }
}

impl FlatDb<flat_storage::MemStore> {
    /// A database over a fresh in-memory store — the common test and
    /// benchmark substrate.
    pub fn create_in_memory(options: DbOptions) -> FlatDb<flat_storage::MemStore> {
        FlatDb::create(flat_storage::MemStore::new(), options)
    }
}

impl<S: PageStore> FlatDb<S> {
    /// A database over `store`, ready for [`FlatDb::build_from`].
    ///
    /// # Panics
    /// Panics if `options.durability` is on — a durable database needs
    /// the write-ahead-logged store layout that only the fallible
    /// [`FlatDb::create_durable`] can lay down — or if
    /// `options.pool_pages` is 0 (the cache needs a frame; the fallible
    /// constructors return [`FlatError::Build`] instead).
    pub fn create(store: S, options: DbOptions) -> FlatDb<S> {
        assert_eq!(
            options.durability,
            Durability::Off,
            "durability needs the logged store layout: use FlatDb::create_durable"
        );
        let pool = VersionedPool::new(store, options.pool_pages);
        Self::with_pool(pool, options)
    }

    /// A crash-durable database over an **empty** `store`: lays down the
    /// write-ahead-log layout and commits an initial (empty) checkpoint,
    /// so every subsequent committed batch is recoverable.
    ///
    /// `options.durability` selects the logging mode; [`Durability::Off`]
    /// is refused with [`FlatError::Build`] before the store is touched.
    /// Reopen with [`FlatDb::open_durable`] and the same durable options;
    /// over a [`flat_storage::FileStore`] this is how a database file is
    /// written.
    pub fn create_durable(store: S, options: DbOptions) -> Result<FlatDb<S>, FlatError> {
        if options.durability == Durability::Off {
            return Err(FlatError::Build(
                "create_durable needs a durability mode (see DbOptions::durability)".into(),
            ));
        }
        options.check()?;
        let initial = DbSnapshot {
            last_seq: 0,
            built: false,
            index: FlatIndex::empty(options.index.layout),
            delta: None,
        };
        let cache = ConcurrentBufferPool::new(store, options.pool_pages);
        let pool = VersionedPool::create_durable(cache, &initial.encode())?;
        Ok(Self::with_pool(pool, options))
    }

    /// Opens a durable database left by a previous session — or a crash:
    /// recovers the last committed checkpoint (redoing its dirty-page
    /// write-back), rebuilds the resident index state from the recovered
    /// pages, and replays every committed writer batch logged after the
    /// checkpoint. The result is query-equivalent to the state after the
    /// last batch whose commit reached the log; a torn or corrupt log
    /// tail (a crash mid-append) is truncated, never replayed.
    ///
    /// Over [`flat_storage::FileStore::open`] this is the one way to open
    /// a database file. The stored layout overrides
    /// `options.index.layout` — the pages are the source of truth. The
    /// store does not record the tiling domain: pass the same
    /// `options.index.domain` the database was created with whenever the
    /// log may hold updates or the session will write (the delta layer
    /// STR-tiles every insert batch and the compaction rebuild over it).
    /// [`Durability::Off`] is refused with [`FlatError::Persist`] before
    /// the store is touched: such a database is ephemeral and has no file
    /// to reopen.
    pub fn open_durable(
        store: S,
        mut options: DbOptions,
    ) -> Result<(FlatDb<S>, RecoveryReport), FlatError> {
        if options.durability == Durability::Off {
            return Err(FlatError::Persist(
                "open_durable needs a durability mode (see DbOptions::durability): \
                 a Durability::Off database is ephemeral and is never reopened"
                    .into(),
            ));
        }
        options.check()?;
        let cache = ConcurrentBufferPool::new(store, options.pool_pages);
        let (pool, log) = VersionedPool::open_durable(cache)?;
        let snapshot = DbSnapshot::decode(&log.snapshot)?;
        options.index.layout = snapshot.index.layout();
        let index = DeltaIndex::reopen(&pool, snapshot.index, options.index, snapshot.delta)?;
        let mut db = Self::assemble(pool, index, options, snapshot.built, snapshot.last_seq + 1);
        // Replay the committed batches past the checkpoint — applying
        // them directly, *without* re-logging: the records are already
        // in the log, so a crash during recovery just recovers again.
        let mut replayed = 0usize;
        for payload in &log.logical {
            let (seq, op) = decode_logical(payload)?;
            let expected = db.truth_mut().next_seq;
            if seq != expected {
                return Err(FlatError::Persist(format!(
                    "log replay expected batch {expected}, found {seq}"
                )));
            }
            db.replay(op)?;
            db.truth_mut().next_seq = seq + 1;
            replayed += 1;
        }
        db.truth_mut().batches_since_ckpt = replayed;
        db.publish_current();
        let report = RecoveryReport {
            last_committed_seq: db.truth_mut().next_seq - 1,
            replayed,
            torn_tail_truncated: log.torn_truncated,
        };
        Ok((db, report))
    }

    /// An empty database over a ready `pool` — how [`crate::ShardedDb`]
    /// gives each shard a cache with its own I/O workers.
    pub(crate) fn with_pool(pool: VersionedPool<S>, options: DbOptions) -> Self {
        let index = DeltaIndex::pristine(FlatIndex::empty(options.index.layout), options.index);
        Self::assemble(pool, index, options, false, 1)
    }

    /// Wires the locking skeleton around an initial truth index (the
    /// published copy starts as a clone of it).
    fn assemble(
        pool: VersionedPool<S>,
        index: DeltaIndex,
        options: DbOptions,
        built: bool,
        next_seq: u64,
    ) -> Self {
        let index = Arc::new(index);
        FlatDb {
            pool,
            published: RwLock::new(Arc::clone(&index)),
            subscriptions: Mutex::new(ContinuousQueries::new()),
            truth: Mutex::new(DbTruth {
                index,
                built,
                next_seq,
                batches_since_ckpt: 0,
                poisoned: false,
            }),
            options,
        }
    }

    /// The truth behind the mutex, through exclusive access (no locking).
    fn truth_mut(&mut self) -> &mut DbTruth {
        self.truth.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Replaces the published state with the current truth, without an
    /// epoch bump — only for exclusive (`&mut`) contexts such as builds
    /// and recovery, where no snapshot can be pinned.
    fn publish_current(&mut self) {
        let index = Arc::clone(&self.truth_mut().index);
        *self.published.get_mut().unwrap_or_else(|e| e.into_inner()) = index;
    }

    /// Applies one recovered logical record, adopting the index first if
    /// the checkpoint predates the first writer. Recovery runs
    /// exclusively (no snapshot exists yet), so it applies through the
    /// pool's exclusive write path, into its version map.
    fn replay(&mut self, op: WriteOp) -> Result<(), FlatError> {
        let truth = self.truth.get_mut().unwrap_or_else(|e| e.into_inner());
        truth.adopt(&self.pool)?;
        truth.apply_op(&mut self.pool, op)?;
        Ok(())
    }

    /// Bulk-loads the database from `entries` through the
    /// [`FlatIndexBuilder`] pipeline, which spills only when the input
    /// exceeds [`DbOptions::memory_budget`].
    ///
    /// A database can be built once; building into a non-empty database
    /// is an error (open a fresh one instead).
    pub fn build_from(&mut self, entries: Vec<Entry>) -> Result<BuildReport, FlatError> {
        self.build_streaming(entries)
    }

    /// Bulk-loads the database from an entry *stream* — for inputs that
    /// never exist as a `Vec`, e.g. a chunked dataset generator.
    pub fn build_streaming(
        &mut self,
        entries: impl IntoIterator<Item = Entry>,
    ) -> Result<BuildReport, FlatError> {
        self.check_buildable()?;
        let (index, stats, streaming) = FlatIndexBuilder::new(self.options.index)
            .spill_budget(self.options.memory_budget)
            .build(&mut self.pool, entries)?;
        self.adopt_built(index)?;
        Ok(BuildReport { stats, streaming })
    }

    fn check_buildable(&self) -> Result<(), FlatError> {
        if lock_unpoisoned(&self.truth).built {
            return Err(FlatError::Build(
                "database already holds an index; create a fresh database to rebuild".into(),
            ));
        }
        if self.options.memory_budget == 0 {
            return Err(FlatError::Build(
                "DbOptions::memory_budget must be positive".into(),
            ));
        }
        let scale = self.options.index.partition_volume_scale;
        if scale.is_nan() || scale < 1.0 {
            return Err(FlatError::Build(format!(
                "FlatOptions::partition_volume_scale must be at least 1.0 \
                 (inflation must not shrink partitions), got {scale}"
            )));
        }
        Ok(())
    }

    /// Installs a freshly built index as truth, publishes it, and (in
    /// durable mode) checkpoints it: the build wrote its pages in place,
    /// so the checkpoint logs no image.
    fn adopt_built(&mut self, index: FlatIndex) -> Result<(), FlatError> {
        {
            let index = DeltaIndex::pristine(index, self.options.index);
            let truth = self.truth_mut();
            truth.index = Arc::new(index);
            truth.built = true;
        }
        self.publish_current();
        if self.options.durability == Durability::Off {
            return Ok(());
        }
        self.checkpoint_locked(&mut lock_unpoisoned(&self.truth))
    }

    /// A read handle for serial queries, pinned to the current epoch:
    /// the snapshot observes the database exactly as of this call — a
    /// concurrent [`FlatDb::writer`] batch committing later is invisible
    /// to it, and a batch in flight right now is invisible too (its page
    /// versions are newer than this pin).
    /// Snapshots borrow the database shared, so any number can be out at
    /// once, on any number of threads, and none of them ever waits for a
    /// writer's apply phase.
    pub fn reader(&self) -> Snapshot<'_, S> {
        // Pinning under the published read lock pairs the epoch with the
        // resident tables: a writer swaps both under the write lock.
        let published = read_unpoisoned(&self.published);
        let pin = self.pool.pin();
        let resident = published.clone();
        drop(published);
        Snapshot {
            db: self,
            resident,
            pin,
        }
    }

    /// Registers a continuous range query: returns its handle plus the
    /// baseline result (ids intersecting `range` right now, ascending).
    ///
    /// From then on every committed writer batch appends exactly one
    /// [`QueryDelta`] — the batch's net `+id`/`−id` effect on the
    /// result, stamped with the publish epoch — retrievable with
    /// [`FlatDb::poll_changes`]. Baseline and stream tile the commit
    /// history exactly: registration runs under the publish lock, so no
    /// batch can fall in between or be double-counted.
    pub fn subscribe(&self, range: Aabb) -> Result<(ContinuousQueryId, Vec<u64>), FlatError> {
        // Shared publish lock: blocks the writer's publish (not its
        // page apply) for the duration of the baseline query.
        let published = read_unpoisoned(&self.published);
        let pin = self.pool.pin();
        let resident = published.clone();
        let snapshot = Snapshot {
            db: self,
            resident,
            pin,
        };
        let mut baseline: Vec<u64> = snapshot.range(&range)?.into_iter().map(|h| h.id).collect();
        baseline.sort_unstable();
        let id = lock_unpoisoned(&self.subscriptions).register(range, baseline.iter().copied());
        drop(published);
        Ok((id, baseline))
    }

    /// Drains the undelivered [`QueryDelta`]s of a subscription, oldest
    /// first — one per batch committed since the last poll (empty
    /// deltas included, so the epoch trail is gap-free).
    pub fn poll_changes(&self, id: ContinuousQueryId) -> Result<Vec<QueryDelta>, FlatError> {
        lock_unpoisoned(&self.subscriptions)
            .poll(id)
            .ok_or_else(|| FlatError::Query(format!("unknown continuous query {id:?}")))
    }

    /// The subscription's current result set, ascending: the baseline
    /// plus every committed delta (including ones not yet polled).
    pub fn continuous_result(&self, id: ContinuousQueryId) -> Result<Vec<u64>, FlatError> {
        lock_unpoisoned(&self.subscriptions)
            .result(id)
            .ok_or_else(|| FlatError::Query(format!("unknown continuous query {id:?}")))
    }

    /// Drops a subscription; delivery stops immediately. `false` if the
    /// handle was unknown (already dropped).
    pub fn unsubscribe(&self, id: ContinuousQueryId) -> bool {
        lock_unpoisoned(&self.subscriptions).unregister(id)
    }

    /// Starts a fluent batched query: accumulate range or kNN queries,
    /// then run them as one batch.
    pub fn query(&self) -> QueryBuilder<'_, S> {
        QueryBuilder {
            db: self,
            ranges: Vec::new(),
            knns: Vec::new(),
        }
    }

    /// A write session. The truth mutex serializes writers — a second
    /// call blocks until the first session drops — but snapshots are
    /// never blocked: they keep reading the published state while the
    /// writer's batches apply, and flip to the new state only at each
    /// batch's atomic publish.
    ///
    /// The first writer adopts the bulkload into the [`DeltaIndex`]
    /// tables (a one-time resident-table scan); this requires the
    /// database to have stable element ids ([`LeafLayout::WithIds`]) and
    /// a fixed domain — see [`DbOptions::updatable`].
    pub fn writer(&self) -> Result<Writer<'_, S>, FlatError> {
        let mut truth = lock_unpoisoned(&self.truth);
        // Holding the truth mutex means no batch is in flight, so the
        // pool's latest view is stable for the adoption scan.
        if truth.adopt(&self.pool)? {
            // Adoption rewrites no page, so publishing it needs no epoch
            // bump: pinned snapshots keep reading the bulkload alone.
            *write_unpoisoned(&self.published) = Arc::clone(&truth.index);
        }
        Ok(Writer { db: self, truth })
    }

    /// Checkpoints the write-ahead log: the pages written in place since
    /// the last checkpoint are synced, an image of every dirty page and
    /// the checkpoint record go to the log as one group (its last page
    /// write is the commit), the pages are written back to the backing
    /// store and the log is truncated to a fresh generation, whose switch
    /// is the commit when no page is dirty. Recovery cost drops to zero
    /// replayed batches; [`Durability::WalCheckpoint`] runs this
    /// automatically.
    ///
    /// Errors with [`FlatError::Update`] when the database is not
    /// durable.
    pub fn checkpoint(&mut self) -> Result<(), FlatError> {
        if self.options.durability == Durability::Off {
            return Err(FlatError::Update(
                "checkpointing needs a durable database (see DbOptions::durability)".into(),
            ));
        }
        let mut truth = lock_unpoisoned(&self.truth);
        self.checkpoint_locked(&mut truth)
    }

    /// Checkpoint body, under the truth mutex (callers guarantee
    /// durability is on). Safe with snapshots pinned: the pool keeps
    /// every version a pinned epoch reads through the write-back.
    fn checkpoint_locked(&self, truth: &mut DbTruth) -> Result<(), FlatError> {
        Self::check_writable(truth)?;
        let snapshot = Self::snapshot_bytes(truth);
        let result = self.pool.checkpoint(&snapshot);
        if let Err(e) = result {
            truth.poisoned = true;
            return Err(e.into());
        }
        truth.batches_since_ckpt = 0;
        Ok(())
    }

    /// Encodes the checkpoint snapshot of the truth state.
    fn snapshot_bytes(truth: &DbTruth) -> Vec<u8> {
        let index = &truth.index;
        DbSnapshot {
            last_seq: truth.next_seq - 1,
            built: truth.built,
            index: index.base().clone(),
            delta: index.residency(),
        }
        .encode()
    }

    /// Refuses writes after a failed commit.
    fn check_writable(truth: &DbTruth) -> Result<(), FlatError> {
        if truth.poisoned {
            return Err(FlatError::Update(
                "a writer batch failed between commit and publish, so the \
                 resident state may disagree with the log or pages; reopen \
                 the database to recover"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Commits `ops` to the write-ahead log ahead of applying them — the
    /// atomic commit point of a durable writer batch. The group's records
    /// go out as **one** log append and one sync (group commit): the
    /// frames share WAL pages, and the old-end page is written last, so
    /// the whole group is durable — or none of it. A no-op with
    /// durability off.
    fn log_ops(&self, truth: &mut DbTruth, ops: &[&WriteOp]) -> Result<(), FlatError> {
        if self.options.durability == Durability::Off {
            return Ok(());
        }
        let seq = truth.next_seq;
        let payloads = ops
            .iter()
            .zip(seq..)
            .map(|(op, seq)| encode_logical(seq, op));
        let result = self.pool.append_records(payloads);
        if let Err(e) = result {
            // The in-memory log tail may now disagree with the store.
            truth.poisoned = true;
            return Err(e.into());
        }
        truth.next_seq += ops.len() as u64;
        Ok(())
    }

    /// Post-batch bookkeeping: counts the committed batches and runs the
    /// automatic checkpoint cadence.
    fn after_commit(&self, truth: &mut DbTruth, batches: usize) -> Result<(), FlatError> {
        if self.options.durability == Durability::Off {
            return Ok(());
        }
        truth.batches_since_ckpt += batches;
        if let Durability::WalCheckpoint { every_batches } = self.options.durability {
            if truth.batches_since_ckpt >= every_batches.max(1) {
                self.checkpoint_locked(truth)?;
            }
        }
        Ok(())
    }

    /// The index descriptor (the delta layer's base), as currently
    /// published.
    pub fn index(&self) -> Arc<FlatIndex> {
        Arc::new(read_unpoisoned(&self.published).base().clone())
    }

    /// The published delta layer, once a writer has adopted the index.
    ///
    /// `None` before that, though the index is a [`DeltaIndex`] all
    /// along: an unadopted one answers every query verb right, but its
    /// write-side accessors (`contains_id`, `num_live_partitions`, …)
    /// read tables that adoption has not filled yet, so it never leaves
    /// the database.
    pub fn delta(&self) -> Option<Arc<DeltaIndex>> {
        let index = read_unpoisoned(&self.published);
        index.is_adopted().then(|| Arc::clone(&index))
    }

    /// Live (non-deleted) elements, as currently published.
    pub fn num_live_elements(&self) -> u64 {
        read_unpoisoned(&self.published).num_live_elements()
    }

    /// `true` once the database holds an index (built, opened, or written
    /// into).
    pub fn is_built(&self) -> bool {
        lock_unpoisoned(&self.truth).built
    }

    /// The current publish epoch: bumps by one at every committed writer
    /// batch. A [`Snapshot`] records the epoch it pinned.
    pub fn epoch(&self) -> u64 {
        self.pool.epoch()
    }

    /// Page-versioning counters of the owned pool: pinned readers, the
    /// batches whose page versions the pool still holds (for pinned
    /// readers, or — durable — until the next checkpoint), cumulative
    /// versions batches created, and frees the store has not applied yet.
    pub fn version_stats(&self) -> VersionStats {
        self.pool.version_stats()
    }

    /// Runs the delta layer's structural invariant checker against the
    /// session pool: the bulkload's neighbor links, MBR containment, no
    /// freed page reachable from a crawl. Returns `Ok(None)` while no writer
    /// has adopted the index (a bulkload alone has nothing to check).
    /// Takes the writer lock, so the latest view it checks is stable.
    pub fn check_invariants(&self) -> Result<Option<DeltaReport>, String> {
        let truth = lock_unpoisoned(&self.truth);
        if !truth.index.is_adopted() {
            return Ok(None);
        }
        let free = self.pool.free_pages();
        truth.index.check_invariants(&self.pool, &free).map(Some)
    }

    /// The session's configuration.
    pub fn options(&self) -> &DbOptions {
        &self.options
    }

    /// The backing page store. Without durability it holds every
    /// published page (older bytes that pinned snapshots still read stay
    /// in the pool). A durable database's store holds the last checkpoint,
    /// the log, and the pages written since onto pages that checkpoint
    /// holds free (new tiles); a rewrite of a page the checkpoint names
    /// stays in the pool until the next one. Returns a read guard that
    /// dereferences to the store; the pool's write-backs briefly block on
    /// it.
    pub fn store(&self) -> StoreRef<'_, S> {
        self.pool.store_guard()
    }

    /// Unwraps the database into its backing store. Without durability
    /// every page version is written back first. A durable database drops
    /// the versions committed since the last checkpoint — deliberately
    /// the state a crash would leave, which the fault-injection tests
    /// lean on (the log replays them on open, and recovery frees the
    /// pages written in place since); call [`FlatDb::checkpoint`] first
    /// to fold them into the store.
    pub fn into_store(self) -> S {
        self.pool.into_store()
    }

    /// Cumulative I/O statistics of the owned pool.
    pub fn io_stats(&self) -> IoStats {
        self.pool.cache().stats()
    }

    /// Drops every cached page (the paper's cold-cache protocol).
    pub fn clear_cache(&self) {
        self.pool.cache().clear_cache()
    }

    /// Zeroes the I/O statistics.
    pub fn reset_stats(&self) {
        self.pool.cache().reset_stats()
    }

    /// The pool's page cache, for counters beyond [`IoStats`].
    pub(crate) fn cache(&self) -> &ConcurrentBufferPool<S> {
        self.pool.cache()
    }
}

/// A borrowed view of the backing store (see [`FlatDb::store`]): a read
/// guard on the store lock that dereferences to the store itself.
pub type StoreRef<'a, S> = RwLockReadGuard<'a, S>;

/// A serial read handle over a [`FlatDb`], pinned to one epoch.
///
/// The snapshot owns a clone of the resident state published at pin
/// time and an [`EpochPin`] on the versioned pool, so every page it
/// reads is the byte image that epoch saw — a concurrent writer batch
/// writes newer versions beside it. Dropping the snapshot releases the pin
/// (unblocking version reclamation); cloning one re-pins the same
/// epoch.
///
/// Results are identical to calling the underlying index directly —
/// [`FlatIndex::range_query`], or [`DeltaIndex::range_query`] once a
/// writer exists, and the matching `knn_query` / `aggregate_count`:
/// every one of them, and every method here, is the one
/// [`DeltaIndex`] implementation, which a bulkload no writer has adopted
/// runs with empty tables.
pub struct Snapshot<'db, S: PageStore> {
    db: &'db FlatDb<S>,
    resident: Arc<DeltaIndex>,
    pin: EpochPin<'db, S>,
}

impl<S: PageStore> Clone for Snapshot<'_, S> {
    fn clone(&self) -> Self {
        Snapshot {
            db: self.db,
            resident: self.resident.clone(),
            pin: self.pin.clone(),
        }
    }
}

impl<S: PageStore> Snapshot<'_, S> {
    /// The epoch this snapshot pinned: it observes exactly the batches
    /// published before that epoch, none after.
    pub fn epoch(&self) -> u64 {
        self.pin.epoch()
    }

    /// Every live element whose MBR intersects `query`.
    pub fn range(&self, query: &Aabb) -> Result<Vec<Hit>, FlatError> {
        let mut stats = QueryStats::default();
        self.range_with_stats(query, &mut stats)
    }

    /// Like [`Snapshot::range`], accumulating crawl counters.
    pub fn range_with_stats(
        &self,
        query: &Aabb,
        stats: &mut QueryStats,
    ) -> Result<Vec<Hit>, FlatError> {
        Ok(self
            .resident
            .range_query_with_stats(&self.pin, query, stats)?)
    }

    /// The `k` live elements nearest to `point`, ascending, exact.
    pub fn knn(&self, point: Point3, k: usize) -> Result<Vec<Neighbor>, FlatError> {
        let mut stats = KnnStats::default();
        self.knn_with_stats(point, k, &mut stats)
    }

    /// Like [`Snapshot::knn`], accumulating expansion counters.
    pub fn knn_with_stats(
        &self,
        point: Point3,
        k: usize,
        stats: &mut KnnStats,
    ) -> Result<Vec<Neighbor>, FlatError> {
        Ok(self
            .resident
            .knn_query_with_stats(&self.pin, point, k, stats)?)
    }

    /// Cumulative I/O statistics of the database's pool.
    pub fn stats(&self) -> IoStats {
        self.db.io_stats()
    }

    /// The index descriptor this snapshot reads (the resident state
    /// pinned at snapshot creation, not the latest published one).
    pub fn index(&self) -> &FlatIndex {
        self.resident.base()
    }

    /// Live elements visible to this snapshot.
    pub fn num_live_elements(&self) -> u64 {
        self.resident.num_live_elements()
    }

    /// Counts the live elements intersecting `query` without
    /// materializing them — partitions fully contained in the query box
    /// take the containment early-exit (see [`AggregateStats`]).
    pub fn aggregate_count(&self, query: &Aabb) -> Result<u64, FlatError> {
        let mut stats = AggregateStats::default();
        self.aggregate_count_with_stats(query, &mut stats)
    }

    /// Like [`Snapshot::aggregate_count`], accumulating crawl counters.
    pub fn aggregate_count_with_stats(
        &self,
        query: &Aabb,
        stats: &mut AggregateStats,
    ) -> Result<u64, FlatError> {
        Ok(self
            .resident
            .aggregate_count_with_stats(&self.pin, query, stats)?)
    }

    /// Live elements intersecting `query` per unit volume (0.0 for a
    /// degenerate box).
    pub fn aggregate_density(&self, query: &Aabb) -> Result<f64, FlatError> {
        Ok(density(self.aggregate_count(query)?, query))
    }

    /// Joins this snapshot (outer side) with another database's
    /// snapshot (inner side): every `(outer id, inner id)` element pair
    /// within Euclidean distance `eps`, via [`JoinEngine`]'s link-graph
    /// co-crawl. Both sides are pinned, so a concurrent writer on
    /// either database cannot shear the result. A negative or non-finite
    /// `eps` is a [`FlatError::Query`].
    pub fn join<S2: PageStore>(
        &self,
        other: &Snapshot<'_, S2>,
        eps: f64,
    ) -> Result<JoinResult, FlatError> {
        let (outer, inner) = (
            JoinInput::Delta(&self.resident),
            JoinInput::Delta(&other.resident),
        );
        Ok(JoinEngine::checked(eps)?.join(&self.pin, outer, &other.pin, inner)?)
    }
}

/// What a range-query batch did, alongside its per-query results.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-query hit lists, index-aligned with the queued queries and
    /// identical (order included) to serial [`Snapshot::range`].
    pub results: Vec<Vec<Hit>>,
    /// Per-query crawl counters, index-aligned with the queries — the
    /// batch's own work, whatever else the database was serving.
    pub query_stats: Vec<QueryStats>,
    /// Change of the database's **pool-wide** I/O counters between the
    /// batch's start and its end. The counters are shared by everything
    /// that reads through the database, so traffic of concurrent readers
    /// and writers over the same interval is included; it is the batch's
    /// own I/O only when nothing else runs.
    pub io: IoStats,
}

/// Outcome of a kNN batch.
#[derive(Debug, Clone)]
pub struct KnnBatchOutcome {
    /// Per-query neighbor lists (ascending distance), index-aligned with
    /// the queued `(point, k)` pairs and identical to serial
    /// [`Snapshot::knn`].
    pub results: Vec<Vec<Neighbor>>,
    /// Per-query expansion counters, index-aligned with the queries.
    pub query_stats: Vec<KnnStats>,
    /// Pool-wide I/O delta over the batch's duration (see
    /// [`BatchOutcome::io`]).
    pub io: IoStats,
}

/// Client threads a batch runs its queries from. The paper's serving
/// regime is device-bound (§VII-E.2), so what a batch buys is overlapped
/// device reads, and plain queries on a few threads over one shared cache
/// already overlap them: each query announces its own reads
/// ([`PageRead::want_pages`]) and the cache fetches a page once however
/// many of them miss on it. Eight is the width this was measured at on a
/// 150 µs device (`BENCH_one_batch.json`).
const BATCH_CLIENTS: usize = 8;

/// Runs `run` over every query from up to [`BATCH_CLIENTS`] scoped threads
/// (none for a batch of one) and returns the outputs index-aligned. After
/// a failure no further query starts, every thread is joined, and the
/// first client's error is returned.
fn fan_out<Q: Sync, T: Send>(
    queries: &[Q],
    run: impl Fn(&Q) -> Result<T, FlatError> + Sync,
) -> Result<Vec<T>, FlatError> {
    let clients = BATCH_CLIENTS.min(queries.len());
    if clients <= 1 {
        return queries.iter().map(run).collect();
    }
    // Both atomics publish nothing: outputs travel through `join`.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let client = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(query) = queries.get(i) else { break };
            match run(query) {
                Ok(out) => done.push((i, out)),
                Err(err) => {
                    failed.store(true, Ordering::Relaxed);
                    return Err(err);
                }
            }
        }
        Ok(done)
    };
    let per_client: Vec<Result<Vec<(usize, T)>, FlatError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients).map(|_| scope.spawn(client)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut all = Vec::with_capacity(queries.len());
    for done in per_client {
        all.extend(done?);
    }
    all.sort_unstable_by_key(|&(i, _)| i);
    Ok(all.into_iter().map(|(_, out)| out).collect())
}

/// A fluent batched query over a [`FlatDb`].
///
/// Accumulates range and/or kNN queries, then runs them as one batch: the
/// ordinary [`Snapshot`] verbs, called from a few client threads over
/// **one** snapshot so their device reads overlap. Every query of a batch
/// therefore sees the same epoch, and per-query results are identical to
/// the serial [`Snapshot`] paths because they *are* those paths.
pub struct QueryBuilder<'db, S: PageStore> {
    db: &'db FlatDb<S>,
    ranges: Vec<Aabb>,
    knns: Vec<(Point3, usize)>,
}

impl<S: PageStore> QueryBuilder<'_, S> {
    /// Queues one range query.
    pub fn range(mut self, query: Aabb) -> Self {
        self.ranges.push(query);
        self
    }

    /// Queues a batch of range queries.
    pub fn ranges(mut self, queries: impl IntoIterator<Item = Aabb>) -> Self {
        self.ranges.extend(queries);
        self
    }

    /// Queues one kNN query.
    pub fn knn(mut self, point: Point3, k: usize) -> Self {
        self.knns.push((point, k));
        self
    }

    /// Queues a batch of kNN queries.
    pub fn knns(mut self, queries: impl IntoIterator<Item = (Point3, usize)>) -> Self {
        self.knns.extend(queries);
        self
    }
}

impl<S: PageStore + Send + Sync> QueryBuilder<'_, S> {
    /// Runs the queued **range** queries as one batch. Results are
    /// index-aligned with the queueing order and identical to serial
    /// evaluation. The batch runs over one pinned [`Snapshot`], so a
    /// concurrent writer cannot shear it: every query in the batch sees
    /// the same epoch.
    pub fn run_batch(self) -> Result<BatchOutcome, FlatError> {
        if !self.knns.is_empty() {
            return Err(FlatError::Query(
                "kNN queries are queued; run them with run_knn_batch".into(),
            ));
        }
        let snap = self.db.reader();
        let before = self.db.io_stats();
        let answers = fan_out(&self.ranges, |query| {
            let mut stats = QueryStats::default();
            let hits = snap.range_with_stats(query, &mut stats)?;
            Ok((hits, stats))
        })?;
        let (results, query_stats) = answers.into_iter().unzip();
        Ok(BatchOutcome {
            results,
            query_stats,
            io: self.db.io_stats().since(&before),
        })
    }

    /// Runs the queued **kNN** queries as one batch, with the same
    /// alignment, exactness and single-epoch guarantees as
    /// [`QueryBuilder::run_batch`].
    pub fn run_knn_batch(self) -> Result<KnnBatchOutcome, FlatError> {
        if !self.ranges.is_empty() {
            return Err(FlatError::Query(
                "range queries are queued; run them with run_batch".into(),
            ));
        }
        let snap = self.db.reader();
        let before = self.db.io_stats();
        let answers = fan_out(&self.knns, |&(point, k)| {
            let mut stats = KnnStats::default();
            let neighbors = snap.knn_with_stats(point, k, &mut stats)?;
            Ok((neighbors, stats))
        })?;
        let (results, query_stats) = answers.into_iter().unzip();
        Ok(KnnBatchOutcome {
            results,
            query_stats,
            io: self.db.io_stats().since(&before),
        })
    }
}

/// One mutation of a committed writer group — the only spelling of a
/// write. [`Writer::apply`] takes a group of them; [`Writer::insert`],
/// [`Writer::delete`] and [`Writer::compact`] are groups of one. The
/// same values are logged (one logical record each, in durable mode),
/// applied to the pages, and folded into the continuous queries.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Insert a batch of new elements (ids must not be live).
    Insert(Vec<Entry>),
    /// Delete elements by application id.
    Delete(Vec<u64>),
    /// Merge all deltas back into a pristine bulkload (see
    /// [`Writer::compact`]). It preserves the live set.
    Compact,
}

/// A write session over a [`FlatDb`].
///
/// Holding a writer holds the truth mutex, so writer sessions serialize
/// against each other — but **snapshots never block**: each batch
/// applies behind the published state (new page versions, and
/// copy-on-write resident tables) and flips into view atomically when it
/// commits. No snapshot or query can observe a half-applied batch.
pub struct Writer<'db, S: PageStore> {
    db: &'db FlatDb<S>,
    truth: MutexGuard<'db, DbTruth>,
}

impl<S: PageStore> Writer<'_, S> {
    /// Inserts a batch of new elements (see [`DeltaIndex::insert_batch`]).
    ///
    /// An id that is already live, or repeated in `entries`, is a
    /// [`FlatError::Update`], checked before the commit point (the
    /// low-level call reports it as invalid input).
    pub fn insert(&mut self, entries: Vec<Entry>) -> Result<(), FlatError> {
        self.commit(vec![WriteOp::Insert(entries)]).map(|_| ())
    }

    /// Deletes elements by application id, returning how many were live
    /// (see [`DeltaIndex::delete_batch`]).
    pub fn delete(&mut self, ids: &[u64]) -> Result<usize, FlatError> {
        if ids.is_empty() {
            return Ok(0);
        }
        let (applied, _) = self.commit(vec![WriteOp::Delete(ids.to_vec())])?;
        Ok(applied[0])
    }

    /// Applies a *group* of mutations as one commit: one coalesced
    /// write-ahead-log append (one sync), one versioned page batch,
    /// one epoch bump and one atomic publish — snapshots see all of the
    /// group's ops or none of them, and every subscription receives one
    /// delta. Returns, per op, how many elements it applied to (inserted
    /// entries, deleted live elements, or 0 for a compaction).
    ///
    /// Validation is group-aware and runs before the commit point: an
    /// insert may re-use an id deleted *earlier in the same group*, and
    /// a rejected group reaches neither the log nor the pages.
    pub fn apply(&mut self, ops: Vec<WriteOp>) -> Result<Vec<usize>, FlatError> {
        Ok(self.commit(ops)?.0)
    }

    /// Merges all deltas back into a pristine bulkload — pages
    /// byte-identical to a fresh build over the surviving elements (see
    /// [`DeltaIndex::compact`]). Like every writer batch, the rebuild is
    /// invisible to concurrent snapshots until its atomic publish.
    pub fn compact(&mut self) -> Result<BuildStats, FlatError> {
        let (_, stats) = self.commit(vec![WriteOp::Compact])?;
        stats.ok_or_else(|| FlatError::Update("the compaction reported no rebuild".into()))
    }

    /// The commit path shared by every mutation: validate → log (group
    /// commit) → apply into one versioned page batch → publish
    /// atomically → checkpoint cadence. Returns, per op, how many
    /// elements it applied to, plus the rebuild statistics of the
    /// group's (last) compaction.
    fn commit(&mut self, ops: Vec<WriteOp>) -> Result<(Vec<usize>, Option<BuildStats>), FlatError> {
        let db = self.db;
        let truth = &mut *self.truth;
        FlatDb::<S>::check_writable(truth)?;
        // Validate *before* the commit point: a rejected group must
        // reach neither the log nor the pages.
        validate_ops(&truth.index, &ops)?;
        // Empty ops commit nothing: they are not logged (replay would be
        // a no-op) and count as zero applied elements.
        let loggable: Vec<&WriteOp> = ops
            .iter()
            .filter(|op| match op {
                WriteOp::Insert(entries) => !entries.is_empty(),
                WriteOp::Delete(ids) => !ids.is_empty(),
                WriteOp::Compact => true,
            })
            .collect();
        if loggable.is_empty() {
            return Ok((vec![0; ops.len()], None));
        }
        let logged = loggable.len();
        db.log_ops(truth, &loggable)?;
        // The apply loop below consumes `ops`, but continuous queries
        // fold the group in later, inside the publish critical section.
        let committed = ops.clone();
        // Apply the whole group into ONE page batch: its page versions
        // are newer than every pinned snapshot.
        let mut batch = db.pool.begin_batch();
        let mut applied = Vec::with_capacity(ops.len());
        let mut rebuilt = None;
        for op in ops {
            match truth.apply_op(&mut batch, op) {
                Ok((count, stats)) => {
                    applied.push(count);
                    rebuilt = stats.or(rebuilt);
                }
                Err(e) => {
                    // Dropping the unpublished batch keeps every snapshot
                    // — pinned or future — on the pre-group bytes;
                    // refusing further writes keeps the half-applied
                    // latest view from ever being published.
                    truth.poisoned = true;
                    return Err(e.into());
                }
            }
        }
        // Without durability the pages reach the store now, so a device
        // error fails the group before it is visible.
        if let Err(e) = batch.write_back() {
            truth.poisoned = true;
            return Err(e.into());
        }
        // The atomic publish: epoch bump and resident swap under one
        // write lock, paired with the pin-under-read-lock in reader().
        // Subscriptions are folded in under the same lock, so a
        // registration (which runs under the read lock) either sees the
        // pre-batch baseline and receives this delta, or the post-batch
        // baseline and does not — never both, never neither. (A
        // compaction preserves the live set: every subscriber gets one
        // empty delta marking the epoch.)
        {
            let mut published = write_unpoisoned(&db.published);
            let epoch = batch.publish();
            *published = Arc::clone(&truth.index);
            lock_unpoisoned(&db.subscriptions).apply_batch(&committed, epoch);
        }
        db.after_commit(truth, logged)?;
        Ok((applied, rebuilt))
    }

    /// The delta layer this writer mutates (its truth copy — published
    /// snapshots may still be behind it until the next commit).
    pub fn delta(&self) -> &DeltaIndex {
        &self.truth.index
    }
}

/// Group-aware pre-commit validation: walks the ops in order, tracking
/// ids the group has inserted or deleted so far, and rejects an insert
/// of an id that would be live at that point in the sequence.
fn validate_ops(delta: &DeltaIndex, ops: &[WriteOp]) -> Result<(), FlatError> {
    let mut added: HashSet<u64> = HashSet::new();
    let mut removed: HashSet<u64> = HashSet::new();
    for op in ops {
        match op {
            WriteOp::Insert(entries) => {
                for e in entries {
                    let live = added.contains(&e.id)
                        || (!removed.contains(&e.id) && delta.contains_id(e.id));
                    if live {
                        return Err(FlatError::Update(format!(
                            "insert of id {} which is already live",
                            e.id
                        )));
                    }
                    added.insert(e.id);
                    removed.remove(&e.id);
                }
            }
            WriteOp::Delete(ids) => {
                for id in ids {
                    if !added.remove(id) {
                        removed.insert(*id);
                    }
                }
            }
            WriteOp::Compact => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::random_entries;
    use flat_storage::{Page, PageId, PageKind};

    fn updatable_options() -> DbOptions {
        DbOptions::updatable(Aabb::cube(Point3::splat(50.0), 110.0))
    }

    #[test]
    fn double_build_is_rejected() {
        let mut db = FlatDb::create_in_memory(DbOptions::default());
        db.build_from(random_entries(500, 1)).unwrap();
        let err = db.build_from(random_entries(500, 2)).unwrap_err();
        assert!(matches!(err, FlatError::Build(_)), "{err}");
    }

    #[test]
    fn build_spills_only_above_the_budget() {
        let options = DbOptions::default().with_memory_budget(2_000);
        let mut db = FlatDb::create_in_memory(options);
        let report = db.build_from(random_entries(5_000, 3)).unwrap();
        assert!(report.spilled(), "5k entries over a 2k budget must spill");

        let mut db = FlatDb::create_in_memory(DbOptions::default());
        let report = db.build_from(random_entries(5_000, 3)).unwrap();
        assert!(!report.spilled(), "5k entries fit the default budget");
    }

    #[test]
    fn spilled_and_resident_builds_are_byte_identical() {
        let entries = random_entries(4_000, 4);
        let mut resident = FlatDb::create_in_memory(DbOptions::default());
        resident.build_from(entries.clone()).unwrap();
        let mut spilled = FlatDb::create_in_memory(DbOptions::default().with_memory_budget(500));
        spilled.build_from(entries).unwrap();
        let (a, b) = (resident.store(), spilled.store());
        assert_eq!(a.num_pages(), b.num_pages());
        let (mut pa, mut pb) = (Page::new(), Page::new());
        for id in 0..a.num_pages() {
            a.read_page(PageId(id), &mut pa).unwrap();
            b.read_page(PageId(id), &mut pb).unwrap();
            assert_eq!(pa.bytes(), pb.bytes(), "page {id} differs");
        }
    }

    #[test]
    fn writer_requires_ids_and_domain() {
        let mut db = FlatDb::create_in_memory(DbOptions::default());
        db.build_from(random_entries(500, 5)).unwrap();
        let err = db.writer().unwrap_err();
        assert!(matches!(err, FlatError::Update(_)), "{err}");

        let mut db = FlatDb::create_in_memory(DbOptions::default().with_index(FlatOptions {
            layout: LeafLayout::WithIds,
            ..FlatOptions::default()
        }));
        db.build_from(random_entries(500, 5)).unwrap();
        let err = db.writer().unwrap_err();
        assert!(err.to_string().contains("domain"), "{err}");
    }

    #[test]
    fn writer_adopts_once_and_rejects_duplicate_ids() {
        let mut db = FlatDb::create_in_memory(updatable_options());
        db.build_from(random_entries(2_000, 6)).unwrap();
        assert!(db.delta().is_none());
        let pages_before = db.store().num_pages();
        let free_before = db.store().free_pages();
        {
            let mut writer = db.writer().unwrap();
            // One fresh id rides along with the duplicate: the whole
            // batch must be rejected atomically.
            let err = writer
                .insert(vec![
                    Entry::new(777_777, Aabb::cube(Point3::splat(2.0), 0.5)),
                    Entry::new(0, Aabb::cube(Point3::splat(1.0), 0.5)),
                ])
                .unwrap_err();
            assert!(matches!(err, FlatError::Update(_)), "{err}");
            // A rejected batch must not have touched anything.
            assert_eq!(writer.delta().num_live_elements(), 2_000);
            assert!(!writer.delta().contains_id(777_777));
        }
        // ...including the store: no pages appended or leaked onto (or
        // off) the free list by the failed batch.
        assert_eq!(db.store().num_pages(), pages_before);
        assert_eq!(db.store().free_pages(), free_before);
        {
            let mut writer = db.writer().unwrap();
            writer
                .insert(vec![Entry::new(9_999, Aabb::cube(Point3::splat(1.0), 0.5))])
                .unwrap();
        }
        assert!(db.delta().is_some());
        assert_eq!(db.num_live_elements(), 2_001);
    }

    #[test]
    #[should_panic(expected = "create_durable")]
    fn durable_options_are_rejected_by_plain_create() {
        let options = updatable_options().with_durability(Durability::Wal);
        let _ = FlatDb::create(flat_storage::MemStore::new(), options);
    }

    #[test]
    fn checkpoint_requires_a_durable_database() {
        let mut db = FlatDb::create_in_memory(updatable_options());
        let err = db.checkpoint().unwrap_err();
        assert!(matches!(err, FlatError::Update(_)), "{err}");
    }

    #[test]
    fn durable_database_recovers_uncheckpointed_batches() {
        let options = updatable_options().with_durability(Durability::Wal);
        let entries = random_entries(1_500, 21);

        // Reference session: the same operations, durability off.
        let mut reference = FlatDb::create_in_memory(updatable_options());
        reference.build_from(entries.clone()).unwrap();

        let mut db = FlatDb::create_durable(flat_storage::MemStore::new(), options).unwrap();
        db.build_from(entries).unwrap();
        let fresh: Vec<Entry> = random_entries(300, 22)
            .into_iter()
            .map(|e| Entry::new(e.id + 1_000_000, e.mbr))
            .collect();
        let doomed: Vec<u64> = (0..1_500).filter(|i| i % 5 == 0).collect();
        for session in [&mut reference, &mut db] {
            let mut writer = session.writer().unwrap();
            writer.insert(fresh.clone()).unwrap();
            writer.delete(&doomed).unwrap();
        }

        // "Crash": drop the session without a checkpoint. The WAL pages
        // live on the backing store; the page versions die with the RAM.
        let store = db.into_store();
        let (recovered, report) = FlatDb::open_durable(store, options).unwrap();
        assert_eq!(
            report.replayed, 2,
            "insert + delete past the build's checkpoint"
        );
        assert_eq!(report.last_committed_seq, 2);
        assert!(!report.torn_tail_truncated);
        assert_eq!(recovered.num_live_elements(), reference.num_live_elements());
        // The durable layout shifts page ids (header + log pages), so the
        // crawl emits hits in a different order: compare as id sets.
        let ids = |hits: Vec<flat_rtree::Hit>| {
            let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
            ids.sort_unstable();
            ids
        };
        for side in [8.0, 30.0, 240.0] {
            let q = Aabb::cube(Point3::splat(50.0), side);
            assert_eq!(
                ids(recovered.reader().range(&q).unwrap()),
                ids(reference.reader().range(&q).unwrap()),
                "query side {side}"
            );
        }
        let delta = recovered.delta().expect("replay adopts");
        delta
            .check_invariants(
                // The pool reads through its version map.
                &recovered.pool,
                &recovered.pool.free_pages(),
            )
            .unwrap_or_else(|e| panic!("invariants violated after recovery: {e}"));
    }

    #[test]
    fn durable_database_survives_a_checkpointed_shutdown() {
        let options =
            updatable_options().with_durability(Durability::WalCheckpoint { every_batches: 2 });
        let mut db = FlatDb::create_durable(flat_storage::MemStore::new(), options).unwrap();
        db.build_from(random_entries(1_000, 23)).unwrap();
        {
            let mut writer = db.writer().unwrap();
            writer
                .insert(vec![Entry::new(
                    700_000,
                    Aabb::cube(Point3::splat(9.0), 1.0),
                )])
                .unwrap();
            writer.delete(&[3, 4, 5]).unwrap(); // second batch: auto-checkpoint
        }
        let expected = db.num_live_elements();
        let q = Aabb::cube(Point3::splat(50.0), 160.0);
        let hits = db.reader().range(&q).unwrap();

        let (recovered, report) = FlatDb::open_durable(db.into_store(), options).unwrap();
        assert_eq!(report.replayed, 0, "the auto-checkpoint truncated the log");
        assert_eq!(recovered.num_live_elements(), expected);
        assert_eq!(recovered.reader().range(&q).unwrap(), hits);
        assert!(
            recovered.delta().is_some(),
            "delta state survives via the snapshot"
        );
    }

    #[test]
    fn durable_delta_only_database_recovers_from_the_initial_checkpoint() {
        let options = updatable_options().with_durability(Durability::Wal);
        let db = FlatDb::create_durable(flat_storage::MemStore::new(), options).unwrap();
        {
            let mut writer = db.writer().unwrap();
            writer
                .insert(vec![
                    Entry::new(1, Aabb::cube(Point3::splat(10.0), 1.0)),
                    Entry::new(2, Aabb::cube(Point3::splat(20.0), 1.0)),
                ])
                .unwrap();
        }
        let (recovered, report) = FlatDb::open_durable(db.into_store(), options).unwrap();
        assert_eq!(report.replayed, 1);
        assert!(recovered.is_built());
        assert_eq!(recovered.num_live_elements(), 2);
        assert_eq!(
            recovered
                .reader()
                .range(&Aabb::cube(Point3::splat(10.0), 3.0))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn mixed_batches_must_pick_the_matching_terminal() {
        let mut db = FlatDb::create_in_memory(DbOptions::default());
        db.build_from(random_entries(1_000, 7)).unwrap();
        let err = db
            .query()
            .range(Aabb::cube(Point3::splat(50.0), 5.0))
            .knn(Point3::splat(50.0), 3)
            .run_batch()
            .unwrap_err();
        assert!(matches!(err, FlatError::Query(_)), "{err}");
        let err = db
            .query()
            .range(Aabb::cube(Point3::splat(50.0), 5.0))
            .knn(Point3::splat(50.0), 3)
            .run_knn_batch()
            .unwrap_err();
        assert!(matches!(err, FlatError::Query(_)), "{err}");
    }

    #[test]
    fn snapshot_matches_batched_results() {
        let mut db = FlatDb::create_in_memory(DbOptions::default());
        db.build_from(random_entries(20_000, 8)).unwrap();
        let queries: Vec<Aabb> = (0..12)
            .map(|i| Aabb::cube(Point3::splat(8.0 * i as f64), 6.0))
            .collect();
        let serial: Vec<Vec<Hit>> = queries
            .iter()
            .map(|q| db.reader().range(q).unwrap())
            .collect();
        let outcome = db
            .query()
            .ranges(queries.iter().copied())
            .run_batch()
            .unwrap();
        assert_eq!(outcome.results, serial);

        let points: Vec<(Point3, usize)> = (0..6)
            .map(|i| (Point3::splat(15.0 * i as f64), 9))
            .collect();
        let serial: Vec<Vec<Neighbor>> = points
            .iter()
            .map(|&(p, k)| db.reader().knn(p, k).unwrap())
            .collect();
        let outcome = db
            .query()
            .knns(points.iter().copied())
            .run_knn_batch()
            .unwrap();
        assert_eq!(outcome.results, serial);
    }

    #[test]
    fn batch_outcomes_carry_the_pool_io_delta() {
        let mut db = FlatDb::create_in_memory(DbOptions::default());
        db.build_from(random_entries(20_000, 11)).unwrap();
        db.clear_cache();
        db.reset_stats();
        let queries: Vec<Aabb> = (0..10)
            .map(|i| Aabb::cube(Point3::splat(9.0 * i as f64), 6.0))
            .collect();
        let outcome = db
            .query()
            .ranges(queries.iter().copied())
            .run_batch()
            .unwrap();
        // Nothing else reads this database, so the pool-wide delta covers
        // exactly this batch: cold cache, so physical reads happened.
        assert!(outcome.io.total_physical_reads() > 0);
        assert_eq!(
            outcome.io.total_physical_reads(),
            db.io_stats().total_physical_reads()
        );
        // Snapshot::stats exposes the same cumulative counters.
        assert_eq!(
            db.reader().stats().total_physical_reads(),
            db.io_stats().total_physical_reads()
        );
        // A second identical batch over the warm cache adds no physical
        // reads but still reports its (all-logical) delta.
        let warm = db
            .query()
            .ranges(queries.iter().copied())
            .run_batch()
            .unwrap();
        assert_eq!(warm.io.total_physical_reads(), 0);
        assert!(warm.io.total_logical_reads() > 0);
    }

    #[test]
    fn fresh_database_serves_empty_results() {
        let db = FlatDb::create_in_memory(DbOptions::default());
        assert!(!db.is_built());
        let q = Aabb::cube(Point3::splat(1.0), 5.0);
        assert!(db.reader().range(&q).unwrap().is_empty());
        assert!(db.reader().knn(Point3::ORIGIN, 4).unwrap().is_empty());
        let outcome = db.query().range(q).run_batch().unwrap();
        assert!(outcome.results[0].is_empty());
    }

    #[test]
    fn writer_on_a_fresh_updatable_database_is_delta_only() {
        let mut db = FlatDb::create_in_memory(updatable_options());
        {
            let mut writer = db.writer().unwrap();
            writer
                .insert(vec![
                    Entry::new(1, Aabb::cube(Point3::splat(10.0), 1.0)),
                    Entry::new(2, Aabb::cube(Point3::splat(20.0), 1.0)),
                ])
                .unwrap();
        }
        assert!(db.is_built());
        assert_eq!(db.num_live_elements(), 2);
        let hits = db
            .reader()
            .range(&Aabb::cube(Point3::splat(10.0), 3.0))
            .unwrap();
        assert_eq!(hits.len(), 1);
        // The database is now built; a bulkload on top must be refused.
        assert!(db.build_from(random_entries(10, 9)).is_err());
    }

    #[test]
    fn continuous_query_streams_one_delta_per_commit() {
        let mut db = FlatDb::create_in_memory(updatable_options());
        db.build_from(random_entries(2_000, 21)).unwrap();
        let range = Aabb::cube(Point3::splat(50.0), 18.0);
        let (sub, baseline) = db.subscribe(range).unwrap();
        let oracle: Vec<u64> = {
            let mut ids: Vec<u64> = db
                .reader()
                .range(&range)
                .unwrap()
                .into_iter()
                .map(|h| h.id)
                .collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(baseline, oracle);

        let mut writer = db.writer().unwrap();
        // One insert inside the range, one outside, one delete inside.
        let inside = Entry::new(60_000, Aabb::cube(Point3::splat(50.0), 0.5));
        let outside = Entry::new(60_001, Aabb::cube(Point3::splat(5.0), 0.5));
        writer.insert(vec![inside, outside]).unwrap();
        let victim = baseline[0];
        writer.delete(&[victim]).unwrap();
        // A batch that nets out inside one group.
        writer
            .apply(vec![
                WriteOp::Delete(vec![60_000]),
                WriteOp::Insert(vec![Entry::new(
                    60_000,
                    Aabb::cube(Point3::splat(50.0), 0.5),
                )]),
            ])
            .unwrap();
        let deltas = db.poll_changes(sub).unwrap();
        drop(writer);
        assert_eq!(deltas.len(), 3, "one delta per committed batch");
        assert_eq!(deltas[0].added, vec![60_000]);
        assert!(deltas[0].removed.is_empty());
        assert_eq!(deltas[1].removed, vec![victim]);
        assert!(deltas[2].is_empty(), "delete-then-reinsert nets out");
        // Epochs strictly increase batch over batch.
        assert!(deltas[0].epoch < deltas[1].epoch);
        assert!(deltas[1].epoch < deltas[2].epoch);

        // Replaying baseline + deltas reproduces a fresh range query.
        let mut replayed: HashSet<u64> = baseline.into_iter().collect();
        for d in &deltas {
            for id in &d.removed {
                assert!(replayed.remove(id));
            }
            for id in &d.added {
                assert!(replayed.insert(*id));
            }
        }
        let mut replayed: Vec<u64> = replayed.into_iter().collect();
        replayed.sort_unstable();
        let mut fresh: Vec<u64> = db
            .reader()
            .range(&range)
            .unwrap()
            .into_iter()
            .map(|h| h.id)
            .collect();
        fresh.sort_unstable();
        assert_eq!(replayed, fresh);
        assert_eq!(db.continuous_result(sub).unwrap(), fresh);

        // Compaction preserves the live set: an empty delta, epoch only.
        db.writer().unwrap().compact().unwrap();
        let deltas = db.poll_changes(sub).unwrap();
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].is_empty());

        assert!(db.unsubscribe(sub));
        assert!(!db.unsubscribe(sub));
        assert!(matches!(db.poll_changes(sub), Err(FlatError::Query(_))));
    }

    #[test]
    fn snapshot_aggregates_match_range_counts() {
        let mut db = FlatDb::create_in_memory(updatable_options());
        db.build_from(random_entries(3_000, 22)).unwrap();
        // Exercise both the bulkload-only and the delta path.
        for adopted in [false, true] {
            if adopted {
                let mut writer = db.writer().unwrap();
                writer.delete(&[0, 1, 2]).unwrap();
            }
            let snap = db.reader();
            for half in [5.0, 20.0, 80.0] {
                let q = Aabb::cube(Point3::splat(50.0), half);
                assert_eq!(
                    snap.aggregate_count(&q).unwrap(),
                    snap.range(&q).unwrap().len() as u64,
                    "adopted={adopted} half={half}"
                );
            }
            let q = Aabb::cube(Point3::splat(50.0), 10.0);
            let density = snap.aggregate_density(&q).unwrap();
            assert!(
                (density - snap.aggregate_count(&q).unwrap() as f64 / q.volume()).abs() < 1e-12
            );
        }
    }

    #[test]
    fn snapshot_join_pairs_two_databases() {
        let mut db_a = FlatDb::create_in_memory(updatable_options());
        db_a.build_from(random_entries(700, 31)).unwrap();
        let mut db_b = FlatDb::create_in_memory(updatable_options());
        let mut b_entries = random_entries(600, 32);
        // Distinct id space for readability of the oracle.
        for e in &mut b_entries {
            e.id += 100_000;
        }
        db_b.build_from(b_entries).unwrap();
        // Adopt A so the join exercises the Delta input too.
        db_a.writer().unwrap().delete(&[5, 6]).unwrap();

        let eps = 1.5;
        let snap_a = db_a.reader();
        let snap_b = db_b.reader();
        let result = snap_a.join(&snap_b, eps).unwrap();

        let everything = Aabb::cube(Point3::splat(50.0), 200.0);
        let a_hits = snap_a.range(&everything).unwrap();
        let b_hits = snap_b.range(&everything).unwrap();
        let mut expected = Vec::new();
        for ha in &a_hits {
            for hb in &b_hits {
                if ha.mbr.distance_sq(&hb.mbr) <= eps * eps {
                    expected.push((ha.id, hb.id));
                }
            }
        }
        expected.sort_unstable();
        assert_eq!(result.pairs, expected);
        assert!(result.stats.pairs > 0, "eps 1.5 over [0,100)^3 must match");
    }

    #[test]
    fn a_compacting_group_commits_once_and_replays_after_a_crash() {
        let options = updatable_options().with_durability(Durability::Wal);
        let initial = random_entries(2_000, 50);
        let victims: Vec<u64> = (0..2_000).step_by(40).collect();
        let fresh: Vec<Entry> = random_entries(12, 51)
            .into_iter()
            .map(|e| Entry::new(e.id + 1_000_000, e.mbr))
            .collect();
        let survivors: Vec<Entry> = initial
            .iter()
            .filter(|e| !victims.contains(&e.id))
            .chain(&fresh)
            .copied()
            .collect();
        let ids_in = |db: &FlatDb<flat_storage::MemStore>, range: &Aabb| {
            let mut ids: Vec<u64> = db
                .reader()
                .range(range)
                .unwrap()
                .iter()
                .map(|h| h.id)
                .collect();
            ids.sort_unstable();
            ids
        };

        let mut db = FlatDb::create_durable(flat_storage::MemStore::new(), options).unwrap();
        db.build_from(initial.clone()).unwrap();
        let ranges = [
            Aabb::cube(Point3::splat(30.0), 15.0),
            Aabb::cube(Point3::splat(70.0), 25.0),
        ];
        let subs: Vec<_> = ranges.iter().map(|r| db.subscribe(*r).unwrap()).collect();
        let epoch = db.epoch();
        let group = vec![
            WriteOp::Delete(victims.clone()),
            WriteOp::Insert(fresh.clone()),
            WriteOp::Compact,
        ];
        let applied = db.writer().unwrap().apply(group.clone()).unwrap();
        assert_eq!(applied, vec![victims.len(), fresh.len(), 0]);
        assert_eq!(db.epoch(), epoch + 1, "one group, one epoch");
        for ((sub, baseline), range) in subs.iter().zip(&ranges) {
            let deltas = db.poll_changes(*sub).unwrap();
            assert_eq!(deltas.len(), 1, "one delta per subscription");
            let mut ids: HashSet<u64> = baseline.iter().copied().collect();
            for id in &deltas[0].removed {
                assert!(ids.remove(id));
            }
            for id in &deltas[0].added {
                assert!(ids.insert(*id));
            }
            let mut ids: Vec<u64> = ids.into_iter().collect();
            ids.sort_unstable();
            assert_eq!(ids, ids_in(&db, range));
        }
        let compacted = &db.truth_mut().index;
        assert_eq!(compacted.num_delta_partitions(), 0, "the group compacted");
        assert_eq!(compacted.num_tombstones(), 0, "the group compacted");

        // A crash before the next checkpoint: the page versions are lost
        // and the log replays the group. The crashed session is the same
        // build and group over a store of its own.
        let mut crashed = FlatDb::create_durable(flat_storage::MemStore::new(), options).unwrap();
        crashed.build_from(initial).unwrap();
        crashed.writer().unwrap().apply(group).unwrap();
        let (replayed, report) = FlatDb::open_durable(crashed.into_store(), options).unwrap();
        assert_eq!(report.replayed, 3, "one logical record per op");
        for range in &ranges {
            assert_eq!(
                ids_in(&replayed, range),
                survivors
                    .iter()
                    .filter(|e| e.mbr.intersects(range))
                    .map(|e| e.id)
                    .collect::<std::collections::BTreeSet<u64>>()
                    .into_iter()
                    .collect::<Vec<u64>>()
            );
        }
        // The reference: a fresh durable bulkload of the survivors.
        let mut reference = FlatDb::create_durable(flat_storage::MemStore::new(), options).unwrap();
        reference.build_from(survivors).unwrap();

        // Both sessions hold the fresh bulkload's index pages under its
        // descriptor, and every other page is free. (Replay frees outside
        // a batch, so its inserts may grow the store before the compaction
        // folds them away: those pages are free. The pages the crashed
        // session allocated for the lost versions are freed by recovery.)
        let fresh_index = reference.index();
        let fresh = settled_index_pages(reference);
        for (name, db) in [("committed", db), ("replayed", replayed)] {
            assert_eq!(db.index(), fresh_index, "{name}: descriptors differ");
            let pages = settled_index_pages(db);
            for id in fresh.keys() {
                assert!(pages.contains_key(id), "{name}: page {id} is missing");
            }
            for (id, page) in &pages {
                match fresh.get(id) {
                    Some(fresh) => assert!(page == fresh, "{name}: page {id} differs"),
                    None => panic!("{name}: page {id} is allocated but not free"),
                }
            }
        }
    }

    #[test]
    fn a_recovered_database_folds_away_writes_that_netted_out() {
        // Every inserted partition is deleted again before the checkpoint:
        // no live delta partition and no tombstone is left, but retired
        // records are. The session that made the writes
        // compacts them away; a session recovered from the checkpoint must
        // compact to exactly the same index pages.
        let options = updatable_options().with_durability(Durability::Wal);
        let fresh: Vec<Entry> = random_entries(400, 41)
            .into_iter()
            .map(|e| Entry::new(e.id + 1_000_000, e.mbr))
            .collect();
        let ids: Vec<u64> = fresh.iter().map(|e| e.id).collect();
        let session = || {
            let mut db = FlatDb::create_durable(flat_storage::MemStore::new(), options).unwrap();
            db.build_from(random_entries(2_000, 40)).unwrap();
            {
                let mut writer = db.writer().unwrap();
                writer.insert(fresh.clone()).unwrap();
                assert_eq!(writer.delete(&ids).unwrap(), ids.len());
                assert_eq!(writer.delta().num_delta_partitions(), 0);
                assert_eq!(writer.delta().num_tombstones(), 0);
            }
            db.checkpoint().unwrap();
            db
        };
        let compacted = |db: FlatDb<flat_storage::MemStore>| {
            db.writer().unwrap().compact().unwrap();
            settled_index_pages(db)
        };
        let original = compacted(session());
        let (reopened, report) = FlatDb::open_durable(session().into_store(), options).unwrap();
        assert_eq!(report.replayed, 0, "the checkpoint truncated the log");
        let recovered = compacted(reopened);
        assert_eq!(
            original.keys().collect::<Vec<_>>(),
            recovered.keys().collect::<Vec<_>>(),
            "index page ids differ"
        );
        let differ: Vec<&u64> = original
            .iter()
            .filter(|&(id, page)| page != &recovered[id])
            .map(|(id, _)| id)
            .collect();
        assert!(differ.is_empty(), "index pages {differ:?} differ");
    }

    #[test]
    fn reopening_reads_each_live_object_page_once() {
        let options = updatable_options().with_durability(Durability::Wal);
        let mut db = FlatDb::create_durable(flat_storage::MemStore::new(), options).unwrap();
        db.build_from(random_entries(3_000, 42)).unwrap();
        {
            let mut writer = db.writer().unwrap();
            for batch in 0..3u64 {
                let fresh = random_entries(300, 43 + batch)
                    .into_iter()
                    .map(|e| Entry::new(e.id + 1_000_000 * (batch + 1), e.mbr));
                writer.insert(fresh.collect()).unwrap();
            }
            let doomed: Vec<u64> = (0..3_000).step_by(5).collect();
            writer.delete(&doomed).unwrap();
        }
        db.checkpoint().unwrap();
        let delta = db.delta().unwrap();
        assert_eq!(delta.tiers().len(), 2, "a stack of two tiers");
        let live_pages = delta.num_live_partitions() as u64;

        // The residency scan reads every live object page, base and delta,
        // exactly once: one read gives a delta page's MBR, live count and
        // locator entries.
        let (db, report) = FlatDb::open_durable(db.into_store(), options).unwrap();
        assert_eq!(report.replayed, 0, "the checkpoint truncated the log");
        let reads = db.io_stats().kind(PageKind::ObjectPage).logical_reads;
        assert_eq!(reads, live_pages);
        assert_eq!(db.delta().unwrap().num_live_partitions() as u64, live_pages);
        db.check_invariants().unwrap();
    }

    /// Checkpoints a durable database and unwraps its store: every page
    /// but the header, the log's pages and the free pages, by id.
    fn settled_index_pages(
        mut db: FlatDb<flat_storage::MemStore>,
    ) -> std::collections::BTreeMap<u64, Page> {
        db.checkpoint().unwrap();
        let store = db.into_store();
        let mut header = Page::new();
        store.read_page(PageId(0), &mut header).unwrap();
        let slots = [PageId(header.get_u64(16)), PageId(header.get_u64(24))];
        let (log, _, _) = flat_storage::wal::Wal::open(&store, slots).unwrap();
        let skipped: HashSet<PageId> = (log.pages().into_iter())
            .chain([PageId(0)])
            .chain(store.free_pages())
            .collect();
        (0..store.num_pages())
            .map(PageId)
            .filter(|id| !skipped.contains(id))
            .map(|id| {
                let mut page = Page::new();
                store.read_page(id, &mut page).unwrap();
                (id.0, page)
            })
            .collect()
    }
}
