//! Sharded serving layer: K spatial shards, each a [`FlatDb`] whose page
//! cache has its own I/O workers.
//!
//! [`ShardedDb`] partitions the domain into K coarse x-slabs with the same
//! STR machinery as Algorithm 1 ([`crate::partition::shard_regions`]).
//! Each shard *contains* a full [`FlatDb`] — a page store, the shared
//! cache with [`ShardOptions::scheduler`] I/O workers (submission queue,
//! read coalescing, announced reads) behind a [`VersionedPool`], and the
//! index with its whole session
//! protocol (snapshots, writer batches, atomic publish) — so shards never
//! contend on a buffer pool or a store mutex, and I/O for K shards
//! proceeds on K independent worker pools. This module is only the
//! router: slab cuts, the id → owner table, coverage routing, the
//! cross-shard merges and the database-level subscription registry.
//!
//! Every shard's index is built over the **global** domain: FLAT's crawl
//! is exhaustive only when the partition tiling covers the whole space a
//! query may probe, and queries routinely span several shard slabs. The
//! slab only decides *ownership* (which elements a shard stores); the
//! shard's own tiling then stretches over the full domain exactly as a
//! single index over clustered data would.
//!
//! Query routing tests the shard's *coverage* — its slab tile stretched to
//! contain every owned element — so an element MBR straddling a slab
//! boundary is still found through the one shard that owns it. Coverage
//! is a superset bound: it grows *before* the insert that needs it
//! commits and never shrinks, so a box read at any moment contains every
//! element published by then.
//!
//! * **Range queries** fan out to the shards whose coverage intersects the
//!   query and concatenate the disjoint per-shard results (sorted by
//!   element id, so the merged order is deterministic).
//! * **kNN queries** run a global best-first merge: every shard is pinned
//!   *first*, in ascending shard order, so the merge sees one consistent
//!   frontier (per-shard epochs; a batch publishing mid-merge cannot move
//!   an element between the visited and unvisited sides). Shards are then
//!   visited in ascending order of their coverage's distance to the query
//!   point, each contributes its exact per-shard top-k stream, and the
//!   scan stops as soon as the next shard's lower bound exceeds the
//!   current k-th distance. Results are exact; ties are broken by
//!   `(dist_sq, id)` — element ids rather than the single-index physical
//!   `(page, slot)` order, which is not comparable across independently
//!   built shards.
//! * **Updates** route by a global id → shard owner table (populated at
//!   build, maintained by every insert and delete), and open a
//!   [`FlatDb::writer`] on **only the shards a batch actually touches** —
//!   read-only shards keep serving the cheaper pristine base-index crawl
//!   path.
//!
//! # Snapshots
//!
//! Queries never block on updates: a query takes a [`FlatDb::reader`]
//! snapshot of each shard it visits, pinning that shard's epoch, and
//! reads that version of every page while a concurrent batch
//! copy-on-writes new ones. Each shard publishes its batches atomically,
//! so a snapshot is always element-consistent per shard.

#![deny(
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable
)]

use crate::continuous::{ContinuousQueries, ContinuousQueryId, QueryDelta, StagedOp};
use crate::db::{
    lock_unpoisoned as lock, read_unpoisoned as read, write_unpoisoned as write, DbOptions, FlatDb,
    Snapshot,
};
use crate::delta::DeltaReport;
use crate::durable::DbStore;
use crate::error::FlatError;
use crate::index::FlatOptions;
use crate::join::{JoinEngine, JoinResult, JoinStats};
use crate::knn::Neighbor;
use crate::partition::shard_regions;
use flat_geom::{Aabb, Point3};
use flat_rtree::{Entry, Hit, LeafLayout};
use flat_storage::{
    ConcurrentBufferPool, IoStats, MemStore, PageStore, SchedulerConfig, SchedulerStats,
    VersionStats, VersionedPool,
};
use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, RwLock};

/// Options for [`ShardedDb::build`].
#[derive(Debug, Clone, Copy)]
pub struct ShardOptions {
    /// Per-shard index build options. The layout must be
    /// [`LeafLayout::WithIds`] (cross-shard merging needs stable
    /// application ids); the domain, if left `None`, defaults to the union
    /// of the element MBRs and is then fixed for the life of the database.
    pub index: FlatOptions,
    /// Buffer-pool capacity (pages) of **each** shard's cache.
    pub pool_pages: usize,
    /// I/O workers of each shard's cache (`workers: 0` fetches misses on
    /// the querying thread).
    pub scheduler: SchedulerConfig,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            index: FlatOptions {
                layout: LeafLayout::WithIds,
                ..FlatOptions::default()
            },
            pool_pages: 1 << 14,
            scheduler: SchedulerConfig::default(),
        }
    }
}

struct Shard<S: PageStore + Send + Sync + 'static> {
    db: FlatDb<S>,
    /// Slab tile stretched to contain every owned element — what query
    /// routing tests. Grows, before the commit, when inserts land
    /// outside it (see the module docs).
    coverage: RwLock<Aabb>,
}

/// A shard pinned for a cross-shard merge, with its routing bound.
type PinnedShard<'a, S> = (Snapshot<'a, S>, Aabb);

impl<S: PageStore + Send + Sync + 'static> Shard<S> {
    fn coverage(&self) -> Aabb {
        *read(&self.coverage)
    }

    /// Pins the shard, *then* reads its coverage: the box only grows, and
    /// grows ahead of the commit it covers, so it bounds the snapshot.
    fn pinned(&self) -> PinnedShard<'_, S> {
        let snapshot = self.db.reader();
        (snapshot, self.coverage())
    }
}

/// K spatial shards, each a [`FlatDb`] over its own store and cache with
/// its own I/O workers, with cross-shard query routing and a global exact
/// kNN merge.
///
/// All query and update entry points take `&self`. Queries are
/// **wait-free with respect to updates**: they pin the shard's epoch and
/// read the published snapshot, so a shard mid-batch keeps answering from
/// its pre-batch version. Updates serialize per shard on the shard's
/// writer session; reads of different shards never contend. A query
/// overlapping an in-flight multi-shard update may see some shards before
/// and some after it, exactly like independent databases would — except
/// kNN, which pins every shard up front and merges one consistent
/// frontier.
///
/// ```
/// use flat_core::{ShardOptions, ShardedDb};
/// use flat_geom::{Aabb, Point3};
/// use flat_rtree::Entry;
///
/// let entries: Vec<Entry> = (0..2000)
///     .map(|i| Entry::new(i, Aabb::cube(Point3::splat((i % 100) as f64), 1.0)))
///     .collect();
/// let db = ShardedDb::build_in_memory(4, entries, ShardOptions::default()).unwrap();
/// let hits = db.range_query(&Aabb::cube(Point3::splat(50.0), 3.0)).unwrap();
/// assert!(!hits.is_empty());
/// let nn = db.knn_query(Point3::splat(10.0), 5).unwrap();
/// assert_eq!(nn.len(), 5);
/// ```
pub struct ShardedDb<S: PageStore + Send + Sync + 'static> {
    shards: Vec<Shard<S>>,
    /// Upper x-bound of each shard's slab except the last: element centers
    /// in `[cuts[i-1], cuts[i])` route to shard `i`.
    cuts: Vec<f64>,
    domain: Aabb,
    /// Global id → owning shard, populated at build and maintained by
    /// every insert and delete. Routes deletes and liveness checks
    /// without promoting read-only shards.
    owners: RwLock<HashMap<u64, u32>>,
    /// Top-level continuous-query registry. The mutex is held across a
    /// whole multi-shard [`ShardedDb::insert`] / [`ShardedDb::delete`]
    /// call and across subscription registration, so update calls are
    /// serialized and each subscriber sees exactly one merged delta per
    /// call that commits — stamped with a database-level commit
    /// sequence, since the per-shard page epochs advance independently.
    subs: Mutex<ShardSubs>,
}

/// The sharded layer's subscription state: the registry plus the
/// db-level commit sequence its deltas are stamped with.
#[derive(Default)]
struct ShardSubs {
    registry: ContinuousQueries,
    seq: u64,
}

impl ShardSubs {
    /// Delivers one delta for what an update call committed: all of it,
    /// or the shards before the one that failed.
    fn deliver(&mut self, committed: StagedOp) {
        self.seq += 1;
        self.registry.apply_batch(&[committed], self.seq);
    }
}

impl<S: PageStore + Send + Sync + 'static> ShardedDb<S> {
    /// Bulk-loads `num_shards` shards from `entries`, calling
    /// `store_factory(i)` for shard `i`'s backing store.
    ///
    /// Element ids must be unique across the whole build (they are the
    /// merge key). The layout must be [`LeafLayout::WithIds`].
    pub fn build(
        num_shards: usize,
        entries: Vec<Entry>,
        mut options: ShardOptions,
        mut store_factory: impl FnMut(usize) -> S,
    ) -> Result<ShardedDb<S>, FlatError> {
        if num_shards == 0 {
            return Err(FlatError::Build("at least one shard is required".into()));
        }
        if options.index.layout != LeafLayout::WithIds {
            return Err(FlatError::Build(
                "sharded serving requires LeafLayout::WithIds: cross-shard \
                 merging and id-routed deletes need stable application ids"
                    .into(),
            ));
        }
        let domain = match options.index.domain {
            Some(d) => d,
            None if entries.is_empty() => {
                return Err(FlatError::Build(
                    "an empty build requires an explicit domain".into(),
                ));
            }
            None => Aabb::union_all(entries.iter().map(|e| e.mbr)),
        };
        options.index.domain = Some(domain);
        let db_options = DbOptions {
            index: options.index,
            pool_pages: options.pool_pages,
            ..DbOptions::default()
        };
        db_options.check()?;

        let regions = shard_regions(entries, num_shards, &domain);
        let cuts = regions
            .iter()
            .take(num_shards - 1)
            .map(|r| r.tile.max.x)
            .collect();
        let mut owners = HashMap::new();
        let shards = regions
            .into_iter()
            .enumerate()
            .map(|(i, region)| {
                owners.extend(region.elements.iter().map(|e| (e.id, i as u32)));
                let store = DbStore::Plain(store_factory(i));
                let cache =
                    ConcurrentBufferPool::with_config(store, options.pool_pages, options.scheduler);
                let mut db = FlatDb::with_pool(VersionedPool::from_cache(cache), db_options);
                db.build_from(region.elements)?;
                // The build wrote through the cache; serving starts cold,
                // as the measurement protocol demands.
                db.clear_cache();
                Ok(Shard {
                    db,
                    coverage: RwLock::new(region.coverage),
                })
            })
            .collect::<Result<Vec<_>, FlatError>>()?;
        Ok(ShardedDb {
            shards,
            cuts,
            domain,
            owners: RwLock::new(owners),
            subs: Mutex::new(ShardSubs::default()),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The fixed domain every shard's tiling covers.
    pub fn domain(&self) -> Aabb {
        self.domain
    }

    /// Shard `i`'s current coverage box (routing bound).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn shard_coverage(&self, i: usize) -> Aabb {
        self.shards[i].coverage()
    }

    /// True while shard `i` still serves the pristine bulkload — no
    /// update has touched it, so queries take the cheaper base-index
    /// crawl path (promotion is lazy and per shard).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn shard_is_base(&self, i: usize) -> bool {
        self.shards[i].db.delta().is_none()
    }

    /// Shard `i`'s versioning counters (per-shard epochs).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn shard_version_stats(&self, i: usize) -> VersionStats {
        self.shards[i].db.version_stats()
    }

    /// Live elements across all shards.
    pub fn num_live_elements(&self) -> u64 {
        self.shards.iter().map(|s| s.db.num_live_elements()).sum()
    }

    /// Runs [`FlatDb::check_invariants`] on every shard, in shard order
    /// (`None` for a shard still on its pristine bulkload).
    pub fn check_invariants(&self) -> Result<Vec<Option<DeltaReport>>, String> {
        self.shards
            .iter()
            .map(|s| s.db.check_invariants())
            .collect()
    }

    /// Aggregated I/O statistics across all shard pools.
    pub fn io_stats(&self) -> IoStats {
        let mut out = IoStats::default();
        for s in &self.shards {
            out.accumulate(&s.db.io_stats());
        }
        out
    }

    /// Aggregated scheduler statistics across all shard pools (latency
    /// means weight every shard equally; queue maxima are maxima over
    /// shards).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        let mut out = SchedulerStats::default();
        for s in &self.shards {
            out.accumulate(&s.db.cache().scheduler_stats());
        }
        out
    }

    /// Drops every cached page in every shard (the paper's cold-cache
    /// protocol).
    pub fn clear_cache(&self) {
        for s in &self.shards {
            s.db.clear_cache();
        }
    }

    /// Zeroes I/O and scheduler statistics in every shard.
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.db.reset_stats();
            s.db.cache().reset_scheduler_stats();
        }
    }

    /// The shards whose coverage intersects `query` — the only ones a
    /// range-shaped query pins.
    fn covering<'a>(&'a self, query: &'a Aabb) -> impl Iterator<Item = &'a Shard<S>> {
        self.shards
            .iter()
            .filter(move |s| s.coverage().intersects(query))
    }

    /// Pins every shard, in ascending shard order, before any is read.
    fn pin_all(&self) -> Vec<PinnedShard<'_, S>> {
        self.shards.iter().map(Shard::pinned).collect()
    }

    /// Evaluates a range query: seed + crawl on every shard whose coverage
    /// intersects `query`, merged and sorted by element id (shards hold
    /// disjoint elements, so the merge is a plain concatenation). Each
    /// shard answers from its pinned snapshot — a concurrent batch on any
    /// shard neither blocks the query nor leaks partial effects into it.
    pub fn range_query(&self, query: &Aabb) -> Result<Vec<Hit>, FlatError> {
        let mut hits = Vec::new();
        for shard in self.covering(query) {
            hits.append(&mut shard.db.reader().range(query)?);
        }
        hits.sort_unstable_by_key(|h| h.id);
        Ok(hits)
    }

    /// Counts the live elements intersecting `query` without
    /// materializing them: shards whose coverage misses the box are
    /// skipped outright, the rest take the per-shard containment
    /// early-exit ([`crate::Snapshot::aggregate_count`]). Shards hold
    /// disjoint elements, so the fan-out sum is exact.
    pub fn aggregate_count(&self, query: &Aabb) -> Result<u64, FlatError> {
        let mut total = 0;
        for shard in self.covering(query) {
            total += shard.db.reader().aggregate_count(query)?;
        }
        Ok(total)
    }

    /// Live elements intersecting `query` per unit volume (0.0 for a
    /// degenerate box).
    pub fn aggregate_density(&self, query: &Aabb) -> Result<f64, FlatError> {
        let volume = query.volume();
        if volume <= 0.0 {
            return Ok(0.0);
        }
        Ok(self.aggregate_count(query)? as f64 / volume)
    }

    /// Joins this database (outer side) against another sharded
    /// database: every `(outer id, inner id)` element pair within
    /// Euclidean distance `eps`, via [`Snapshot::join`]'s link-graph
    /// co-crawl, fanned out over the shard pairs whose coverage boxes
    /// are within `eps` of each other. Shards hold disjoint elements,
    /// so each result pair is produced by exactly one shard pair and
    /// the merge is a plain sort. A negative or non-finite `eps` is a
    /// [`FlatError::Query`].
    pub fn join<S2: PageStore + Send + Sync + 'static>(
        &self,
        other: &ShardedDb<S2>,
        eps: f64,
    ) -> Result<JoinResult, FlatError> {
        // Rejected up front: a NaN would slip past the coverage prune
        // below, and a bad distance must not depend on shard geometry.
        JoinEngine::checked(eps)?;
        let eps2 = eps * eps;
        let mut pairs = Vec::new();
        let mut stats = JoinStats::default();
        let inner_shards = other.pin_all();
        for (outer, outer_coverage) in self.pin_all() {
            for (inner, inner_coverage) in &inner_shards {
                if outer_coverage.distance_sq(inner_coverage) > eps2 {
                    continue;
                }
                let result = outer.join(inner, eps)?;
                stats.absorb(&result.stats);
                pairs.extend(result.pairs);
            }
        }
        pairs.sort_unstable();
        stats.pairs = pairs.len() as u64;
        Ok(JoinResult { pairs, stats })
    }

    /// Registers a continuous range query: returns its handle plus the
    /// baseline result (ids intersecting `range` right now, ascending).
    /// Every later [`ShardedDb::insert`] / [`ShardedDb::delete`] call
    /// that commits on any shard appends exactly one merged
    /// [`QueryDelta`] — the net effect of what it committed across all
    /// shards — stamped with a database-level commit sequence (per-shard
    /// page epochs advance independently, so they cannot order
    /// cross-shard batches).
    pub fn subscribe(&self, range: Aabb) -> Result<(ContinuousQueryId, Vec<u64>), FlatError> {
        // The registry mutex is held across every update call, so the
        // baseline query cannot observe half of one.
        let mut subs = lock(&self.subs);
        let baseline: Vec<u64> = self
            .range_query(&range)?
            .into_iter()
            .map(|h| h.id)
            .collect();
        let id = subs.registry.register(range, baseline.iter().copied());
        Ok((id, baseline))
    }

    /// Drains the undelivered [`QueryDelta`]s of a subscription, oldest
    /// first — one per update call committed since the last poll.
    pub fn poll_changes(&self, id: ContinuousQueryId) -> Result<Vec<QueryDelta>, FlatError> {
        lock(&self.subs)
            .registry
            .poll(id)
            .ok_or_else(|| FlatError::Query(format!("unknown continuous query {id:?}")))
    }

    /// The subscription's current result set, ascending: the baseline
    /// plus every committed delta (including ones not yet polled).
    pub fn continuous_result(&self, id: ContinuousQueryId) -> Result<Vec<u64>, FlatError> {
        lock(&self.subs)
            .registry
            .result(id)
            .ok_or_else(|| FlatError::Query(format!("unknown continuous query {id:?}")))
    }

    /// Drops a subscription; delivery stops immediately. `false` if the
    /// handle was unknown (already dropped).
    pub fn unsubscribe(&self, id: ContinuousQueryId) -> bool {
        lock(&self.subs).registry.unregister(id)
    }

    /// Returns the `k` elements nearest to `point` across all shards,
    /// ascending, exact.
    ///
    /// Every shard is pinned first (ascending shard order), so the merge
    /// runs over one consistent frontier; shards are then visited
    /// best-first by the distance from `point` to their coverage box, and
    /// the scan stops once the next shard's lower bound exceeds the
    /// current k-th distance. Ties are broken by `(dist_sq, id)` (see the
    /// module docs).
    pub fn knn_query(&self, point: Point3, k: usize) -> Result<Vec<Neighbor>, FlatError> {
        if k == 0 {
            return Ok(Vec::new());
        }
        // Pin all shards before reading any: the frontier the merge
        // bounds against is one epoch vector, not a moving target.
        let mut order: Vec<(f64, usize, Snapshot<'_, S>)> = self
            .pin_all()
            .into_iter()
            .enumerate()
            .map(|(i, (snapshot, coverage))| (coverage.distance_sq_to_point(&point), i, snapshot))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        // Running top-k, ascending by `(dist_sq, id)`: each visited shard
        // adds at most k candidates, then the list is cut back to k.
        let mut best: Vec<Neighbor> = Vec::new();
        for (lower_bound, _, snapshot) in &order {
            if best.len() == k && best.last().is_some_and(|kth| *lower_bound > kth.dist_sq) {
                break;
            }
            best.extend(snapshot.knn(point, k)?);
            best.sort_by(|a, b| {
                a.dist_sq
                    .total_cmp(&b.dist_sq)
                    .then(a.hit.id.cmp(&b.hit.id))
            });
            best.truncate(k);
        }
        Ok(best)
    }

    /// Inserts `entries`, routing each by its center's x coordinate along
    /// the slab cuts. Only the shards that receive elements are promoted
    /// to the delta layer.
    ///
    /// Returns [`FlatError::Update`] — before anything is written — if an
    /// id is already live in any shard or repeated within `entries`, and
    /// whatever error a shard's commit returns. Shards commit one after
    /// another in ascending order, so a failing shard leaves the shards
    /// before it committed; subscribers then get one delta for exactly
    /// those shards' elements before the error is returned (none if no
    /// shard committed), so a subscription keeps equalling the range
    /// query. A shard whose batch failed mid-apply refuses further writes
    /// with [`FlatError::Update`] (see [`FlatDb::writer`]) while the
    /// other shards, and all queries, carry on.
    pub fn insert(&self, entries: Vec<Entry>) -> Result<(), FlatError> {
        if entries.is_empty() {
            return Ok(());
        }
        // Held across the whole multi-shard apply: update calls are
        // serialized, subscribers see the call as one batch, and a
        // registration cannot interleave with a half-applied insert
        // (see the `subs` field docs).
        let mut subs = lock(&self.subs);
        {
            let owners = read(&self.owners);
            let mut batch_ids = HashSet::with_capacity(entries.len());
            for e in &entries {
                if owners.contains_key(&e.id) || !batch_ids.insert(e.id) {
                    return Err(FlatError::Update(format!(
                        "insert of id {} which is already live or repeated in the batch",
                        e.id
                    )));
                }
            }
        }
        let mut routed: Vec<Vec<Entry>> = self.shards.iter().map(|_| Vec::new()).collect();
        for e in entries {
            routed[self.route(e.mbr.center().x)].push(e);
        }
        let mut committed: Vec<(u64, Aabb)> = Vec::new();
        let mut result = Ok(());
        for (i, (shard, batch)) in self.shards.iter().zip(routed).enumerate() {
            if batch.is_empty() {
                continue;
            }
            let staged: Vec<(u64, Aabb)> = batch.iter().map(|e| (e.id, e.mbr)).collect();
            // Grow the routing bound first: a query that sees the new
            // elements must already be routed to them, and a failed
            // commit leaves the bound harmlessly wide.
            {
                let mut coverage = write(&shard.coverage);
                *coverage = coverage.union(&Aabb::union_all(batch.iter().map(|e| e.mbr)));
            }
            if let Err(e) = shard.db.writer().and_then(|mut w| w.insert(batch)) {
                result = Err(e);
                break;
            }
            write(&self.owners).extend(staged.iter().map(|&(id, _)| (id, i as u32)));
            committed.extend(staged);
        }
        if result.is_ok() || !committed.is_empty() {
            subs.deliver(StagedOp::Insert(committed));
        }
        result
    }

    /// Deletes elements by application id, returning how many were live.
    /// Ids are routed by the global owner table, so only the shards that
    /// actually own one of `ids` are touched (and promoted, if still
    /// pristine); unknown ids are ignored. Shard failures surface as in
    /// [`ShardedDb::insert`].
    pub fn delete(&self, ids: &[u64]) -> Result<usize, FlatError> {
        if ids.is_empty() {
            return Ok(0);
        }
        // Same batching discipline as `insert` (see the `subs` docs).
        let mut subs = lock(&self.subs);
        let mut routed: Vec<Vec<u64>> = self.shards.iter().map(|_| Vec::new()).collect();
        {
            let owners = read(&self.owners);
            for &id in ids {
                if let Some(&s) = owners.get(&id) {
                    routed[s as usize].push(id);
                }
            }
        }
        let mut deleted = 0;
        let mut committed: Vec<u64> = Vec::new();
        let mut result = Ok(());
        for (shard, owned) in self.shards.iter().zip(routed) {
            if owned.is_empty() {
                continue;
            }
            match shard.db.writer().and_then(|mut w| w.delete(&owned)) {
                Ok(n) => deleted += n,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            let mut owners = write(&self.owners);
            for id in &owned {
                owners.remove(id);
            }
            committed.extend(owned);
        }
        // A call that matched no live id still commits (an empty delta).
        if result.is_ok() || !committed.is_empty() {
            subs.deliver(StagedOp::Delete(committed));
        }
        result.map(|()| deleted)
    }

    /// Routes an element center to its owning shard.
    fn route(&self, x: f64) -> usize {
        self.cuts.partition_point(|&c| c <= x)
    }
}

impl ShardedDb<MemStore> {
    /// [`ShardedDb::build`] with a fresh in-memory store per shard.
    pub fn build_in_memory(
        num_shards: usize,
        entries: Vec<Entry>,
        options: ShardOptions,
    ) -> Result<ShardedDb<MemStore>, FlatError> {
        ShardedDb::build(num_shards, entries, options, |_| MemStore::new())
    }
}

impl<S: PageStore + Send + Sync + 'static> std::fmt::Debug for ShardedDb<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDb")
            .field("num_shards", &self.shards.len())
            .field("domain", &self.domain)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
#[allow(
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable
)]
mod tests {
    use super::*;
    use flat_geom::Point3;
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
                Entry::new(i as u64, Aabb::centered(c, Point3::splat(0.5)))
            })
            .collect()
    }

    fn reference_range(entries: &[Entry], query: &Aabb) -> Vec<u64> {
        let mut ids: Vec<u64> = entries
            .iter()
            .filter(|e| e.mbr.intersects(query))
            .map(|e| e.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn reference_knn(entries: &[Entry], point: Point3, k: usize) -> Vec<(f64, u64)> {
        let mut all: Vec<(f64, u64)> = entries
            .iter()
            .map(|e| (e.mbr.distance_sq_to_point(&point), e.id))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    #[test]
    fn sharded_range_matches_brute_force_across_shard_counts() {
        let entries = random_entries(3000, 21);
        let mut rng = StdRng::seed_from_u64(22);
        for k in [1, 2, 3, 4] {
            let db =
                ShardedDb::build_in_memory(k, entries.clone(), ShardOptions::default()).unwrap();
            for _ in 0..25 {
                let c = Point3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                let q = Aabb::cube(c, rng.gen_range(1.0..12.0));
                let got: Vec<u64> = db.range_query(&q).unwrap().iter().map(|h| h.id).collect();
                assert_eq!(got, reference_range(&entries, &q), "k={k} query {q:?}");
            }
        }
    }

    #[test]
    fn sharded_knn_is_exact_across_shard_counts() {
        let entries = random_entries(2500, 23);
        let mut rng = StdRng::seed_from_u64(24);
        for shards in [1, 2, 4] {
            let db = ShardedDb::build_in_memory(shards, entries.clone(), ShardOptions::default())
                .unwrap();
            for _ in 0..20 {
                let p = Point3::new(
                    rng.gen_range(-10.0..110.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                let k = rng.gen_range(1..40);
                let got: Vec<(f64, u64)> = db
                    .knn_query(p, k)
                    .unwrap()
                    .iter()
                    .map(|n| (n.dist_sq, n.hit.id))
                    .collect();
                assert_eq!(got, reference_knn(&entries, p, k), "shards={shards}");
            }
        }
    }

    #[test]
    fn inserts_and_deletes_route_and_merge() {
        let entries = random_entries(1200, 25);
        let db = ShardedDb::build_in_memory(3, entries.clone(), ShardOptions::default()).unwrap();
        assert_eq!(db.num_live_elements(), 1200);

        // Insert a fresh batch spanning the whole x range.
        let fresh: Vec<Entry> = (0..60)
            .map(|i| {
                Entry::new(
                    10_000 + i,
                    Aabb::cube(Point3::new(i as f64 * 1.6 + 1.0, 50.0, 50.0), 0.4),
                )
            })
            .collect();
        db.insert(fresh.clone()).unwrap();
        assert_eq!(db.num_live_elements(), 1260);
        let mut live: Vec<Entry> = entries.clone();
        live.extend(fresh.iter().cloned());
        let q = Aabb::new(Point3::new(0.0, 45.0, 45.0), Point3::new(100.0, 55.0, 55.0));
        let got: Vec<u64> = db.range_query(&q).unwrap().iter().map(|h| h.id).collect();
        assert_eq!(got, reference_range(&live, &q));

        // Re-inserting a live id is refused.
        let err = db
            .insert(vec![Entry::new(
                10_000,
                Aabb::cube(Point3::splat(5.0), 1.0),
            )])
            .unwrap_err();
        assert!(matches!(err, FlatError::Update(_)));

        // Delete half the fresh batch plus some originals; unknown ids ignored.
        let mut doomed: Vec<u64> = (0..30).map(|i| 10_000 + i).collect();
        doomed.extend([0, 1, 2, 999_999]);
        assert_eq!(db.delete(&doomed).unwrap(), 33);
        assert_eq!(db.num_live_elements(), 1227);
        live.retain(|e| !doomed.contains(&e.id));
        let got: Vec<u64> = db.range_query(&q).unwrap().iter().map(|h| h.id).collect();
        assert_eq!(got, reference_range(&live, &q));

        // kNN over the updated set stays exact.
        let p = Point3::new(40.0, 50.0, 50.0);
        let got: Vec<(f64, u64)> = db
            .knn_query(p, 15)
            .unwrap()
            .iter()
            .map(|n| (n.dist_sq, n.hit.id))
            .collect();
        assert_eq!(got, reference_knn(&live, p, 15));
    }

    #[test]
    fn duplicate_ids_are_typed_errors_and_write_nothing() {
        // 3 shards over x ∈ [0, 90): slabs of 30.
        let entries: Vec<Entry> = (0..900)
            .map(|i| {
                let x = (i % 90) as f64 + 0.5;
                Entry::new(i, Aabb::cube(Point3::new(x, 50.0, 50.0), 0.4))
            })
            .collect();
        let db = ShardedDb::build_in_memory(3, entries, ShardOptions::default()).unwrap();
        let at = |id: u64, x: f64| Entry::new(id, Aabb::cube(Point3::new(x, 50.0, 50.0), 0.4));
        for batch in [
            // Repeated within one shard's slice of the batch.
            vec![at(5_000, 10.0), at(5_000, 11.0)],
            // Repeated across two shards' slices.
            vec![at(5_000, 10.0), at(5_001, 45.0), at(5_000, 80.0)],
            // Live in shard 0 (id 3 sits at x = 3.5), routed to shard 2.
            vec![at(5_000, 10.0), at(3, 80.0)],
        ] {
            let err = db.insert(batch).unwrap_err();
            assert!(matches!(err, FlatError::Update(_)), "{err}");
        }
        // Rejected before any shard was touched.
        assert!((0..3).all(|i| db.shard_is_base(i)));
        assert_eq!(db.num_live_elements(), 900);
    }

    #[test]
    fn promotion_is_lazy_and_per_shard() {
        // 3 shards over x ∈ [0, 90): updates that touch only one slab
        // must leave the other shards on the pristine base-index path.
        let entries: Vec<Entry> = (0..900)
            .map(|i| {
                let x = (i % 90) as f64 + 0.5;
                Entry::new(i, Aabb::cube(Point3::new(x, 50.0, 50.0), 0.4))
            })
            .collect();
        let db = ShardedDb::build_in_memory(3, entries.clone(), ShardOptions::default()).unwrap();
        assert!((0..3).all(|i| db.shard_is_base(i)));

        // An insert routed entirely into the leftmost slab.
        db.insert(vec![Entry::new(
            10_000,
            Aabb::cube(Point3::new(2.0, 50.0, 50.0), 0.4),
        )])
        .unwrap();
        assert!(!db.shard_is_base(0), "touched shard promotes");
        assert!(
            db.shard_is_base(1) && db.shard_is_base(2),
            "others stay base"
        );

        // Deleting ids owned by the rightmost shard promotes only it.
        let victim = entries
            .iter()
            .map(|e| e.id)
            .find(|&id| {
                let x = (id % 90) as f64 + 0.5;
                x >= db.shard_coverage(2).min.x
            })
            .unwrap();
        assert_eq!(db.delete(&[victim]).unwrap(), 1);
        assert!(!db.shard_is_base(2));
        assert!(db.shard_is_base(1), "untouched shard still base");

        // Unknown ids touch (and promote) nothing.
        assert_eq!(db.delete(&[999_999_999]).unwrap(), 0);
        assert!(db.shard_is_base(1));

        // Queries stay exact across the mixed base/delta fleet, and the
        // touched shards carry their own epochs.
        let mut live = entries;
        live.push(Entry::new(
            10_000,
            Aabb::cube(Point3::new(2.0, 50.0, 50.0), 0.4),
        ));
        live.retain(|e| e.id != victim);
        let q = Aabb::new(Point3::new(0.0, 45.0, 45.0), Point3::new(90.0, 55.0, 55.0));
        let got: Vec<u64> = db.range_query(&q).unwrap().iter().map(|h| h.id).collect();
        assert_eq!(got, reference_range(&live, &q));
        assert_eq!(db.shard_version_stats(0).epoch, 1);
        assert_eq!(db.shard_version_stats(1).epoch, 0);
        assert_eq!(db.shard_version_stats(2).epoch, 1);
    }

    #[test]
    fn inserts_outside_coverage_grow_the_routing_bound() {
        let entries: Vec<Entry> = (0..400)
            .map(|i| Entry::new(i, Aabb::cube(Point3::splat(40.0 + (i % 20) as f64), 0.5)))
            .collect();
        let mut options = ShardOptions::default();
        options.index.domain = Some(Aabb::new(Point3::splat(0.0), Point3::splat(200.0)));
        let db = ShardedDb::build_in_memory(2, entries, options).unwrap();
        // Far outside every element, inside the domain.
        let outlier = Entry::new(9999, Aabb::cube(Point3::splat(190.0), 1.0));
        db.insert(vec![outlier]).unwrap();
        let q = Aabb::cube(Point3::splat(190.0), 2.0);
        let got: Vec<u64> = db.range_query(&q).unwrap().iter().map(|h| h.id).collect();
        assert_eq!(got, vec![9999]);
        let nn = db.knn_query(Point3::splat(195.0), 1).unwrap();
        assert_eq!(nn[0].hit.id, 9999);
    }

    #[test]
    fn build_rejects_mbr_only_layout_and_zero_shards() {
        let entries = random_entries(50, 26);
        let mut options = ShardOptions::default();
        options.index.layout = LeafLayout::MbrOnly;
        assert!(matches!(
            ShardedDb::build_in_memory(2, entries.clone(), options),
            Err(FlatError::Build(_))
        ));
        assert!(matches!(
            ShardedDb::build_in_memory(0, entries, ShardOptions::default()),
            Err(FlatError::Build(_))
        ));
        assert!(matches!(
            ShardedDb::build_in_memory(2, Vec::new(), ShardOptions::default()),
            Err(FlatError::Build(_))
        ));
    }

    #[test]
    fn empty_build_with_domain_accepts_updates() {
        let mut options = ShardOptions::default();
        options.index.domain = Some(Aabb::new(Point3::splat(0.0), Point3::splat(10.0)));
        let db = ShardedDb::build_in_memory(3, Vec::new(), options).unwrap();
        assert_eq!(db.num_live_elements(), 0);
        assert!(db
            .range_query(&Aabb::cube(Point3::splat(5.0), 5.0))
            .unwrap()
            .is_empty());
        db.insert(vec![
            Entry::new(1, Aabb::cube(Point3::splat(2.0), 0.5)),
            Entry::new(2, Aabb::cube(Point3::splat(8.0), 0.5)),
        ])
        .unwrap();
        assert_eq!(db.num_live_elements(), 2);
        let nn = db.knn_query(Point3::splat(7.0), 1).unwrap();
        assert_eq!(nn[0].hit.id, 2);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let entries = random_entries(2000, 27);
        let db = ShardedDb::build_in_memory(4, entries, ShardOptions::default()).unwrap();
        db.clear_cache();
        db.reset_stats();
        let before = db.io_stats();
        assert_eq!(before.total_physical_reads(), 0);
        db.range_query(&Aabb::cube(Point3::splat(50.0), 20.0))
            .unwrap();
        let after = db.io_stats();
        assert!(after.total_physical_reads() > 0);
        let sched = db.scheduler_stats();
        assert!(sched.demand_completed > 0);
        assert_eq!(db.num_shards(), 4);
    }

    #[test]
    fn concurrent_mixed_traffic_stays_consistent() {
        let entries = random_entries(1500, 28);
        let mut options = ShardOptions::default();
        options.index.domain = Some(Aabb::new(
            Point3::new(-10.0, -10.0, -10.0),
            Point3::splat(110.0),
        ));
        let db =
            std::sync::Arc::new(ShardedDb::build_in_memory(4, entries.clone(), options).unwrap());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let db = db.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t);
                let mut hits = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let c = Point3::new(
                        rng.gen_range(0.0..100.0),
                        rng.gen_range(0.0..100.0),
                        rng.gen_range(0.0..100.0),
                    );
                    hits += db.range_query(&Aabb::cube(c, 5.0)).unwrap().len();
                    hits += db.knn_query(c, 5).unwrap().len();
                }
                hits
            }));
        }
        // Updater: insert then delete disjoint scratch ids, concurrent
        // with the snapshot readers above.
        for round in 0..20u64 {
            let base = 1_000_000 + round * 100;
            let batch: Vec<Entry> = (0..50)
                .map(|i| {
                    Entry::new(
                        base + i,
                        Aabb::cube(Point3::splat((base + i) as f64 % 100.0), 0.5),
                    )
                })
                .collect();
            db.insert(batch).unwrap();
            let ids: Vec<u64> = (0..50).map(|i| base + i).collect();
            assert_eq!(db.delete(&ids).unwrap(), 50);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.num_live_elements(), 1500);
    }

    #[test]
    fn sharded_aggregates_match_range_counts_across_shards() {
        let entries = random_entries(2_000, 71);
        let db = ShardedDb::build_in_memory(4, entries.clone(), ShardOptions::default()).unwrap();
        for half in [4.0, 15.0, 60.0] {
            let q = Aabb::cube(Point3::splat(50.0), half);
            assert_eq!(
                db.aggregate_count(&q).unwrap(),
                reference_range(&entries, &q).len() as u64,
                "half={half}"
            );
            let density = db.aggregate_density(&q).unwrap();
            let expected = db.aggregate_count(&q).unwrap() as f64 / q.volume();
            assert!((density - expected).abs() < 1e-12);
        }
        // Degenerate box: zero density by definition.
        let flat_box = Aabb::new(Point3::splat(10.0), Point3::new(20.0, 10.0, 10.0));
        assert_eq!(db.aggregate_density(&flat_box).unwrap(), 0.0);
    }

    #[test]
    fn sharded_join_matches_brute_force_and_covers_shard_pairs() {
        let a = random_entries(1_200, 72);
        let mut b = random_entries(900, 73);
        for e in &mut b {
            e.id += 500_000;
        }
        let db_a = ShardedDb::build_in_memory(4, a.clone(), ShardOptions::default()).unwrap();
        let db_b = ShardedDb::build_in_memory(3, b.clone(), ShardOptions::default()).unwrap();
        let eps = 2.0;
        let mut expected = Vec::new();
        for ea in &a {
            for eb in &b {
                if ea.mbr.distance_sq(&eb.mbr) <= eps * eps {
                    expected.push((ea.id, eb.id));
                }
            }
        }
        expected.sort_unstable();
        let result = db_a.join(&db_b, eps).unwrap();
        assert_eq!(result.pairs, expected);
        assert_eq!(result.stats.pairs, expected.len() as u64);
        // Elements straddle every slab boundary at eps 2.0, so the
        // fan-out must have crawled more than the diagonal shard pairs.
        assert!(result.stats.outer_partitions > 0);
    }

    #[test]
    fn sharded_continuous_queries_merge_per_update_call() {
        let entries = random_entries(1_500, 74);
        let db = ShardedDb::build_in_memory(3, entries.clone(), ShardOptions::default()).unwrap();
        let range = Aabb::cube(Point3::splat(50.0), 25.0);
        let (sub, baseline) = db.subscribe(range).unwrap();
        assert_eq!(baseline, reference_range(&entries, &range));

        // One insert call spanning several shards: some ids in range,
        // some out. Exactly one merged delta.
        let fresh: Vec<Entry> = (0..40)
            .map(|i| {
                let x = (i as f64) * 2.5 + 1.0; // spread across all slabs
                Entry::new(700_000 + i, Aabb::cube(Point3::new(x, 50.0, 50.0), 0.4))
            })
            .collect();
        db.insert(fresh.clone()).unwrap();
        let deltas = db.poll_changes(sub).unwrap();
        assert_eq!(deltas.len(), 1, "one merged delta per insert call");
        let expected_added: Vec<u64> = fresh
            .iter()
            .filter(|e| e.mbr.intersects(&range))
            .map(|e| e.id)
            .collect();
        assert_eq!(deltas[0].added, expected_added);
        assert!(deltas[0].removed.is_empty());

        // One delete call: in-range ids report as removals, unknown ids
        // and out-of-range ids are silent.
        let victims = [baseline[0], baseline[1], 999_999_999];
        db.delete(&victims).unwrap();
        let deltas = db.poll_changes(sub).unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].removed, vec![baseline[0], baseline[1]]);
        assert!(deltas[0].epoch > 0, "db-level sequence advances");

        // The tracked result matches a fresh range query.
        let fresh_query: Vec<u64> = db
            .range_query(&range)
            .unwrap()
            .iter()
            .map(|h| h.id)
            .collect();
        assert_eq!(db.continuous_result(sub).unwrap(), fresh_query);
        assert!(db.unsubscribe(sub));
        assert!(db.poll_changes(sub).is_err());
    }
}
