//! Trace replay for the page cache: a [`PageRead`] wrapper that records
//! every logical read, and the replacement rules that trace is replayed
//! under — the cache's own rule, plain LRU (lock-sharded as the cache is,
//! and global), and Belady's MIN, the fewest misses any rule could get.
//!
//! A recorded trace is one serial order of reads. Replaying it bounds what
//! a cache of that many frames can do with those reads; it is not the
//! concurrent run, where clients interleave and fetches land while other
//! reads go on.
//!
//! Shared by `tests/cache_policy.rs` (the regression test) and
//! `examples/cache_policy.rs` (the ledger tool), each using a subset.
#![allow(dead_code)]

use flat_benchmark::inputs::{Dataset, Op};
use flat_repro::prelude::*;
use flat_repro::storage::StorageError;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

/// Lock shards of a `ConcurrentBufferPool`: page `p` lives in shard
/// `p mod 16`.
pub const LOCK_SHARDS: usize = 16;

/// A [`PageRead`] that logs `(page, kind)` for every read and forwards it.
pub struct Recorder<P> {
    inner: P,
    trace: Mutex<Vec<(PageId, PageKind)>>,
}

impl<P: PageRead> Recorder<P> {
    pub fn new(inner: P) -> Recorder<P> {
        Recorder {
            inner,
            trace: Mutex::new(Vec::new()),
        }
    }

    /// The reads so far, in the order they were issued.
    pub fn into_trace(self) -> Vec<(PageId, PageKind)> {
        self.trace.into_inner().expect("no reader panicked")
    }
}

impl<P: PageRead> PageRead for Recorder<P> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        self.trace
            .lock()
            .expect("no reader panicked")
            .push((id, kind));
        self.inner.read_page(id, kind)
    }

    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        self.inner.want_pages(pages)
    }
}

/// What [`record`] saw.
pub struct Recording {
    /// Every logical read of the script, in order.
    pub trace: Vec<(PageId, PageKind)>,
    /// Pages of the bulkload.
    pub index_pages: u64,
    /// Capacity of the cache the script ran through.
    pub capacity: usize,
    /// That cache's misses.
    pub cache: PerKind,
}

/// Bulkloads `data` (stable ids, fixed domain: the options a `FlatDb` or
/// a `ShardedDb` shard builds with), then runs `ops` one after another
/// through a [`Recorder`] over a cold zero-worker cache of
/// `frames(index pages)` pages.
pub fn record(data: &Dataset, ops: &[Op], frames: impl FnOnce(u64) -> usize) -> Recording {
    let options = DbOptions::updatable(data.domain).index;
    let mut build = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(&mut build, data.entries.clone(), options).expect("bulkload");
    let store = build.into_store();
    let index_pages = store.num_pages() - store.num_free();
    let capacity = frames(index_pages);
    let pool = ConcurrentBufferPool::new(store, capacity);
    let recorder = Recorder::new(&pool);
    for op in ops {
        match *op {
            Op::Range(_, ref query) => drop(index.range_query(&recorder, query).expect("range")),
            Op::Knn(point, k) => drop(index.knn_query(&recorder, point, k).expect("kNN")),
            Op::Agg(_) => panic!("the replayed scripts hold no aggregates"),
        }
    }
    let stats = pool.stats();
    Recording {
        trace: recorder.into_trace(),
        index_pages,
        capacity,
        cache: PerKind(PageKind::ALL.map(|kind| stats.kind(kind).physical_reads)),
    }
}

/// Counts per [`PageKind`], in [`PageKind::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerKind([u64; 6]);

impl PerKind {
    pub fn of(&self, kind: PageKind) -> u64 {
        self.0[slot(kind)]
    }

    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    fn add(&mut self, kind: PageKind) {
        self.0[slot(kind)] += 1;
    }
}

fn slot(kind: PageKind) -> usize {
    PageKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL")
}

/// Logical reads per kind.
pub fn reads(trace: &[(PageId, PageKind)]) -> PerKind {
    let mut out = PerKind::default();
    for &(_, kind) in trace {
        out.add(kind);
    }
    out
}

/// Distinct pages per kind.
pub fn distinct(trace: &[(PageId, PageKind)]) -> PerKind {
    let mut kinds = HashMap::new();
    for &(id, kind) in trace {
        kinds.entry(id).or_insert(kind);
    }
    let mut out = PerKind::default();
    for kind in kinds.into_values() {
        out.add(kind);
    }
    out
}

/// Frames per lock shard of a cache of `capacity` pages, as
/// `ConcurrentBufferPool::new` splits them.
pub fn shard_frames(capacity: usize) -> usize {
    capacity.div_ceil(LOCK_SHARDS).max(1)
}

/// One LRU list: pages ordered by a stamp, the smallest evicted first. A
/// page placed hot takes a stamp above every other, one placed cold a
/// stamp below every other.
struct Lru {
    frames: usize,
    stamps: HashMap<PageId, i64>,
    order: BTreeMap<i64, PageId>,
    hot: i64,
    cold: i64,
}

impl Lru {
    fn new(frames: usize) -> Lru {
        Lru {
            frames,
            stamps: HashMap::new(),
            order: BTreeMap::new(),
            hot: 0,
            cold: 0,
        }
    }

    /// Reads `id`, then places it at the cold end if `cold`, else at the
    /// hot end. Returns whether the read missed.
    fn read(&mut self, id: PageId, cold: bool) -> bool {
        let miss = match self.stamps.remove(&id) {
            Some(stamp) => {
                self.order.remove(&stamp);
                false
            }
            None => {
                if self.stamps.len() >= self.frames {
                    let (_, victim) = self.order.pop_first().expect("a full list");
                    self.stamps.remove(&victim);
                }
                true
            }
        };
        let stamp = if cold {
            self.cold -= 1;
            self.cold
        } else {
            self.hot += 1;
            self.hot
        };
        self.stamps.insert(id, stamp);
        self.order.insert(stamp, id);
        miss
    }
}

/// Misses of `lists` LRU lists of `frames` each (page `p` in list
/// `p mod lists`), where a read of a page for which `cold(kind)` holds
/// places it at the cold end.
fn replay_lru(
    trace: &[(PageId, PageKind)],
    lists: usize,
    frames: usize,
    cold: impl Fn(PageKind) -> bool,
) -> PerKind {
    let mut shards: Vec<Lru> = (0..lists).map(|_| Lru::new(frames)).collect();
    let mut misses = PerKind::default();
    for &(id, kind) in trace {
        if shards[id.0 as usize % lists].read(id, cold(kind)) {
            misses.add(kind);
        }
    }
    misses
}

/// Plain LRU in each of the 16 lock shards of a cache of `capacity` pages
/// — the rule before element pages went cold.
pub fn sharded_lru(trace: &[(PageId, PageKind)], capacity: usize) -> PerKind {
    replay_lru(trace, LOCK_SHARDS, shard_frames(capacity), |_| false)
}

/// Plain LRU over one list holding as many frames as the 16 shards
/// together.
pub fn global_lru(trace: &[(PageId, PageKind)], capacity: usize) -> PerKind {
    replay_lru(trace, 1, LOCK_SHARDS * shard_frames(capacity), |_| false)
}

/// The cache's rule, shard by shard: a read sends an object page or an
/// R-tree leaf to the cold end, any other page to the hot end.
pub fn elements_cold(trace: &[(PageId, PageKind)], capacity: usize) -> PerKind {
    replay_lru(trace, LOCK_SHARDS, shard_frames(capacity), |kind| {
        matches!(kind, PageKind::ObjectPage | PageKind::RTreeLeaf)
    })
}

/// Belady's MIN in each lock shard: on a miss into a full shard, the page
/// whose next read lies furthest ahead leaves — the missed page itself if
/// no resident page is read later than it. No rule over the same shards
/// and frames misses less.
pub fn min(trace: &[(PageId, PageKind)], capacity: usize) -> PerKind {
    let frames = shard_frames(capacity);
    // next[i]: position of the next read of trace[i]'s page (MAX: none).
    let mut next = vec![usize::MAX; trace.len()];
    let mut later: HashMap<PageId, usize> = HashMap::new();
    for (i, &(id, _)) in trace.iter().enumerate().rev() {
        if let Some(j) = later.insert(id, i) {
            next[i] = j;
        }
    }
    // Per shard: each resident page's next read, and the same ordered.
    let mut resident: Vec<HashMap<PageId, usize>> = vec![HashMap::new(); LOCK_SHARDS];
    let mut by_next: Vec<BTreeSet<(usize, PageId)>> = vec![BTreeSet::new(); LOCK_SHARDS];
    let mut misses = PerKind::default();
    for (i, &(id, kind)) in trace.iter().enumerate() {
        let shard = id.0 as usize % LOCK_SHARDS;
        let (resident, by_next) = (&mut resident[shard], &mut by_next[shard]);
        match resident.get_mut(&id) {
            Some(at) => {
                by_next.remove(&(*at, id));
                *at = next[i];
                by_next.insert((next[i], id));
            }
            None => {
                misses.add(kind);
                if resident.len() >= frames {
                    let &(furthest, victim) = by_next.last().expect("a full shard");
                    if furthest <= next[i] {
                        continue; // the missed page goes at once
                    }
                    by_next.pop_last();
                    resident.remove(&victim);
                }
                resident.insert(id, next[i]);
                by_next.insert((next[i], id));
            }
        }
    }
    misses
}
