//! The parts of the page cache that are not about sharing: per-kind I/O
//! accounting ([`IoStats`], [`KindStats`] and the atomic counters behind
//! them) and the recency bookkeeping of one lock shard (`CacheState`). The
//! cache itself is [`crate::ConcurrentBufferPool`].
//!
//! Each shard is one LRU list under one rule: a fetched or written page
//! lands at the hot end, a read of a page that holds elements (an object
//! page or an R-tree leaf) moves it to the cold end, and every other read
//! moves its page to the hot end. A query reads each element page once but
//! rereads the seed tree and the metadata pages it shares with the next
//! query, so the element page it has just used is the next victim, not the
//! directory page it will read again. A shard that never fills evicts
//! nothing, and the rule changes nothing there.

use crate::{Page, PageId, PageKind, PAGE_SIZE};
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
/// cache are atomic, so snapshots can be taken from `&self` at any time,
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
/// The cache records every access here with relaxed atomics — counting
/// from `&self` is what lets [`crate::ConcurrentBufferPool::stats`] and the
/// whole query path work without `&mut`. Snapshots come out as plain
/// [`IoStats`] values.
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

/// The recency bookkeeping of one cache: id → slot map plus an intrusive
/// doubly-linked recency list over a slot slab, evicted from the tail (see
/// the module docs for where a read puts its page). A
/// [`crate::ConcurrentBufferPool`] keeps one per lock shard, each behind a
/// `Mutex`.
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

    /// Links `slot` at the tail (the next victim).
    fn link_back(&mut self, slot: usize) {
        self.slots[slot].prev = self.tail;
        self.slots[slot].next = NIL;
        if self.tail != NIL {
            self.slots[self.tail].next = slot;
        }
        self.tail = slot;
        if self.head == NIL {
            self.head = slot;
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

    /// Moves `slot` to the tail of the LRU list: it is the next victim.
    pub(crate) fn demote(&mut self, slot: usize) {
        if self.tail == slot {
            return;
        }
        self.unlink(slot);
        self.link_back(slot);
    }

    /// The recency rule of a read of the page in `slot`: a page that holds
    /// elements ([`PageKind::holds_elements`]) goes to the cold end, every
    /// other page to the hot end.
    pub(crate) fn read(&mut self, slot: usize, kind: PageKind) {
        if kind.holds_elements() {
            self.demote(slot);
        } else {
            self.touch(slot);
        }
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
