//! The read path: one index view ([`IndexRef`]), the seed phase and the
//! breadth-first crawl kernel (§V-B.1 and §VI, Algorithm 2).
//!
//! Every query verb is written once against [`IndexRef`] — a pristine
//! bulkload, or a bulkload plus its delta layer — and every traversal that
//! drains a BFS queue is `IndexRef::crawl_step`, specialised by a
//! [`CrawlVisitor`]: range queries materialise hits (here), aggregates
//! count (`aggregate.rs`), joins collect ε-pruned candidates and the
//! partner frontier (`join.rs`). kNN (`knn.rs`) is a best-first traversal
//! with a moving bound — a different algorithm, not another copy — and
//! shares the view, the link walker ([`walk_links`]) and the live-entry
//! page scan ([`LivePage`]).
//!
//! Metadata records and object pages are read in place, never decoded
//! into owned values: [`read_record`] hands out a view over the shared
//! cached page (see [`crate::meta`]) whose neighbor pointers are read off
//! the bytes as they are followed, and [`LivePage`] scans entries where
//! they lie. The crawl's seen-set hashes with [`AddrHasher`]. A warm
//! query therefore allocates only for its result, queue, seen-set and
//! wave scratch, which grow geometrically with the crawl rather than once
//! per record (`tests/alloc_free_crawl.rs` holds that to a budget).

use crate::delta::{DeltaIndex, PartState};
use crate::index::FlatIndex;
use crate::meta::{meta_leaf_len, MetaRecordId, MetaView};
use flat_geom::Aabb;
use flat_rtree::node::{decode_inner, leaf_entry, leaf_header};
use flat_rtree::{Hit, LeafLayout};
use flat_storage::{Page, PageId, PageKind, PageRead, StorageError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative hash (the Fx constant) behind every set and map
/// keyed by a page address: record addresses and `(page, slot)`
/// locations. Those keys are written by the index itself, never chosen by
/// a caller, so SipHash's protection against crafted collisions buys
/// nothing, and the tables are only probed, never iterated in an order
/// anything depends on.
#[derive(Default, Clone, Copy)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(byte.into());
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash set keyed by page addresses ([`AddrHasher`]).
pub(crate) type AddrSet<T> = HashSet<T, BuildHasherDefault<AddrHasher>>;

/// A hash map keyed by page addresses ([`AddrHasher`]).
pub(crate) type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;

/// Deleted-element set of a [`DeltaIndex`], keyed by physical location
/// `(object page, slot)` — the one identity that stays valid under both
/// leaf layouts and across delete-then-reinsert of the same application id.
pub(crate) type Tombstones = AddrSet<(PageId, u16)>;

/// Any index the read path understands: the single view every query verb
/// (range, kNN, aggregate, join) is written against. A delta layer lives
/// in the same page graph as its base, so the two differ only in what
/// this type's accessors answer: which elements are tombstoned, which
/// partitions sit outside the seed tree, and whether live counts are
/// resident.
///
/// As a join side ([`crate::JoinInput`]) both sides may be the same index:
/// a self-join reports self-pairs `(x, x)` and both orientations of every
/// other pair.
#[derive(Clone, Copy)]
pub enum IndexRef<'a> {
    /// A bulkloaded, immutable index.
    Flat(&'a FlatIndex),
    /// An updatable index; tombstoned elements and retired partitions
    /// are invisible to every query.
    Delta(&'a DeltaIndex),
}

impl<'a> From<&'a FlatIndex> for IndexRef<'a> {
    fn from(index: &'a FlatIndex) -> Self {
        IndexRef::Flat(index)
    }
}

impl<'a> From<&'a DeltaIndex> for IndexRef<'a> {
    fn from(delta: &'a DeltaIndex) -> Self {
        IndexRef::Delta(delta)
    }
}

/// Resident summary of one live partition: what the join's outer sweep
/// needs without touching the metadata pages again.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartSummary {
    /// The partition's object page.
    pub(crate) object_page: PageId,
    /// Tight MBR of the partition's own elements.
    pub(crate) page_mbr: Aabb,
}

/// Per-query counters (the CPU/bookkeeping side of §VII-E.2; the I/O side
/// is in the pool's [`flat_storage::IoStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Elements returned.
    pub result_count: u64,
    /// Metadata records dequeued and processed by the crawl.
    pub records_processed: u64,
    /// Object pages read (logically) across both phases.
    pub object_pages_read: u64,
    /// Object pages probed by the seed phase before one with a matching
    /// element was found.
    pub seed_probe_pages: u64,
    /// High-water mark of the BFS queue — the paper reports the crawl's
    /// bookkeeping at "0.9 % of the size of the result set".
    pub max_queue_len: usize,
    /// Total records ever enqueued (size of the visited/seen set).
    pub records_seen: u64,
    /// MBR–query intersection tests performed.
    pub mbr_tests: u64,
}

impl QueryStats {
    /// Approximate bytes of crawl bookkeeping (queue + visited set), the
    /// quantity §VII-E.2 relates to the result-set size.
    pub fn bookkeeping_bytes(&self) -> u64 {
        let record_ref = std::mem::size_of::<MetaRecordId>() as u64;
        self.records_seen * record_ref + self.max_queue_len as u64 * record_ref
    }
}

/// Reads the metadata record at `addr` in place (one logical metadata
/// read; the view shares the cached page).
pub(crate) fn read_record(
    pool: &impl PageRead,
    addr: MetaRecordId,
) -> Result<MetaView, StorageError> {
    MetaView::new(pool.read_page(addr.page, PageKind::SeedLeaf)?, addr.slot)
}

/// Hands `visit` every chunk of `record`'s neighbor list in order: the
/// record itself, then each continuation chunk. Over-full lists spill into
/// continuation records (see [`crate::meta`]); following the chain is
/// charged like any other metadata read.
pub(crate) fn walk_links(
    pool: &impl PageRead,
    record: &MetaView,
    mut visit: impl FnMut(&MetaView) -> Result<(), StorageError>,
) -> Result<(), StorageError> {
    visit(record)?;
    let mut next = record.continuation;
    while let Some(addr) = next {
        let chunk = read_record(pool, addr)?;
        visit(&chunk)?;
        next = chunk.continuation;
    }
    Ok(())
}

/// One object page seen through the tombstone filter — the only place
/// live entries are enumerated and `MbrOnly` ids are synthesized. A view:
/// it holds the page the cache handed out and reads each live entry in
/// place ([`leaf_entry`]) as it is asked for, so a scan copies and
/// allocates nothing.
pub(crate) struct LivePage<'t> {
    id: PageId,
    page: Page,
    layout: LeafLayout,
    slots: usize,
    tombstones: Option<&'t Tombstones>,
}

impl<'t> LivePage<'t> {
    /// Reads object page `id` (one logical object read).
    pub(crate) fn read(
        pool: &impl PageRead,
        id: PageId,
        tombstones: Option<&'t Tombstones>,
    ) -> Result<LivePage<'t>, StorageError> {
        let page = pool.read_page(id, PageKind::ObjectPage)?;
        let (layout, slots) = leaf_header(&page)?;
        Ok(LivePage {
            id,
            page,
            layout,
            slots,
            tombstones,
        })
    }

    /// Slots on the page, tombstoned ones included — what an
    /// element-by-element scan tests.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// The live elements in slot order, as queries report them.
    pub(crate) fn hits(&self) -> impl Iterator<Item = Hit> + '_ {
        let id = self.id;
        (0..self.slots)
            .filter(move |&slot| {
                self.tombstones
                    .is_none_or(|t| !t.contains(&(id, slot as u16)))
            })
            .map(move |slot| {
                let entry = leaf_entry(&self.page, self.layout, slot);
                Hit {
                    mbr: entry.mbr,
                    id: match self.layout {
                        LeafLayout::MbrOnly => (id.0 << 16) | entry.id,
                        LeafLayout::WithIds => entry.id,
                    },
                    page: id,
                    slot: slot as u16,
                }
            })
    }
}

/// What one workload does at each record of a crawl. The kernel
/// (`IndexRef::crawl_step`) owns the traversal — queue, seen-set, waves,
/// announcements, dead records, tombstones, continuation chains — and is
/// monomorphised per visitor, so a visitor costs what writing its loop by
/// hand would.
pub(crate) trait CrawlVisitor {
    /// A record left the queue, which held `queue_len` records counting it.
    fn dequeued(&mut self, queue_len: usize);

    /// Will this (live) record's object page be scanned? Asked once per
    /// record, for a whole wave before any of its object pages is read, so
    /// the answers can be announced to the pool together.
    fn wants_object(&mut self, addr: MetaRecordId, record: &MetaView) -> bool;

    /// Scans an object page that was wanted, in queue order.
    fn scan(&mut self, record: &MetaView, page: &LivePage<'_>);

    /// Will this record's neighbor links be followed?
    fn expands(&mut self, addr: MetaRecordId, record: &MetaView) -> bool;
}

/// The range query's visitor: materialises the intersecting live elements
/// and keeps the paper's counters.
pub(crate) struct RangeVisit<'q> {
    pub(crate) query: &'q Aabb,
    pub(crate) stats: &'q mut QueryStats,
    pub(crate) hits: &'q mut Vec<Hit>,
}

impl CrawlVisitor for RangeVisit<'_> {
    fn dequeued(&mut self, queue_len: usize) {
        self.stats.max_queue_len = self.stats.max_queue_len.max(queue_len);
        self.stats.records_processed += 1;
    }

    /// "the object page is only read from disk if M's page MBR intersects
    /// with the query" (§VI).
    fn wants_object(&mut self, _addr: MetaRecordId, record: &MetaView) -> bool {
        self.stats.mbr_tests += 1;
        record.page_mbr.intersects(self.query)
    }

    fn scan(&mut self, _record: &MetaView, page: &LivePage<'_>) {
        self.stats.object_pages_read += 1;
        self.stats.mbr_tests += page.slots() as u64;
        let query = self.query;
        self.hits
            .extend(page.hits().filter(|hit| query.intersects(&hit.mbr)));
    }

    /// "the neighbor pointers stored in a metadata record M are only
    /// followed if M's partition MBR intersects with the query" (§VI).
    fn expands(&mut self, _addr: MetaRecordId, record: &MetaView) -> bool {
        self.stats.mbr_tests += 1;
        record.partition_mbr.intersects(self.query)
    }
}

impl<'a> IndexRef<'a> {
    /// The bulkload descriptor (the delta layer's base).
    pub(crate) fn base(self) -> &'a FlatIndex {
        match self {
            IndexRef::Flat(index) => index,
            IndexRef::Delta(delta) => delta.base(),
        }
    }

    fn delta(self) -> Option<&'a DeltaIndex> {
        match self {
            IndexRef::Flat(_) => None,
            IndexRef::Delta(delta) => Some(delta),
        }
    }

    /// The deleted-element set every scan filters by (`None`: nothing is
    /// deleted).
    pub(crate) fn tombstones(self) -> Option<&'a Tombstones> {
        self.delta().map(DeltaIndex::tombstones)
    }

    /// Live partitions inserted since the bulkload: in the link graph but
    /// not in the seed tree, so both seed phases probe their resident
    /// summaries.
    pub(crate) fn delta_parts(self) -> impl Iterator<Item = &'a PartState> {
        let parts = self.delta().map_or(&[][..], DeltaIndex::delta_parts);
        parts.iter().filter(|part| !part.dead)
    }

    /// Resident live-element count of the partition whose primary record
    /// is at `addr`, when the index keeps one (the delta layer): the
    /// aggregate's containment early-exit reads it instead of the page.
    pub(crate) fn live_count_at(self, addr: MetaRecordId) -> Option<u64> {
        self.delta()?.live_count_at(addr)
    }

    /// Live (non-deleted) elements.
    pub(crate) fn num_live_elements(self) -> u64 {
        self.delta()
            .map_or(self.base().num_elements(), DeltaIndex::num_live_elements)
    }

    /// Live-partition summaries in storage order, for the join's outer
    /// sweep. A pristine index reads them off its metadata pages in
    /// page-id order — for an STR bulkload the tiling's creation order,
    /// the spatial coherence the sweep's frontier reuse depends on.
    pub(crate) fn summaries(self, pool: &impl PageRead) -> Result<Vec<PartSummary>, StorageError> {
        let summary = |object_page, page_mbr| PartSummary {
            object_page,
            page_mbr,
        };
        if let Some(delta) = self.delta() {
            let live = delta.parts().iter().filter(|part| !part.dead);
            return Ok(live.map(|p| summary(p.object_page, p.page_mbr)).collect());
        }
        let mut out = Vec::new();
        for leaf in self.base().seed_tree_pages(pool)?.leaves {
            let page = pool.read_page(leaf, PageKind::SeedLeaf)?;
            for slot in 0..meta_leaf_len(&page)? as u16 {
                let record = MetaView::new(page.clone(), slot)?;
                if !record.is_continuation && !record.is_dead {
                    out.push(summary(record.object_page, record.page_mbr));
                }
            }
        }
        Ok(out)
    }

    /// Evaluates a range query: seed phase, then the breadth-first crawl.
    pub(crate) fn range_query_with_stats(
        self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut QueryStats,
    ) -> Result<Vec<Hit>, StorageError> {
        let mut hits = Vec::new();
        // "If no object page can be found, then the query has no result"
        // (§V-B.1).
        if let Some(seed) = self.seed(pool, query, stats)? {
            let mut state = CrawlState::start(seed);
            let mut visit = RangeVisit {
                query,
                stats,
                hits: &mut hits,
            };
            self.crawl(pool, &mut state, &mut visit)?;
            stats.records_seen = state.records_seen();
        }
        stats.result_count = hits.len() as u64;
        Ok(hits)
    }

    /// The seed phase (§V-B.1): walk a single path of the seed tree
    /// (early-exit DFS), reading candidate object pages until one actually
    /// contains a live element intersecting the query; partitions outside
    /// the tree (the delta layer's) are probed from their resident
    /// summaries after it. Tombstoned elements do not count, and retired
    /// (dead) records are never entry points — their object pages are
    /// freed.
    pub(crate) fn seed(
        self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut QueryStats,
    ) -> Result<Option<MetaRecordId>, StorageError> {
        let tombstones = self.tombstones();
        // Checks one candidate object page for a real element.
        let probe = |object_page: PageId, stats: &mut QueryStats| {
            stats.object_pages_read += 1;
            let page = LivePage::read(pool, object_page, tombstones)?;
            stats.mbr_tests += page.slots() as u64;
            let found = page.hits().any(|hit| query.intersects(&hit.mbr));
            if !found {
                stats.seed_probe_pages += 1;
            }
            Ok::<bool, StorageError>(found)
        };
        let base = self.base();
        let mut stack: Vec<(PageId, u32)> = Vec::new();
        stack.extend(base.seed_root.map(|root| (root, base.seed_height)));
        while let Some((page_id, level)) = stack.pop() {
            if level == 1 {
                // A metadata leaf: probe its records.
                let leaf = pool.read_page(page_id, PageKind::SeedLeaf)?;
                for slot in 0..meta_leaf_len(&leaf)? as u16 {
                    let record = MetaView::new(leaf.clone(), slot)?;
                    // Continuation chunks are not crawl entry points: a
                    // crawl seeded mid-chain would only reach the tail of
                    // the over-full neighbor list. Dead records have no
                    // object page at all.
                    if record.is_continuation || record.is_dead {
                        continue;
                    }
                    stats.mbr_tests += 1;
                    if record.page_mbr.intersects(query) && probe(record.object_page, stats)? {
                        return Ok(Some(MetaRecordId {
                            page: page_id,
                            slot,
                        }));
                    }
                }
            } else {
                let page = pool.read_page(page_id, PageKind::SeedInner)?;
                for child in decode_inner(&page)? {
                    stats.mbr_tests += 1;
                    if query.intersects(&child.mbr) {
                        stack.push((child.page, level - 1));
                    }
                }
            }
        }
        for part in self.delta_parts() {
            stats.mbr_tests += 1;
            if part.page_mbr.intersects(query) && probe(part.object_page, stats)? {
                return Ok(Some(part.record));
            }
        }
        Ok(None)
    }

    /// Runs a seeded crawl to completion.
    pub(crate) fn crawl(
        self,
        pool: &impl PageRead,
        state: &mut CrawlState,
        visitor: &mut impl CrawlVisitor,
    ) -> Result<(), StorageError> {
        while !self.crawl_step(pool, state, visitor)? {}
        Ok(())
    }

    /// Runs one crawl turn — a **wave**: up to [`WAVE`] records drained from
    /// the front of the BFS queue and processed in queue order. Returns
    /// `true` when the crawl is finished. This is the only code that walks
    /// the link graph breadth-first; range, aggregate and join differ in
    /// their [`CrawlVisitor`] alone.
    ///
    /// A wave tells the pool about its reads before it blocks on any of
    /// them ([`PageRead::want_pages`]): first the wave's distinct metadata
    /// pages, then — once the records are read — the object pages the
    /// visitor wants. Both sets are certain reads, not guesses, so a pool
    /// that can overlap device fetches (a
    /// [`flat_storage::ConcurrentBufferPool`] with I/O workers) serves a
    /// wave in a few overlapped round trips instead of one per page; pools
    /// that cannot ignore the announcement.
    ///
    /// The wave changes *when* the pool hears about a page, nothing else.
    /// Records leave the queue in FIFO order and are scanned and expanded
    /// in that same order, and every expansion appends behind everything
    /// still queued, so the sequence of `seen.insert` calls — hence the
    /// queue contents, what the visitor is shown and in which order, and
    /// every counter it keeps — is that of processing one record per turn.
    /// The queue length a one-record turn would have observed when it
    /// popped record `i` of the wave is the rest of the wave plus what is
    /// queued behind it, which is what `dequeued` reports. Each record
    /// still costs one logical metadata read, each wanted object page one
    /// logical object read; only the order of reads inside a wave differs
    /// (metadata first), which a small LRU cache may notice as a handful of
    /// physical reads either way.
    ///
    /// Every caller loops this to completion ([`IndexRef::crawl`]).
    ///
    /// One deliberate fix to the paper's pseudocode: Algorithm 2 only
    /// inserts a page into `visited` when its page MBR intersects the
    /// query, which would let two mutually neighboring records with
    /// non-intersecting page MBRs (but intersecting partition MBRs)
    /// re-enqueue each other forever. We track *enqueued* records instead
    /// ("seen"), which preserves the intended I/O behaviour — every record
    /// is processed at most once, every object page read at most once —
    /// and guarantees termination.
    pub(crate) fn crawl_step<V: CrawlVisitor>(
        self,
        pool: &impl PageRead,
        state: &mut CrawlState,
        visitor: &mut V,
    ) -> Result<bool, StorageError> {
        let tombstones = self.tombstones();
        let CrawlState {
            queue,
            seen,
            wave,
            records,
            wants,
        } = state;
        wave.clear();
        wave.extend(queue.drain(..queue.len().min(WAVE)));

        // Metadata pages of the wave: announced together, then read one
        // record at a time (one logical read per record).
        wants.clear();
        for addr in wave.iter() {
            want_meta_page(wants, addr.page);
        }
        pool.want_pages(wants);
        records.clear();
        wants.clear();
        for &addr in wave.iter() {
            let record = read_record(pool, addr)?;
            let wanted = !record.is_dead && visitor.wants_object(addr, &record);
            if wanted {
                wants.push((record.object_page, PageKind::ObjectPage));
            }
            records.push((record, wanted));
        }
        pool.want_pages(wants);

        for (done, (&addr, (record, wanted))) in wave.iter().zip(records.drain(..)).enumerate() {
            visitor.dequeued(wave.len() - done + queue.len());
            // Retirement prunes every link to a dead record, so the crawl
            // can only land on one through a stale seed — never expand it
            // (its object page is freed).
            debug_assert!(!record.is_dead, "crawl reached a dead record");
            if record.is_dead {
                continue;
            }
            if wanted {
                visitor.scan(
                    &record,
                    &LivePage::read(pool, record.object_page, tombstones)?,
                );
            }
            if visitor.expands(addr, &record) {
                walk_links(pool, &record, |chunk| {
                    for neighbor in chunk.neighbors() {
                        if seen.insert(neighbor) {
                            queue.push_back(neighbor);
                        }
                    }
                    Ok(())
                })?;
            }
        }
        Ok(queue.is_empty())
    }
}

impl FlatIndex {
    /// Evaluates a range query: seed phase then breadth-first crawl.
    ///
    /// Queries are shared reads (`&self` on both the index and the pool):
    /// any [`PageRead`] implementation works, including a
    /// [`flat_storage::ConcurrentBufferPool`] serving many query threads
    /// over one index.
    pub fn range_query(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<Vec<Hit>, StorageError> {
        self.range_query_with_stats(pool, query, &mut QueryStats::default())
    }

    /// Like [`FlatIndex::range_query`], accumulating counters into `stats`.
    pub fn range_query_with_stats(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut QueryStats,
    ) -> Result<Vec<Hit>, StorageError> {
        IndexRef::Flat(self).range_query_with_stats(pool, query, stats)
    }

    /// Runs only the seed phase, returning the address of the seed record
    /// (for instrumentation and the seed-cost experiments).
    pub fn seed_only(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<Option<(PageId, u16)>, StorageError> {
        let seed = IndexRef::Flat(self).seed(pool, query, &mut QueryStats::default())?;
        Ok(seed.map(|r| (r.page, r.slot)))
    }
}

/// Adds metadata page `page` to an announcement unless it is already
/// listed. A linear scan: the lists are a wave long at most, and records
/// queued together mostly share pages.
pub(crate) fn want_meta_page(wants: &mut Vec<(PageId, PageKind)>, page: PageId) {
    if !wants.iter().any(|&(listed, _)| listed == page) {
        wants.push((page, PageKind::SeedLeaf));
    }
}

/// Records one crawl turn takes off the queue. Large enough that a wave's
/// fetches fill a device queue several times over (so the tail of one
/// batch of round trips overlaps the head of the next), small enough that
/// a wave's pages fit comfortably in the smallest caches in use.
const WAVE: usize = 32;

/// The resumable state of one crawl: the BFS queue and the visited
/// ("seen") set. Seeded through [`CrawlState::start`] or
/// [`CrawlState::enqueue`] and advanced one wave at a time by
/// `IndexRef::crawl_step`.
#[derive(Debug, Default)]
pub(crate) struct CrawlState {
    queue: VecDeque<MetaRecordId>,
    seen: AddrSet<MetaRecordId>,
    // Scratch of the wave in progress, kept here so a crawl allocates it
    // once: the drained addresses, their records (with whether the object
    // page is wanted), and the page list being announced.
    wave: Vec<MetaRecordId>,
    records: Vec<(MetaView, bool)>,
    wants: Vec<(PageId, PageKind)>,
}

impl CrawlState {
    /// A crawl about to process `seed` as its first record.
    pub(crate) fn start(seed: MetaRecordId) -> CrawlState {
        let mut state = CrawlState::default();
        state.enqueue(seed);
        state
    }

    /// Forgets the previous crawl, keeping its allocations for the next.
    pub(crate) fn clear(&mut self) {
        self.queue.clear();
        self.seen.clear();
    }

    /// Queues `addr` as an entry point unless the crawl has already seen it.
    pub(crate) fn enqueue(&mut self, addr: MetaRecordId) {
        if self.seen.insert(addr) {
            self.queue.push_back(addr);
        }
    }

    /// `true` when nothing is queued: the crawl is over, or not yet seeded.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Records ever enqueued (the size of the visited set).
    pub(crate) fn records_seen(&self) -> u64 {
        self.seen.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{FlatIndex, FlatOptions};
    use flat_geom::Point3;
    use flat_rtree::Entry;
    use flat_storage::{ConcurrentBufferPool, MemStore};
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
                Entry::new(i as u64, Aabb::cube(c, rng.gen_range(0.05..0.5)))
            })
            .collect()
    }

    fn brute_force(entries: &[Entry], q: &Aabb) -> Vec<Aabb> {
        let mut v: Vec<Aabb> = entries
            .iter()
            .filter(|e| q.intersects(&e.mbr))
            .map(|e| e.mbr)
            .collect();
        v.sort_by(|a, b| {
            a.min
                .x
                .total_cmp(&b.min.x)
                .then(a.min.y.total_cmp(&b.min.y))
                .then(
                    a.min
                        .z
                        .total_cmp(&b.min.z)
                        .then(a.max.x.total_cmp(&b.max.x)),
                )
        });
        v
    }

    fn build(
        n: usize,
        seed: u64,
        options: FlatOptions,
    ) -> (ConcurrentBufferPool<MemStore>, FlatIndex, Vec<Entry>) {
        let entries = random_entries(n, seed);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options).unwrap();
        (pool, index, entries)
    }

    #[test]
    fn flat_results_match_brute_force() {
        let (pool, index, entries) = build(20_000, 101, FlatOptions::default());
        for (c, side) in [(10.0, 4.0), (50.0, 15.0), (90.0, 2.0), (30.0, 40.0)] {
            let q = Aabb::cube(Point3::splat(c), side);
            let mut got: Vec<Aabb> = index
                .range_query(&pool, &q)
                .unwrap()
                .iter()
                .map(|h| h.mbr)
                .collect();
            got.sort_by(|a, b| {
                a.min
                    .x
                    .total_cmp(&b.min.x)
                    .then(a.min.y.total_cmp(&b.min.y))
                    .then(
                        a.min
                            .z
                            .total_cmp(&b.min.z)
                            .then(a.max.x.total_cmp(&b.max.x)),
                    )
            });
            assert_eq!(got, brute_force(&entries, &q), "query at {c} side {side}");
        }
    }

    #[test]
    fn empty_region_returns_nothing() {
        // Data only fills [0,100]³; query far outside the domain (the
        // tiling doesn't even cover it).
        let (pool, index, _) = build(5000, 103, FlatOptions::default());
        let q = Aabb::cube(Point3::splat(1000.0), 5.0);
        assert!(index.range_query(&pool, &q).unwrap().is_empty());
    }

    #[test]
    fn hole_inside_domain_returns_nothing_without_crashing() {
        // Two clusters with an empty corridor between them; a query inside
        // the corridor intersects tiles but no elements.
        let mut entries = Vec::new();
        let mut rng = StdRng::seed_from_u64(104);
        for i in 0..4000u64 {
            let x = if i % 2 == 0 {
                rng.gen_range(0.0..30.0)
            } else {
                rng.gen_range(70.0..100.0)
            };
            let c = Point3::new(x, rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            entries.push(Entry::new(i, Aabb::cube(c, 0.3)));
        }
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) =
            FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default()).unwrap();
        let q = Aabb::cube(Point3::new(50.0, 50.0, 50.0), 6.0);
        let expected = brute_force(&entries, &q);
        let got = index.range_query(&pool, &q).unwrap();
        assert_eq!(got.len(), expected.len());
    }

    #[test]
    fn crawl_crosses_concave_regions() {
        // The problem crawling approaches like DLS cannot handle (§II):
        // the query spans two disconnected clusters. FLAT's tiling must
        // bridge the gap because partitions tile the *space*, not the data.
        let mut entries = Vec::new();
        let mut rng = StdRng::seed_from_u64(105);
        for i in 0..3000u64 {
            let x = if i % 2 == 0 {
                rng.gen_range(0.0..20.0)
            } else {
                rng.gen_range(80.0..100.0)
            };
            let c = Point3::new(x, rng.gen_range(40.0..60.0), rng.gen_range(40.0..60.0));
            entries.push(Entry::new(i, Aabb::cube(c, 0.3)));
        }
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) =
            FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default()).unwrap();
        // Query spanning both clusters and the void between them.
        let q = Aabb::from_corners(Point3::new(10.0, 45.0, 45.0), Point3::new(90.0, 55.0, 55.0));
        let expected = brute_force(&entries, &q);
        let got = index.range_query(&pool, &q).unwrap();
        assert_eq!(
            got.len(),
            expected.len(),
            "crawl failed to cross the concave gap"
        );
        assert!(!got.is_empty());
    }

    #[test]
    fn whole_domain_query_returns_everything_once() {
        let (pool, index, entries) = build(10_000, 106, FlatOptions::default());
        let q = Aabb::cube(Point3::splat(50.0), 250.0);
        let hits = index.range_query(&pool, &q).unwrap();
        assert_eq!(hits.len(), entries.len());
        let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), entries.len(), "duplicate results");
    }

    #[test]
    fn stats_reflect_the_workload() {
        let (pool, index, _) = build(20_000, 107, FlatOptions::default());
        let mut stats = QueryStats::default();
        let q = Aabb::cube(Point3::splat(50.0), 20.0);
        let hits = index.range_query_with_stats(&pool, &q, &mut stats).unwrap();
        assert_eq!(stats.result_count, hits.len() as u64);
        assert!(stats.records_processed > 0);
        assert!(stats.object_pages_read > 0);
        assert!(stats.max_queue_len > 0);
        assert!(stats.mbr_tests > stats.records_processed);
        assert!(stats.bookkeeping_bytes() > 0);
    }

    #[test]
    fn object_pages_are_read_at_most_once_per_query() {
        let (pool, index, _) = build(20_000, 108, FlatOptions::default());
        pool.clear_cache();
        pool.reset_stats();
        let q = Aabb::cube(Point3::splat(50.0), 25.0);
        let _ = index.range_query(&pool, &q).unwrap();
        let stats = pool.stats();
        // Physical object reads can't exceed the number of object pages —
        // and with the seen-set, logical reads equal physical reads plus
        // seed-phase cache hits only.
        assert!(
            stats.kind(PageKind::ObjectPage).physical_reads <= index.num_object_pages(),
            "an object page was read twice from disk"
        );
    }

    #[test]
    fn with_ids_layout_returns_application_ids() {
        let (pool, index, entries) = build(
            5000,
            109,
            FlatOptions {
                layout: LeafLayout::WithIds,
                ..Default::default()
            },
        );
        let q = Aabb::cube(Point3::splat(50.0), 250.0);
        let mut ids: Vec<u64> = index
            .range_query(&pool, &q)
            .unwrap()
            .iter()
            .map(|h| h.id)
            .collect();
        ids.sort_unstable();
        let mut expected: Vec<u64> = entries.iter().map(|e| e.id).collect();
        expected.sort_unstable();
        assert_eq!(ids, expected);
    }

    #[test]
    fn seed_only_finds_a_record_for_nonempty_queries() {
        let (pool, index, _) = build(10_000, 110, FlatOptions::default());
        let q = Aabb::cube(Point3::splat(40.0), 10.0);
        assert!(index.seed_only(&pool, &q).unwrap().is_some());
        let empty = Aabb::cube(Point3::splat(-500.0), 1.0);
        assert!(index.seed_only(&pool, &empty).unwrap().is_none());
    }

    #[test]
    fn point_query_works() {
        let (pool, index, entries) = build(10_000, 111, FlatOptions::default());
        // Use an element center so the query is guaranteed non-empty.
        let target = entries[1234].mbr.center();
        let q = Aabb::point(target);
        let expected = brute_force(&entries, &q);
        let got = index.range_query(&pool, &q).unwrap();
        assert_eq!(got.len(), expected.len());
        assert!(!got.is_empty());
    }

    #[test]
    fn continuation_chains_preserve_correctness() {
        // A few enormous elements stretch their partitions across the
        // whole domain, giving them neighbor lists far beyond one page's
        // capacity — the build must chain records and the crawl must still
        // return exact results.
        let mut entries = random_entries(60_000, 112);
        for i in 0..5u64 {
            let lo = Point3::splat(1.0 + i as f64);
            let hi = Point3::splat(99.0 - i as f64);
            entries.push(Entry::new(70_000 + i, Aabb::from_corners(lo, hi)));
        }
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, stats) =
            FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default()).unwrap();
        let max_single = crate::meta::max_neighbors_per_record() as u32;
        assert!(
            stats.neighbor_counts.iter().any(|&c| c > max_single),
            "test setup must force continuation chains (max count {})",
            stats.neighbor_counts.iter().max().unwrap()
        );
        for (c, side) in [(50.0, 10.0), (20.0, 30.0), (50.0, 250.0)] {
            let q = Aabb::cube(Point3::splat(c), side);
            let expected = brute_force(&entries, &q);
            let got = index.range_query(&pool, &q).unwrap();
            assert_eq!(got.len(), expected.len(), "query at {c} side {side}");
        }
    }

    #[test]
    fn empty_index_answers_queries() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let (index, _) = FlatIndex::build(&mut pool, Vec::new(), FlatOptions::default()).unwrap();
        let q = Aabb::cube(Point3::ORIGIN, 10.0);
        assert!(index.range_query(&pool, &q).unwrap().is_empty());
    }
}
