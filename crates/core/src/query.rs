//! The read path: the seed phase and the breadth-first crawl kernel
//! (§V-B.1 and §VI, Algorithm 2), as methods of [`DeltaIndex`].
//!
//! There is one index type on the read path. A bulkload no writer has
//! adopted is a [`DeltaIndex`] whose tables are empty: no tombstone, no
//! delta partition, and each partition's live count is the element count
//! its metadata record carries. So every query verb is written once, as a
//! method of [`DeltaIndex`], and [`FlatIndex`]'s verbs run the same code on
//! such an empty copy of themselves ([`FlatIndex::pristine`]). Every
//! traversal that drains a BFS queue is `DeltaIndex::crawl_step`,
//! specialised by a [`CrawlVisitor`]: range queries materialise hits
//! (here), aggregates count (`aggregate.rs`), joins collect ε-pruned
//! candidates and the partner frontier (`join.rs`). kNN (`knn.rs`) is a
//! best-first traversal with a moving bound — a different algorithm, not
//! another copy — and shares the index, the link walker ([`walk_links`])
//! and the live-entry page scan ([`LivePage`]).
//!
//! Metadata records and object pages are read in place, never decoded
//! into owned values: [`read_record`] hands out a view over the shared
//! cached page (see [`crate::meta`]) whose neighbor pointers are read off
//! the bytes as they are followed, and [`LivePage`] scans entries where
//! they lie. The crawl's seen-set hashes with [`AddrHasher`]. A warm
//! query therefore allocates only for its result, queue, seen-set and
//! wave scratch, which grow geometrically with the crawl rather than once
//! per record (`tests/alloc_free_crawl.rs` holds that to a budget).

use crate::delta::DeltaIndex;
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
/// (`DeltaIndex::crawl_step`) owns the traversal — queue, seen-set, waves,
/// announcements, dead records, tombstones, continuation chains — and is
/// monomorphised per visitor, so a visitor costs what writing its loop by
/// hand would. Each record of a wave is shown to `dequeued`, then (if
/// live) `wants_object`, then `expands`, in queue order; then the wave's
/// wanted object pages are handed to `scan`, in the same order. A dead
/// record is never shown to `wants_object` — its object page is freed —
/// but its links are followed like any other's. The delta partitions a
/// crawl starts with ([`DeltaIndex::offer_delta`]) are shown to
/// `wants_object` alone, and scanned with the first wave.
pub(crate) trait CrawlVisitor {
    /// A record left the queue, which held `queue_len` records counting it.
    fn dequeued(&mut self, queue_len: usize);

    /// Will the object page of a live partition whose page MBR is
    /// `page_mbr` and which holds `live` live elements be scanned? Asked
    /// once per partition, for a whole wave before any of its object
    /// pages is read, so the answers can be announced to the pool
    /// together.
    fn wants_object(&mut self, page_mbr: &Aabb, live: u64) -> bool;

    /// Scans an object page that was wanted, in the order the pages were
    /// wanted.
    fn scan(&mut self, page: &LivePage<'_>);

    /// Will this record's neighbor links be followed? Asked right after
    /// `wants_object`, before any object page of the wave is read.
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
    fn wants_object(&mut self, page_mbr: &Aabb, _live: u64) -> bool {
        self.stats.mbr_tests += 1;
        page_mbr.intersects(self.query)
    }

    fn scan(&mut self, page: &LivePage<'_>) {
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

impl DeltaIndex {
    /// Evaluates a range query over the live elements — exactly the set a
    /// fresh rebuild over the survivors would return.
    pub fn range_query(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<Vec<Hit>, StorageError> {
        self.range_query_with_stats(pool, query, &mut QueryStats::default())
    }

    /// Like [`DeltaIndex::range_query`], accumulating counters into
    /// `stats`: the seed phase, then the breadth-first crawl of the
    /// bulkload's graph, with the delta partitions that meet the box
    /// scanned beside its first wave.
    pub fn range_query_with_stats(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut QueryStats,
    ) -> Result<Vec<Hit>, StorageError> {
        let mut hits = Vec::new();
        // "If no object page can be found, then the query has no result"
        // (§V-B.1) — in the bulkload; the delta partitions are scanned
        // either way.
        let mut state = CrawlState::default();
        if let Some(seed) = self.seed(pool, query, stats)? {
            state.enqueue(seed);
        }
        let mut visit = RangeVisit {
            query,
            stats,
            hits: &mut hits,
        };
        self.offer_delta(query, &mut state, &mut visit);
        self.crawl(pool, &mut state, &mut visit)?;
        stats.records_seen += state.records_seen();
        stats.result_count += hits.len() as u64;
        Ok(hits)
    }

    /// Shows `visitor` every live delta partition whose page MBR meets
    /// `query` ([`CrawlVisitor::wants_object`]); the object pages it wants
    /// are announced and scanned with the next wave of `state`'s crawl —
    /// the only wave of a crawl that has no seed. A resident scan, so a
    /// partition costs one object read when wanted and none otherwise.
    pub(crate) fn offer_delta(
        &self,
        query: &Aabb,
        state: &mut CrawlState,
        visitor: &mut impl CrawlVisitor,
    ) {
        for part in self.delta_parts() {
            if part.page_mbr.intersects(query)
                && visitor.wants_object(&part.page_mbr, part.live.into())
            {
                state.scans.push(part.object_page);
            }
        }
    }

    /// The seed phase (§V-B.1): walk a single path of the seed tree
    /// (early-exit DFS), reading candidate object pages until one actually
    /// contains a live element intersecting the query. Only the bulkload's
    /// partitions are candidates: the crawl walks their graph, and the
    /// delta partitions are no part of it. Tombstoned elements do not
    /// count, and retired (dead) records are never entry points — their
    /// object pages are freed — though the crawl passes through them.
    ///
    /// A candidate whose page MBR lies inside the query and that holds a
    /// live element ([`DeltaIndex::live_count`]) is taken without reading
    /// its page: every element lies in the page MBR, so that element
    /// intersects the query, and the probe would have found it. The entry
    /// point is the one the probe would pick; only the read goes.
    pub(crate) fn seed(
        &self,
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
                    if !record.page_mbr.intersects(query) {
                        continue;
                    }
                    stats.mbr_tests += 1;
                    let contained =
                        query.contains(&record.page_mbr) && self.live_count(&record) > 0;
                    if contained || probe(record.object_page, stats)? {
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
        Ok(None)
    }

    /// Runs a crawl to completion: every queued record and every offered
    /// delta partition. A crawl with neither reads nothing.
    pub(crate) fn crawl(
        &self,
        pool: &impl PageRead,
        state: &mut CrawlState,
        visitor: &mut impl CrawlVisitor,
    ) -> Result<(), StorageError> {
        while !(state.queue.is_empty() && state.scans.is_empty()) {
            self.crawl_step(pool, state, visitor)?;
        }
        Ok(())
    }

    /// Runs one crawl turn — a **wave**: up to [`WAVE`] records taken off
    /// the front of the BFS queue and processed in queue order, plus the
    /// delta partitions offered since the last turn. This is the only code
    /// that walks the link graph breadth-first; range, aggregate and join
    /// differ in their [`CrawlVisitor`] alone.
    ///
    /// A wave costs one device round trip. Its first pass reads each
    /// record and decides, in queue order, whether its object page is
    /// wanted and whether its links are followed — so the expansion
    /// enqueues the neighbors and the next wave is known before any object
    /// page is read. One [`PageRead::want_pages`] call then lists the
    /// wave's wanted object pages and the distinct metadata pages of the
    /// next wave. Both sets are certain reads, not guesses: every queued
    /// record is read before the crawl ends. The second pass scans the
    /// wanted pages. A pool that can overlap device fetches (a
    /// [`flat_storage::ConcurrentBufferPool`] with I/O workers) fetches
    /// the object pages and the next wave's metadata side by side, so the
    /// next wave's record reads find their pages cached or in flight;
    /// pools that cannot ignore the announcement. A crawl's first wave is
    /// not announced: its entry points are records the caller has just
    /// read (the seed) or a previous crawl read (a join's frontier).
    ///
    /// The wave changes *when* the pool hears about a page, nothing else.
    /// Records leave the queue in FIFO order, each is expanded as it leaves,
    /// and every expansion appends behind everything still queued, so the
    /// sequence of `seen.insert` calls — hence the queue contents, what the
    /// visitor is shown and in which order, and every counter it keeps — is
    /// that of processing one record per turn; `dequeued` reports the queue
    /// length such a turn would have observed. Each record still costs one
    /// logical metadata read, each wanted object page one logical object
    /// read; only the order of reads inside a wave differs (records and
    /// continuation chunks first, then object pages), which a small LRU
    /// cache may notice as a handful of physical reads either way.
    ///
    /// Every caller loops this to completion ([`DeltaIndex::crawl`]). The
    /// wanted object pages of offered delta partitions head the wave's
    /// announcement and its scans.
    ///
    /// One deliberate fix to the paper's pseudocode: Algorithm 2 only
    /// inserts a page into `visited` when its page MBR intersects the
    /// query, which would let two mutually neighboring records with
    /// non-intersecting page MBRs (but intersecting partition MBRs)
    /// re-enqueue each other forever. We track *enqueued* records instead
    /// ("seen"), which preserves the intended I/O behaviour — every record
    /// is processed at most once, every object page read at most once —
    /// and guarantees termination.
    fn crawl_step<V: CrawlVisitor>(
        &self,
        pool: &impl PageRead,
        state: &mut CrawlState,
        visitor: &mut V,
    ) -> Result<(), StorageError> {
        let CrawlState {
            queue,
            seen,
            scans,
            wants,
        } = state;
        wants.clear();
        wants.extend(scans.iter().map(|&page| (page, PageKind::ObjectPage)));
        for _ in 0..queue.len().min(WAVE) {
            let Some(addr) = queue.pop_front() else { break };
            visitor.dequeued(queue.len() + 1);
            let record = read_record(pool, addr)?;
            // A retired partition's record keeps its links and its
            // partition MBR, so the crawl crosses it as it crossed the live
            // partition; only its object page, freed, is never wanted.
            let wanted =
                !record.is_dead && visitor.wants_object(&record.page_mbr, self.live_count(&record));
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
            if wanted {
                wants.push((record.object_page, PageKind::ObjectPage));
                scans.push(record.object_page);
            }
        }
        let next_wave = queue.iter().take(WAVE).map(|addr| addr.page);
        announce_meta_pages(wants, next_wave);
        pool.want_pages(wants);

        let tombstones = self.tombstones();
        for page in scans.drain(..) {
            visitor.scan(&LivePage::read(pool, page, tombstones)?);
        }
        Ok(())
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
        self.pristine().range_query_with_stats(pool, query, stats)
    }

    /// Runs only the seed phase, returning the address of the seed record
    /// (for instrumentation and the seed-cost experiments).
    pub fn seed_only(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<Option<(PageId, u16)>, StorageError> {
        let seed = self
            .pristine()
            .seed(pool, query, &mut QueryStats::default())?;
        Ok(seed.map(|r| (r.page, r.slot)))
    }
}

/// Appends the distinct metadata `pages` to an announcement, sorted by
/// page id: O(w log w) for the w records of one wave. What is
/// listed before them is object pages, each of its own partition, so no
/// two equal entries can meet across the boundary.
pub(crate) fn announce_meta_pages(
    wants: &mut Vec<(PageId, PageKind)>,
    pages: impl Iterator<Item = PageId>,
) {
    let start = wants.len();
    wants.extend(pages.map(|page| (page, PageKind::SeedLeaf)));
    wants[start..].sort_unstable_by_key(|&(page, _)| page);
    wants.dedup();
}

/// Records one crawl turn takes off the queue. Large enough that a wave's
/// announcement keeps a queue-depth-8 device busy through its round trip:
/// on the `device_reads` neuron data an SN wave lists 5.6 object and 27
/// metadata pages on average and an LSS wave 22 and 35 (3.2 and 18, 11
/// and 20 at 32 records). Small enough that a wave's pages fit comfortably
/// in the smallest caches in use.
const WAVE: usize = 64;

/// The resumable state of one crawl: the BFS queue, the visited
/// ("seen") set and the delta partitions waiting for their scan. Seeded
/// through [`CrawlState::enqueue`] and [`DeltaIndex::offer_delta`] and
/// advanced one wave at a time by `DeltaIndex::crawl_step`.
#[derive(Debug, Default)]
pub(crate) struct CrawlState {
    queue: VecDeque<MetaRecordId>,
    seen: AddrSet<MetaRecordId>,
    // Scratch of the wave in progress, kept here so a crawl allocates it
    // once: the object pages to scan — between waves, those of the
    // offered delta partitions — and the page list being announced.
    scans: Vec<PageId>,
    wants: Vec<(PageId, PageKind)>,
}

impl CrawlState {
    /// Forgets the previous crawl, keeping its allocations for the next.
    pub(crate) fn clear(&mut self) {
        self.queue.clear();
        self.seen.clear();
        self.scans.clear();
    }

    /// Queues `addr` as an entry point unless the crawl has already seen it.
    pub(crate) fn enqueue(&mut self, addr: MetaRecordId) {
        if self.seen.insert(addr) {
            self.queue.push_back(addr);
        }
    }

    /// `true` when no record is queued: the crawl is over, or not yet
    /// seeded.
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
    use crate::index::tests::random_entries;
    use crate::index::{FlatIndex, FlatOptions};
    use flat_geom::Point3;
    use flat_rtree::Entry;
    use flat_storage::{ConcurrentBufferPool, MemStore};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn stats_accumulate_across_queries() {
        let (pool, index, _) = build(20_000, 113, FlatOptions::default());
        let a = Aabb::cube(Point3::splat(30.0), 12.0);
        let b = Aabb::cube(Point3::splat(70.0), 25.0);
        let run = |queries: &[&Aabb]| {
            let mut stats = QueryStats::default();
            for q in queries {
                index.range_query_with_stats(&pool, q, &mut stats).unwrap();
            }
            stats
        };
        let (one, other) = (run(&[&a]), run(&[&b]));
        assert!(one.result_count > 0 && other.result_count > 0);
        assert_eq!(
            run(&[&a, &b]),
            QueryStats {
                result_count: one.result_count + other.result_count,
                records_processed: one.records_processed + other.records_processed,
                object_pages_read: one.object_pages_read + other.object_pages_read,
                seed_probe_pages: one.seed_probe_pages + other.seed_probe_pages,
                max_queue_len: one.max_queue_len.max(other.max_queue_len),
                records_seen: one.records_seen + other.records_seen,
                mbr_tests: one.mbr_tests + other.mbr_tests,
            }
        );
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
