//! k-nearest-neighbor queries via best-first seed + crawl.
//!
//! The paper's protocol answers *range* queries: find one page with the
//! seed tree, then crawl neighbor links. The same two ingredients answer
//! kNN exactly — a genuinely different workload (e.g. "the 20 synapses
//! closest to this dendrite location") that no fixed query box captures:
//!
//! 1. **Seed**: a best-first descent of the seed tree (ordered by minimum
//!    distance from the query point to the indexed page MBRs) finds the
//!    metadata record nearest the query point — the analogue of the range
//!    seed's single root-to-leaf walk.
//! 2. **Crawl**: a best-first expansion over the *neighbor links*, popping
//!    the frontier records with the smallest partition-MBR distances,
//!    scanning their object pages when their page MBRs may still
//!    contribute, and enqueueing their neighbors. A max-heap of the k best
//!    elements found so far supplies the shrinking pruning bound.
//!
//! Exactness rests on the tiling invariants (§V-A): partitions cover space
//! with no gaps and touching partitions are linked, so for any distance
//! bound `d` the set of partitions within `d` of the query point is
//! connected through neighbor links and contains the seed — retired
//! partitions included, whose records keep their links: the crawl passes
//! through them and never scans their freed object pages. The expansion
//! therefore reaches every partition that could hold a top-k element
//! before the bound closes below it; `knn_matches_brute_force` in the
//! tests checks the result against a full scan.
//!
//! The crawl moves in **waves** of up to [`KNN_WAVE`] records, the
//! one-node-at-a-time discipline of classic best-first search (Hjaltason &
//! Samet, TODS 1999) widened so that a device-backed pool serves a wave in
//! one overlapped round trip. A wave pops the frontier records whose key
//! is within the bound taken at its start, reads each and collects its
//! unseen neighbors across the whole continuation chain, then announces in
//! one batch ([`PageRead::want_pages`]) the object pages whose page MBR is
//! within that bound and the record of every unseen neighbor (the key is
//! in the record). It scans in pop order and keys the neighbors with the
//! bound taken after the scans. The seed descent opens up to
//! [`KNN_WAVE`] seed-tree nodes per announcement the same way.
//!
//! A wave's reads are certain, with one exception: a record popped after
//! the wave's first rides on the wave's starting bound, which the earlier
//! scans may tighten, and its announced object page is then skipped — at
//! most `KNN_WAVE − 1` pages per wave. Such a page is fetched and cached
//! like any announced page; it is a cost of the wave's width, not a
//! speculative lane (the pool has none). A stale pop can also expand a
//! record a one-at-a-time crawl would have pruned, which costs reads but
//! never exactness: the answer, ties included, is the one-at-a-time
//! crawl's. The order in which records are popped and neighbors are
//! marked seen, keyed and pushed depends only on what is read, so results
//! and [`KnnStats`] do not depend on whether the pool listens.

use crate::delta::DeltaIndex;
use crate::index::FlatIndex;
use crate::meta::{meta_leaf_len, MetaRecordId, MetaView};
use crate::query::{announce_meta_pages, read_record, walk_links, AddrSet, LivePage};
use flat_geom::Point3;
use flat_rtree::node::{decode_inner, decode_leaf};
use flat_rtree::{Hit, LeafLayout, RTree};
use flat_storage::{PageId, PageKind, PageRead, StorageError};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One kNN result: the element plus its squared distance to the query
/// point (distance from point to the element's MBR; 0 when inside).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The element, as reported by range queries.
    pub hit: Hit,
    /// Squared minimum distance from the query point to `hit.mbr`.
    pub dist_sq: f64,
}

impl Neighbor {
    /// The distance itself.
    pub fn dist(&self) -> f64 {
        self.dist_sq.sqrt()
    }
}

/// Counters for one kNN evaluation (the I/O side lives in the pool's
/// [`flat_storage::IoStats`], as for range queries).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KnnStats {
    /// Metadata records popped from the frontier and processed.
    pub records_expanded: u64,
    /// Records enqueued but pruned away by the distance bound before (or
    /// instead of) being expanded.
    pub records_pruned: u64,
    /// Object pages scanned.
    pub object_pages_read: u64,
    /// High-water mark of the best-first frontier.
    pub max_frontier_len: usize,
}

/// `f64` with a total order, for use as a heap key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MinKey(pub(crate) f64);

impl Eq for MinKey {}

impl PartialOrd for MinKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MinKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Items of the seed phase's best-first heap: seed-tree nodes and, once a
/// leaf is opened, the metadata records themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SeedItem {
    Node { page: PageId, level: u32 },
    Record(MetaRecordId),
}

/// A result candidate, ordered by distance then physical location, so ties
/// at the k-th distance break deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ranked(Neighbor);

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (&self.0, &other.0);
        a.dist_sq
            .total_cmp(&b.dist_sq)
            .then(a.hit.page.cmp(&b.hit.page))
            .then(a.hit.slot.cmp(&b.hit.slot))
    }
}

/// The running k best elements of a best-first search (FLAT's crawl and
/// the R-tree baseline's descent alike): a max-heap whose top is the
/// pruning bound.
pub(crate) struct TopK {
    k: usize,
    best: BinaryHeap<Ranked>,
}

impl TopK {
    /// An empty accumulator for `k >= 1` results.
    pub(crate) fn new(k: usize) -> TopK {
        TopK {
            k,
            best: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The squared distance nothing farther than can still enter the
    /// result: the k-th best so far, ∞ until `k` elements are held.
    pub(crate) fn bound(&self) -> f64 {
        match self.best.peek() {
            Some(worst) if self.best.len() >= self.k => worst.0.dist_sq,
            _ => f64::INFINITY,
        }
    }

    /// Offers an element at squared distance `dist_sq`. The comparison is
    /// the full [`Ranked`] order, not just distance: ties at the k-th
    /// distance resolve by physical location independent of the order
    /// elements are met in, as documented.
    pub(crate) fn offer(&mut self, hit: Hit, dist_sq: f64) {
        let candidate = Ranked(Neighbor { hit, dist_sq });
        if self.best.len() < self.k {
            self.best.push(candidate);
        } else if let Some(mut worst) = self.best.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }

    /// The result, ascending.
    pub(crate) fn into_neighbors(self) -> Vec<Neighbor> {
        let ranked = self.best.into_sorted_vec();
        ranked.into_iter().map(|r| r.0).collect()
    }
}

/// The R-tree baseline's kNN: the classical best-first branch-and-bound
/// descent (expand the node nearest to `point`, prune with the running
/// k-th distance). It shares the top-k accumulator of FLAT's crawl, so
/// results match [`FlatIndex::knn_query`] element for element, with the
/// same tie-break by physical location at the k-th distance.
pub fn rtree_knn(
    tree: &RTree,
    pool: &impl PageRead,
    point: Point3,
    k: usize,
) -> Result<Vec<Neighbor>, StorageError> {
    let Some(root) = tree.root().filter(|_| k > 0) else {
        return Ok(Vec::new());
    };
    let mut best = TopK::new(k);
    // Frontier of (min distance, node, level); 1 = leaf level.
    let mut frontier: BinaryHeap<Reverse<(MinKey, PageId, u32)>> = BinaryHeap::new();
    frontier.push(Reverse((MinKey(0.0), root, tree.height())));
    while let Some(Reverse((MinKey(dist), page_id, level))) = frontier.pop() {
        // Everything else on the frontier is at least this far away.
        if dist > best.bound() {
            break;
        }
        if level == 1 {
            let page = pool.read_page(page_id, PageKind::RTreeLeaf)?;
            let (layout, entries) = decode_leaf(&page)?;
            for (slot, entry) in entries.iter().enumerate() {
                let id = match layout {
                    LeafLayout::MbrOnly => (page_id.0 << 16) | entry.id,
                    LeafLayout::WithIds => entry.id,
                };
                let hit = Hit {
                    mbr: entry.mbr,
                    id,
                    page: page_id,
                    slot: slot as u16,
                };
                best.offer(hit, entry.mbr.distance_sq_to_point(&point));
            }
        } else {
            let page = pool.read_page(page_id, PageKind::RTreeInner)?;
            for child in decode_inner(&page)? {
                let key = child.mbr.distance_sq_to_point(&point);
                if key <= best.bound() {
                    frontier.push(Reverse((MinKey(key), child.page, level - 1)));
                }
            }
        }
    }
    Ok(best.into_neighbors())
}

impl FlatIndex {
    /// Returns the `k` elements nearest to `point` (by minimum distance to
    /// their MBRs), ascending, with exact results (ties at the k-th
    /// distance broken by physical location).
    ///
    /// Like range queries this is a shared read — any [`PageRead`] works,
    /// including a pool serving other query threads concurrently.
    pub fn knn_query(
        &self,
        pool: &impl PageRead,
        point: Point3,
        k: usize,
    ) -> Result<Vec<Neighbor>, StorageError> {
        self.knn_query_with_stats(pool, point, k, &mut KnnStats::default())
    }

    /// Like [`FlatIndex::knn_query`], accumulating counters into `stats`.
    pub fn knn_query_with_stats(
        &self,
        pool: &impl PageRead,
        point: Point3,
        k: usize,
        stats: &mut KnnStats,
    ) -> Result<Vec<Neighbor>, StorageError> {
        self.pristine().knn_query_with_stats(pool, point, k, stats)
    }
}

/// Frontier records one kNN crawl turn pops, and seed-tree nodes one
/// seed round opens: a turn's reads travel to the pool in one
/// announcement, so a cold query waits one device round trip per turn
/// rather than per record. Each record after a turn's first is popped on
/// the bound the turn started with, which scans that landed earlier in the
/// turn may have tightened, so wider turns read more: `resident_reads`
/// reads 0.4 % more pages at 4, 1.3 % at 8 and 3.4 % at 16.
const KNN_WAVE: usize = 4;

impl DeltaIndex {
    /// Returns the `k` live elements nearest to `point`, exactly as a
    /// fresh rebuild over the survivors would.
    pub fn knn_query(
        &self,
        pool: &impl PageRead,
        point: Point3,
        k: usize,
    ) -> Result<Vec<Neighbor>, StorageError> {
        self.knn_query_with_stats(pool, point, k, &mut KnnStats::default())
    }

    /// Like [`DeltaIndex::knn_query`], accumulating counters into `stats`.
    pub fn knn_query_with_stats(
        &self,
        pool: &impl PageRead,
        point: Point3,
        k: usize,
        stats: &mut KnnStats,
    ) -> Result<Vec<Neighbor>, StorageError> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let tombstones = self.tombstones();

        // The best-first crawl; `best`'s bound prunes (∞ until full).
        let mut best = TopK::new(k);
        let mut seen: AddrSet<MetaRecordId> = AddrSet::default();
        let mut frontier: BinaryHeap<Reverse<(MinKey, MetaRecordId)>> = BinaryHeap::new();
        // The delta partitions, which no link reaches, nearest first: a
        // second frontier, merged into the first by key. Empty (and
        // unallocated) over a pristine index.
        let mut outside: Vec<(MinKey, PageId)> = self
            .delta_parts()
            .map(|p| {
                (
                    MinKey(p.page_mbr.distance_sq_to_point(&point)),
                    p.object_page,
                )
            })
            .collect();
        outside.sort_unstable();
        let mut next_outside = 0;
        // Scratch of one wave (see the loop), reused across waves: the
        // object pages popped with their page-MBR distances, the popped
        // records' unseen neighbors, and the announcement.
        let mut wave: Vec<(PageId, f64)> = Vec::with_capacity(KNN_WAVE);
        let mut fresh: Vec<MetaRecordId> = Vec::new();
        let mut wants: Vec<(PageId, PageKind)> = Vec::new();
        if let Some(seed) = self.knn_seed(pool, point)? {
            seen.insert(seed);
            let key = read_record(pool, seed)?
                .partition_mbr
                .distance_sq_to_point(&point);
            frontier.push(Reverse((MinKey(key), seed)));
        }

        loop {
            // Pop up to `KNN_WAVE` entries within the bound the wave starts
            // with, the nearer of the two frontiers first (a delta
            // partition on ties). A record is read and its unseen
            // neighbors collected across the continuation chain
            // (over-full neighbor lists spill into continuation records),
            // in pop order; a delta partition is its object page alone. A
            // dead record's links are followed like any other's, but its
            // object page, freed, joins no wave.
            let bound = best.bound();
            wave.clear();
            fresh.clear();
            wants.clear();
            let mut popped = 0;
            while popped < KNN_WAVE {
                let top = frontier.peek().map(|&Reverse((MinKey(dist), _))| dist);
                let (page, page_dist) = match outside.get(next_outside) {
                    Some(&(MinKey(dist), page))
                        if dist <= bound && top.is_none_or(|top| dist <= top) =>
                    {
                        next_outside += 1;
                        popped += 1;
                        (page, dist)
                    }
                    _ => {
                        let Some(Reverse((MinKey(dist), addr))) = frontier.peek().copied() else {
                            break;
                        };
                        if dist > bound {
                            break;
                        }
                        stats.max_frontier_len = stats.max_frontier_len.max(frontier.len());
                        stats.records_expanded += 1;
                        frontier.pop();
                        popped += 1;
                        let record = read_record(pool, addr)?;
                        walk_links(pool, &record, |chunk| {
                            fresh.extend(chunk.neighbors().filter(|&n| seen.insert(n)));
                            Ok(())
                        })?;
                        if record.is_dead {
                            continue;
                        }
                        (
                            record.object_page,
                            record.page_mbr.distance_sq_to_point(&point),
                        )
                    }
                };
                // The kNN analogue of §VI's page-MBR test: the object page
                // is wanted when it can still hold a top-k element.
                if page_dist <= bound {
                    wants.push((page, PageKind::ObjectPage));
                }
                wave.push((page, page_dist));
            }
            // Everything still on either frontier is at least this far
            // away; once the top-k is full and closer, nothing can improve.
            if popped == 0 {
                stats.records_pruned += frontier.len() as u64;
                break;
            }

            // One announcement lists the wanted object pages and the
            // record of every unseen neighbor, whose key decides whether
            // it joins the frontier.
            announce_meta_pages(&mut wants, fresh.iter().map(|n| n.page));
            pool.want_pages(&wants);

            // Scan in pop order, each page against the bound the earlier
            // scans left: a page announced on the wave's bound that has
            // since fallen outside it is skipped.
            for &(page, page_dist) in &wave {
                if page_dist > best.bound() {
                    continue;
                }
                stats.object_pages_read += 1;
                for hit in LivePage::read(pool, page, tombstones)?.hits() {
                    best.offer(hit, hit.mbr.distance_sq_to_point(&point));
                }
            }

            // Key the neighbors in the order they were met, with the bound
            // taken after the scans. Pruning with the *current* bound is
            // safe: the bound only shrinks, and any partition within the
            // final bound stays reachable through partitions at least as
            // close (the tiling's connectivity argument, module docs).
            let bound = best.bound();
            for &neighbor in &fresh {
                let key = read_record(pool, neighbor)?
                    .partition_mbr
                    .distance_sq_to_point(&point);
                if key > bound {
                    stats.records_pruned += 1;
                    continue;
                }
                frontier.push(Reverse((MinKey(key), neighbor)));
            }
        }
        Ok(best.into_neighbors())
    }

    /// The kNN seed: the live primary record of the bulkload whose page
    /// MBR is nearest to `point` (`None` when the seed tree holds none) —
    /// a best-first descent of the seed tree, cost near the tree height
    /// like the range seed. The delta partitions are no crawl entry
    /// points: the crawl merges them in from the resident table. Any live
    /// record is a correct entry point (the best-first crawl's bound
    /// starts unbounded), a near one just prunes sooner.
    ///
    /// A round opens up to [`KNN_WAVE`] nodes off the heap, announced
    /// together, and stops popping once a record is on top. A node's key
    /// is at most that of anything below it and nodes sort before records
    /// on equal keys, so the record that first reaches the top is the
    /// least in heap order whatever the round size: the seed is the one a
    /// node-at-a-time descent finds.
    fn knn_seed(
        &self,
        pool: &impl PageRead,
        point: Point3,
    ) -> Result<Option<MetaRecordId>, StorageError> {
        let base = self.base();
        let mut heap: BinaryHeap<Reverse<(MinKey, SeedItem)>> = BinaryHeap::new();
        heap.extend(base.seed_root.map(|page| {
            let level = base.seed_height;
            Reverse((MinKey(0.0), SeedItem::Node { page, level }))
        }));
        let mut opened: Vec<(PageId, u32)> = Vec::with_capacity(KNN_WAVE);
        let mut wants: Vec<(PageId, PageKind)> = Vec::with_capacity(KNN_WAVE);
        while let Some(&Reverse((_, item))) = heap.peek() {
            if let SeedItem::Record(addr) = item {
                return Ok(Some(addr));
            }
            opened.clear();
            while opened.len() < KNN_WAVE {
                let Some(&Reverse((_, SeedItem::Node { page, level }))) = heap.peek() else {
                    break; // a record is on top, or nothing is left
                };
                heap.pop();
                opened.push((page, level));
            }
            wants.clear();
            wants.extend(opened.iter().map(|&(page, level)| match level {
                1 => (page, PageKind::SeedLeaf),
                _ => (page, PageKind::SeedInner),
            }));
            pool.want_pages(&wants);
            for &(page, level) in &opened {
                if level == 1 {
                    let leaf = pool.read_page(page, PageKind::SeedLeaf)?;
                    for slot in 0..meta_leaf_len(&leaf)? as u16 {
                        let record = MetaView::new(leaf.clone(), slot)?;
                        if record.is_continuation || record.is_dead {
                            continue; // not a valid crawl entry point
                        }
                        let key = record.page_mbr.distance_sq_to_point(&point);
                        heap.push(Reverse((
                            MinKey(key),
                            SeedItem::Record(MetaRecordId { page, slot }),
                        )));
                    }
                } else {
                    let node = pool.read_page(page, PageKind::SeedInner)?;
                    for child in decode_inner(&node)? {
                        let key = child.mbr.distance_sq_to_point(&point);
                        heap.push(Reverse((
                            MinKey(key),
                            SeedItem::Node {
                                page: child.page,
                                level: level - 1,
                            },
                        )));
                    }
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::random_entries;
    use crate::index::{FlatIndex, FlatOptions};
    use flat_geom::Aabb;
    use flat_rtree::{BulkLoad, Entry, RTreeConfig};
    use flat_storage::{ConcurrentBufferPool, MemStore};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(n: usize, seed: u64) -> (ConcurrentBufferPool<MemStore>, FlatIndex, Vec<Entry>) {
        let entries = random_entries(n, seed);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default())
            .expect("in-memory build cannot fail");
        (pool, index, entries)
    }

    fn brute_force_dists(entries: &[Entry], p: &Point3, k: usize) -> Vec<f64> {
        let mut dists: Vec<f64> = entries
            .iter()
            .map(|e| e.mbr.distance_sq_to_point(p))
            .collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        dists.truncate(k);
        dists
    }

    #[test]
    fn knn_matches_brute_force() {
        let (pool, index, entries) = build(20_000, 301);
        let mut rng = StdRng::seed_from_u64(302);
        for _ in 0..12 {
            let p = Point3::new(
                rng.gen_range(-10.0..110.0),
                rng.gen_range(-10.0..110.0),
                rng.gen_range(-10.0..110.0),
            );
            for k in [1, 7, 50] {
                let got = index.knn_query(&pool, p, k).unwrap();
                assert_eq!(got.len(), k);
                let got_dists: Vec<f64> = got.iter().map(|n| n.dist_sq).collect();
                assert_eq!(
                    got_dists,
                    brute_force_dists(&entries, &p, k),
                    "k={k} at {p}"
                );
                // Ascending and self-consistent.
                assert!(got_dists.windows(2).all(|w| w[0] <= w[1]));
                for n in &got {
                    assert_eq!(n.dist_sq, n.hit.mbr.distance_sq_to_point(&p));
                    assert!((n.dist() * n.dist() - n.dist_sq).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn knn_returns_distinct_elements() {
        let (pool, index, _) = build(10_000, 303);
        let got = index.knn_query(&pool, Point3::splat(50.0), 100).unwrap();
        let mut ids: Vec<u64> = got.iter().map(|n| n.hit.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100, "duplicate elements in kNN result");
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let (pool, index, entries) = build(500, 304);
        let got = index.knn_query(&pool, Point3::splat(20.0), 10_000).unwrap();
        assert_eq!(got.len(), entries.len());
    }

    #[test]
    fn k_zero_and_empty_index_return_nothing() {
        let (pool, index, _) = build(1000, 305);
        assert!(index
            .knn_query(&pool, Point3::splat(1.0), 0)
            .unwrap()
            .is_empty());
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let (empty, _) = FlatIndex::build(&mut pool, Vec::new(), FlatOptions::default()).unwrap();
        assert!(empty
            .knn_query(&pool, Point3::splat(1.0), 5)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn far_outside_query_point_still_exact() {
        let (pool, index, entries) = build(5_000, 306);
        let p = Point3::new(-500.0, 700.0, 250.0);
        let got = index.knn_query(&pool, p, 10).unwrap();
        let got_dists: Vec<f64> = got.iter().map(|n| n.dist_sq).collect();
        assert_eq!(got_dists, brute_force_dists(&entries, &p, 10));
    }

    #[test]
    fn knn_prunes_instead_of_scanning_everything() {
        let (pool, index, _) = build(50_000, 307);
        let mut stats = KnnStats::default();
        index
            .knn_query_with_stats(&pool, Point3::splat(50.0), 10, &mut stats)
            .unwrap();
        assert!(stats.records_expanded > 0);
        assert!(
            stats.object_pages_read < index.num_object_pages() / 4,
            "kNN read {} of {} object pages — the bound is not pruning",
            stats.object_pages_read,
            index.num_object_pages()
        );
        assert!(stats.records_pruned > 0);
        assert!(stats.max_frontier_len > 0);
    }

    #[test]
    fn ties_at_the_kth_distance_break_by_physical_location() {
        // Six satellites exactly equidistant from the center, plus random
        // filler far away; k cuts through the tie group, so the winners
        // must be the smallest (page, slot) among the tied candidates —
        // independent of expansion order.
        let center = Point3::splat(50.0);
        let mut entries = Vec::new();
        for (i, offset) in [
            Point3::new(8.0, 0.0, 0.0),
            Point3::new(-8.0, 0.0, 0.0),
            Point3::new(0.0, 8.0, 0.0),
            Point3::new(0.0, -8.0, 0.0),
            Point3::new(0.0, 0.0, 8.0),
            Point3::new(0.0, 0.0, -8.0),
        ]
        .iter()
        .enumerate()
        {
            entries.push(Entry::new(i as u64, Aabb::cube(center + *offset, 2.0)));
        }
        let mut rng = StdRng::seed_from_u64(309);
        for i in 0..4000u64 {
            let c = Point3::new(
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
            );
            if c.distance(&center) > 20.0 {
                entries.push(Entry::new(100 + i, Aabb::cube(c, 0.4)));
            }
        }
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(&mut pool, entries, FlatOptions::default()).unwrap();

        let tied = index.knn_query(&pool, center, 6).unwrap();
        assert_eq!(
            tied.iter().filter(|n| n.dist_sq == tied[0].dist_sq).count(),
            6
        );
        let mut expected: Vec<(flat_storage::PageId, u16)> =
            tied.iter().map(|n| (n.hit.page, n.hit.slot)).collect();
        expected.sort();
        expected.truncate(3);

        let got = index.knn_query(&pool, center, 3).unwrap();
        let mut got_loc: Vec<(flat_storage::PageId, u16)> =
            got.iter().map(|n| (n.hit.page, n.hit.slot)).collect();
        got_loc.sort();
        assert_eq!(got_loc, expected, "tie not broken by physical location");
    }

    #[test]
    fn knn_works_with_ids_layout() {
        let entries = random_entries(3_000, 308);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(
            &mut pool,
            entries.clone(),
            FlatOptions {
                layout: LeafLayout::WithIds,
                ..FlatOptions::default()
            },
        )
        .unwrap();
        let p = Point3::splat(33.0);
        let got = index.knn_query(&pool, p, 5).unwrap();
        // Under WithIds the reported ids are the application ids.
        for n in &got {
            let original = &entries[n.hit.id as usize];
            assert_eq!(original.mbr, n.hit.mbr);
        }
    }

    fn rtree(entries: &[Entry], method: BulkLoad) -> (ConcurrentBufferPool<MemStore>, RTree) {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let tree =
            RTree::bulk_load(&mut pool, entries.to_vec(), method, RTreeConfig::default()).unwrap();
        (pool, tree)
    }

    #[test]
    fn rtree_knn_matches_brute_force() {
        let entries = random_entries(12_000, 92);
        let (pool, tree) = rtree(&entries, BulkLoad::Hilbert);
        for (p, k) in [
            (Point3::splat(50.0), 1),
            (Point3::new(10.0, 90.0, 40.0), 17),
            (Point3::new(-200.0, 50.0, 500.0), 64), // far outside
        ] {
            let got = rtree_knn(&tree, &pool, p, k).unwrap();
            let got_dists: Vec<f64> = got.iter().map(|n| n.dist_sq).collect();
            assert_eq!(
                got_dists,
                brute_force_dists(&entries, &p, k),
                "k={k} at {p}"
            );
        }
    }

    #[test]
    fn rtree_knn_edge_cases() {
        let (pool, empty) = rtree(&[], BulkLoad::Str);
        assert!(rtree_knn(&empty, &pool, Point3::ORIGIN, 5)
            .unwrap()
            .is_empty());

        let entries = random_entries(300, 93);
        let (pool, tree) = rtree(&entries, BulkLoad::Str);
        assert!(rtree_knn(&tree, &pool, Point3::ORIGIN, 0)
            .unwrap()
            .is_empty());
        // k beyond the dataset returns everything.
        let all = rtree_knn(&tree, &pool, Point3::splat(50.0), 10_000).unwrap();
        assert_eq!(all.len(), entries.len());
    }
}
