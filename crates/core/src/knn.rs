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
//!    the frontier record with the smallest partition-MBR distance,
//!    scanning its object page when its page MBR may still contribute, and
//!    enqueueing its neighbors. A max-heap of the k best elements found so
//!    far supplies the shrinking pruning bound.
//!
//! Exactness rests on the tiling invariants (§V-A): partitions cover space
//! with no gaps and touching partitions are linked, so for any distance
//! bound `d` the set of partitions within `d` of the query point is
//! connected through neighbor links and contains the seed. The expansion
//! therefore reaches every partition that could hold a top-k element
//! before the bound closes below it; `knn_matches_brute_force` in the
//! tests checks the result against a full scan.
//!
//! An expansion reads the record of *every* unseen neighbor (the key is
//! in the record), so those reads are certain before the first is issued:
//! the crawl announces them to the pool as a batch
//! ([`PageRead::want_pages`]) and a device-backed pool fetches them side
//! by side. The order in which neighbors are marked seen, keyed and
//! pushed is unchanged, so results and [`KnnStats`] do not depend on
//! whether the pool listens.

use crate::index::FlatIndex;
use crate::meta::{meta_leaf_len, MetaRecordId, MetaView};
use crate::query::{read_record, walk_links, want_meta_page, AddrSet, IndexRef, LivePage};
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
    let config = *tree.config();
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
            let page = pool.read_page(page_id, config.leaf_kind)?;
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
            let page = pool.read_page(page_id, config.inner_kind)?;
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
        IndexRef::Flat(self).knn(pool, point, k, stats)
    }
}

impl IndexRef<'_> {
    /// The kNN evaluation every entry point shares.
    pub(crate) fn knn(
        self,
        pool: &impl PageRead,
        point: Point3,
        k: usize,
        stats: &mut KnnStats,
    ) -> Result<Vec<Neighbor>, StorageError> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let Some(seed) = self.knn_seed(pool, point)? else {
            return Ok(Vec::new());
        };
        let tombstones = self.tombstones();

        // The best-first crawl; `best`'s bound prunes (∞ until full).
        let mut best = TopK::new(k);
        let mut seen: AddrSet<MetaRecordId> = AddrSet::default();
        let mut frontier: BinaryHeap<Reverse<(MinKey, MetaRecordId)>> = BinaryHeap::new();
        // Scratch of one expansion (see the loop's tail), reused across turns.
        let mut fresh: Vec<MetaRecordId> = Vec::new();
        let mut wants: Vec<(PageId, PageKind)> = Vec::new();
        seen.insert(seed);
        let key = read_record(pool, seed)?
            .partition_mbr
            .distance_sq_to_point(&point);
        frontier.push(Reverse((MinKey(key), seed)));

        while let Some(Reverse((MinKey(dist), addr))) = frontier.pop() {
            // Everything still on the frontier is at least this far away;
            // once the top-k is full and closer, nothing can improve.
            if dist > best.bound() {
                stats.records_pruned += frontier.len() as u64 + 1;
                break;
            }
            stats.max_frontier_len = stats.max_frontier_len.max(frontier.len() + 1);
            stats.records_expanded += 1;
            let record = read_record(pool, addr)?;

            // Scan the object page only while its page MBR can still hold
            // a top-k element (the kNN analogue of §VI's page-MBR test).
            if record.page_mbr.distance_sq_to_point(&point) <= best.bound() {
                stats.object_pages_read += 1;
                for hit in LivePage::read(pool, record.object_page, tombstones)?.hits() {
                    best.offer(hit, hit.mbr.distance_sq_to_point(&point));
                }
            }

            // Expand the neighbor links (following continuation chains for
            // over-full neighbor lists). Pruning with the *current* bound
            // is safe: the bound only shrinks, and any partition within the
            // final bound stays reachable through partitions at least as
            // close (the tiling's connectivity argument, module docs).
            //
            // Every unseen neighbor's record is read unconditionally (its
            // key decides whether it joins the frontier), so a chunk's
            // unseen neighbors are collected first, their distinct
            // metadata pages announced to the pool in one go, and the keys
            // computed afterwards in the same order — the bound does not
            // move during an expansion, so answers and `KnnStats` are
            // those of reading each neighbor as it is met.
            let bound = best.bound();
            walk_links(pool, &record, |chunk| {
                fresh.clear();
                wants.clear();
                for neighbor in chunk.neighbors() {
                    if seen.insert(neighbor) {
                        fresh.push(neighbor);
                        want_meta_page(&mut wants, neighbor.page);
                    }
                }
                pool.want_pages(&wants);
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
                Ok(())
            })?;
        }
        Ok(best.into_neighbors())
    }

    /// The kNN seed: the live primary record whose page MBR is nearest to
    /// `point` (`None` for an empty index) — a best-first descent of the
    /// seed tree, cost near the tree height like the range seed, against a
    /// scan of the resident summaries of the partitions outside the tree;
    /// the closer page MBR wins. Any live record is a correct entry point
    /// (the best-first crawl's bound starts unbounded), a near one just
    /// prunes sooner.
    fn knn_seed(
        self,
        pool: &impl PageRead,
        point: Point3,
    ) -> Result<Option<MetaRecordId>, StorageError> {
        let outside = self
            .delta_parts()
            .map(|p| (MinKey(p.page_mbr.distance_sq_to_point(&point)), p.record))
            .min();
        let base = self.base();
        let mut heap: BinaryHeap<Reverse<(MinKey, SeedItem)>> = BinaryHeap::new();
        heap.extend(base.seed_root.map(|page| {
            let level = base.seed_height;
            Reverse((MinKey(0.0), SeedItem::Node { page, level }))
        }));
        while let Some(Reverse((key, item))) = heap.pop() {
            match item {
                // The winning heap key is the record's distance: comparing
                // it with the outside candidate costs no extra page read.
                SeedItem::Record(addr) => {
                    return Ok(Some(match outside {
                        Some((outside_key, outside_addr)) if outside_key < key => outside_addr,
                        _ => addr,
                    }))
                }
                SeedItem::Node { page, level: 1 } => {
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
                }
                SeedItem::Node { page, level } => {
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
        Ok(outside.map(|(_, addr)| addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{FlatIndex, FlatOptions};
    use flat_geom::Aabb;
    use flat_rtree::{BulkLoad, Entry, RTreeConfig};
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
