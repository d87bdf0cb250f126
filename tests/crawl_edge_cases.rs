//! Crawl edge cases: degenerate queries and boundary seeds, checked
//! against brute force — plus the degenerate states of the dynamic-update layer
//! (fully-deleted index, delete-then-reinsert, delta-only index, empty
//! compaction).

use flat_repro::prelude::*;
use flat_repro::storage::StorageError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod common;
use common::assert_answers_match;

fn grid_entries(side: usize, spacing: f64) -> Vec<Entry> {
    // A regular grid of small cubes filling [0, side·spacing)³ — boundary
    // geometry is exact, so queries can be placed precisely on seams.
    let mut entries = Vec::new();
    let mut id = 0u64;
    for x in 0..side {
        for y in 0..side {
            for z in 0..side {
                let c = Point3::new(
                    (x as f64 + 0.5) * spacing,
                    (y as f64 + 0.5) * spacing,
                    (z as f64 + 0.5) * spacing,
                );
                entries.push(Entry::new(id, Aabb::cube(c, spacing * 0.4)));
                id += 1;
            }
        }
    }
    entries
}

fn build(entries: Vec<Entry>) -> (ConcurrentBufferPool<MemStore>, FlatIndex) {
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(&mut pool, entries, FlatOptions::default())
        .expect("in-memory build cannot fail");
    (pool, index)
}

fn brute_force(entries: &[Entry], q: &Aabb) -> usize {
    entries.iter().filter(|e| q.intersects(&e.mbr)).count()
}

#[test]
fn query_touching_zero_pages() {
    // The query box lies in the gap between element rows: it intersects
    // partition tiles (space is fully tiled) but no page MBR, so the seed
    // phase probes and rejects candidates and the crawl never starts.
    let entries = grid_entries(10, 10.0);
    let (pool, index) = build(entries.clone());
    // Elements occupy ±2 around cell centers (side 4 cubes); the seam at
    // x ∈ [8, 12] misses them... except it doesn't: [8,12] overlaps
    // nothing since cubes span [3,7], [13,17], etc.
    let q = Aabb::from_corners(Point3::new(8.0, 8.0, 8.0), Point3::new(12.0, 12.0, 12.0));
    assert_eq!(brute_force(&entries, &q), 0, "test geometry drifted");
    assert!(index.range_query(&pool, &q).unwrap().is_empty());
}

#[test]
fn query_fully_inside_one_page() {
    // A tiny box strictly inside a single element: exactly one hit, and
    // the crawl terminates after its immediate neighborhood.
    let entries = grid_entries(10, 10.0);
    let (pool, index) = build(entries.clone());
    let target = entries[555].mbr;
    let q = Aabb::cube(target.center(), 0.1);
    assert_eq!(brute_force(&entries, &q), 1);
    let hits = index.range_query(&pool, &q).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].mbr, target);
}

#[test]
fn seed_page_at_dataset_boundary() {
    // Queries clamped to the corners and faces of the domain: the seed
    // lands on a boundary partition whose neighbor list is the smallest
    // (a corner tile has no neighbors outside the domain), a regime where
    // an off-by-one in neighbor enumeration would lose results.
    let entries = grid_entries(10, 10.0);
    let (pool, index) = build(entries.clone());
    let corners = [
        Point3::new(0.0, 0.0, 0.0),
        Point3::new(100.0, 0.0, 0.0),
        Point3::new(0.0, 100.0, 100.0),
        Point3::new(100.0, 100.0, 100.0),
        Point3::new(50.0, 0.0, 50.0), // face midpoint
    ];
    for corner in corners {
        let q = Aabb::cube(corner, 25.0); // sticks out past the domain
        let expected = brute_force(&entries, &q);
        let serial = index.range_query(&pool, &q).unwrap();
        assert_eq!(serial.len(), expected, "corner {corner}");
        assert!(expected > 0, "boundary query should not be empty");
    }
}

#[test]
fn empty_index_queries() {
    let (pool, index) = build(Vec::new());
    for q in [
        Aabb::cube(Point3::splat(0.0), 10.0),
        Aabb::point(Point3::splat(5.0)),
        Aabb::cube(Point3::splat(1e9), 1.0),
    ] {
        assert!(index.range_query(&pool, &q).unwrap().is_empty());
        assert!(index.seed_only(&pool, &q).unwrap().is_none());
    }
    assert!(index
        .knn_query(&pool, Point3::splat(0.0), 3)
        .unwrap()
        .is_empty());
}

// ---------- dynamic-update edge cases ----------

fn delta_options() -> FlatOptions {
    FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(Aabb::from_corners(Point3::splat(0.0), Point3::splat(100.0))),
        ..FlatOptions::default()
    }
}

fn build_delta(entries: Vec<Entry>) -> (ConcurrentBufferPool<MemStore>, DeltaIndex) {
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(&mut pool, entries, delta_options()).expect("build");
    let delta = DeltaIndex::new(&pool, index, delta_options()).expect("adopt");
    (pool, delta)
}

fn assert_invariants(pool: &ConcurrentBufferPool<MemStore>, delta: &DeltaIndex) {
    delta
        .check_invariants(pool, &pool.store().free_pages())
        .unwrap_or_else(|e| panic!("invariants violated: {e}"));
}

#[test]
fn fully_deleted_index_answers_queries() {
    let entries = grid_entries(6, 10.0);
    let ids: Vec<u64> = entries.iter().map(|e| e.id).collect();
    let (mut pool, mut delta) = build_delta(entries);
    assert_eq!(delta.delete_batch(&mut pool, &ids).unwrap(), ids.len());
    assert_eq!(delta.num_live_elements(), 0);
    assert_eq!(
        delta.num_live_partitions(),
        0,
        "every partition must retire"
    );
    assert!(pool.store().num_free() > 0, "object pages must be freed");
    assert_invariants(&pool, &delta);
    for q in [
        Aabb::cube(Point3::splat(30.0), 10.0),
        Aabb::cube(Point3::splat(30.0), 500.0),
        Aabb::point(Point3::splat(5.0)),
    ] {
        assert!(delta.range_query(&pool, &q).unwrap().is_empty());
    }
    assert!(delta
        .knn_query(&pool, Point3::splat(30.0), 7)
        .unwrap()
        .is_empty());
    // A fully-deleted index is still mutable: reinsert and query again.
    let fresh: Vec<Entry> = (0..200u64)
        .map(|i| {
            Entry::new(
                10_000 + i,
                Aabb::cube(Point3::splat((i % 50) as f64 + 25.0), 1.0),
            )
        })
        .collect();
    delta.insert_batch(&mut pool, fresh.clone()).unwrap();
    let q = Aabb::cube(Point3::splat(50.0), 500.0);
    assert_eq!(delta.range_query(&pool, &q).unwrap().len(), fresh.len());
    assert_invariants(&pool, &delta);
}

#[test]
fn delete_then_reinsert_at_same_coordinates() {
    let entries = grid_entries(6, 10.0);
    let (mut pool, mut delta) = build_delta(entries.clone());
    // Delete a handful of elements, then reinsert entries with the *same
    // coordinates* — first under fresh ids, then reusing the deleted ids
    // (legal once the old tenant is gone).
    let victims: Vec<&Entry> = entries.iter().take(10).collect();
    let victim_ids: Vec<u64> = victims.iter().map(|e| e.id).collect();
    delta.delete_batch(&mut pool, &victim_ids).unwrap();
    for v in &victims {
        let q = Aabb::point(v.mbr.center());
        assert!(
            delta
                .range_query(&pool, &q)
                .unwrap()
                .iter()
                .all(|h| h.id != v.id),
            "deleted element still visible"
        );
    }
    let fresh: Vec<Entry> = victims
        .iter()
        .enumerate()
        .map(|(i, v)| Entry::new(20_000 + i as u64, v.mbr))
        .collect();
    delta.insert_batch(&mut pool, fresh).unwrap();
    let reused: Vec<Entry> = victims.iter().map(|v| Entry::new(v.id, v.mbr)).collect();
    delta.insert_batch(&mut pool, reused).unwrap();
    assert_eq!(delta.num_live_elements(), entries.len() as u64 + 10);
    for v in &victims {
        let q = Aabb::point(v.mbr.center());
        let hits = delta.range_query(&pool, &q).unwrap();
        assert!(hits.iter().any(|h| h.id == v.id), "reused id not visible");
        assert!(
            hits.iter().any(|h| h.id >= 20_000),
            "fresh copy not visible"
        );
    }
    assert_invariants(&pool, &delta);
}

#[test]
fn delta_only_index_with_empty_base() {
    // Start from a completely empty bulkload: everything the index ever
    // holds arrives through insert batches.
    let (mut pool, mut delta) = build_delta(Vec::new());
    assert_eq!(delta.num_live_elements(), 0);
    assert!(delta
        .range_query(&pool, &Aabb::cube(Point3::splat(50.0), 20.0))
        .unwrap()
        .is_empty());

    let batch_a = grid_entries(5, 10.0);
    let batch_b: Vec<Entry> = grid_entries(4, 10.0)
        .into_iter()
        .map(|e| {
            Entry::new(
                30_000 + e.id,
                Aabb::cube(e.mbr.center() + Point3::splat(3.0), 2.0),
            )
        })
        .collect();
    let mut all = batch_a.clone();
    delta.insert_batch(&mut pool, batch_a).unwrap();
    assert_invariants(&pool, &delta);
    all.extend(batch_b.iter().copied());
    delta.insert_batch(&mut pool, batch_b).unwrap();
    assert_invariants(&pool, &delta);

    for (c, side) in [(25.0, 12.0), (50.0, 35.0), (50.0, 500.0)] {
        let q = Aabb::cube(Point3::splat(c), side);
        let expected = all.iter().filter(|e| q.intersects(&e.mbr)).count();
        assert_eq!(delta.range_query(&pool, &q).unwrap().len(), expected);
    }
    // kNN over a delta-only index (the seed comes from the summary scan,
    // not the seed tree).
    let p = Point3::splat(42.0);
    let got = delta.knn_query(&pool, p, 5).unwrap();
    let mut dists: Vec<f64> = all.iter().map(|e| e.mbr.distance_sq_to_point(&p)).collect();
    dists.sort_by(|a, b| a.total_cmp(b));
    let got_d: Vec<f64> = got.iter().map(|n| n.dist_sq).collect();
    assert_eq!(got_d, dists[..5].to_vec());
}

#[test]
fn compaction_of_an_empty_delta_is_an_identity() {
    // Compacting with no updates applied must reproduce the original
    // pages exactly (same survivor set, same builder) and leave nothing
    // on the free list.
    let entries = grid_entries(7, 10.0);
    let (mut pool, mut delta) = build_delta(entries.clone());
    let before: Vec<Vec<u8>> = {
        let store = pool.store();
        let mut page = Page::new();
        (0..store.num_pages())
            .map(|i| {
                store.read_page(PageId(i), &mut page).unwrap();
                page.bytes().to_vec()
            })
            .collect()
    };
    delta.compact(&mut pool).unwrap();
    assert_eq!(pool.store().num_pages(), before.len() as u64);
    assert_eq!(
        pool.store().num_free(),
        0,
        "identity compaction leaks pages"
    );
    let mut page = Page::new();
    for (i, expected) in before.iter().enumerate() {
        pool.store().read_page(PageId(i as u64), &mut page).unwrap();
        assert_eq!(page.bytes(), &expected[..], "page {i} changed");
    }
    assert_invariants(&pool, &delta);
    // And compacting a fully-deleted index leaves an empty one.
    let ids: Vec<u64> = entries.iter().map(|e| e.id).collect();
    delta.delete_batch(&mut pool, &ids).unwrap();
    delta.compact(&mut pool).unwrap();
    assert_eq!(delta.num_live_elements(), 0);
    assert_eq!(
        pool.store().num_free(),
        pool.store().num_pages(),
        "an empty index owns no pages"
    );
    assert!(delta
        .range_query(&pool, &Aabb::cube(Point3::splat(50.0), 500.0))
        .unwrap()
        .is_empty());
}

#[test]
fn whole_domain_and_oversized_queries() {
    // The other extreme: queries covering everything (and more) return
    // each element exactly once.
    let entries = grid_entries(8, 10.0);
    let (pool, index) = build(entries.clone());
    let q = Aabb::cube(Point3::splat(40.0), 1000.0);
    let hits = index.range_query(&pool, &q).unwrap();
    assert_eq!(hits.len(), entries.len());
    let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), entries.len(), "duplicates in oversized query");
}

// === Shard-boundary edge cases (the sharded serving layer) ============

fn sharded_grid(k: usize, side: usize, spacing: f64) -> (Vec<Entry>, ShardedDb<MemStore>) {
    let entries = grid_entries(side, spacing);
    let extent = side as f64 * spacing;
    let options = ShardOptions {
        index: FlatOptions {
            layout: LeafLayout::WithIds,
            domain: Some(Aabb::new(Point3::splat(0.0), Point3::splat(extent))),
            ..FlatOptions::default()
        },
        ..ShardOptions::default()
    };
    let db = ShardedDb::build_in_memory(k, entries.clone(), options).expect("build");
    (entries, db)
}

fn sharded_ids(db: &ShardedDb<MemStore>, q: &Aabb) -> Vec<u64> {
    db.range_query(q).unwrap().iter().map(|h| h.id).collect()
}

fn expected_ids(entries: &[Entry], q: &Aabb) -> Vec<u64> {
    let mut ids: Vec<u64> = entries
        .iter()
        .filter(|e| q.intersects(&e.mbr))
        .map(|e| e.id)
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn query_straddling_three_shards() {
    // Four x-slabs over an 8³ grid; a thin slab centered on the domain
    // crosses the two interior cut planes, touching three shards at once.
    let (entries, db) = sharded_grid(4, 8, 10.0);
    let q = Aabb::new(Point3::new(18.0, 0.0, 0.0), Point3::new(42.0, 80.0, 80.0));
    let crossed = (0..db.num_shards())
        .filter(|&i| db.shard_coverage(i).intersects(&q))
        .count();
    assert!(crossed >= 3, "query only crossed {crossed} shards");
    assert_eq!(sharded_ids(&db, &q), expected_ids(&entries, &q));
    // A query pinned exactly on one cut plane still answers exactly.
    let cut = db.shard_coverage(0).max.x;
    let seam = Aabb::new(Point3::new(cut, 0.0, 0.0), Point3::new(cut, 80.0, 80.0));
    assert_eq!(sharded_ids(&db, &seam), expected_ids(&entries, &seam));
}

#[test]
fn empty_shards_stay_silent() {
    // More shards than distinct x-centers: the padding shards own nothing.
    // Queries spanning the whole domain (and probes near the padded edge)
    // must not double-count or miss.
    let mut entries = Vec::new();
    for (i, x) in [5.0, 5.0, 5.0, 15.0].iter().enumerate() {
        entries.push(Entry::new(
            i as u64,
            Aabb::cube(Point3::new(*x, 10.0, 10.0), 1.0),
        ));
    }
    let options = ShardOptions {
        index: FlatOptions {
            layout: LeafLayout::WithIds,
            domain: Some(Aabb::new(Point3::splat(0.0), Point3::splat(20.0))),
            ..FlatOptions::default()
        },
        ..ShardOptions::default()
    };
    let db = ShardedDb::build_in_memory(4, entries.clone(), options).expect("build");
    let whole = Aabb::new(Point3::splat(0.0), Point3::splat(20.0));
    assert_eq!(sharded_ids(&db, &whole), vec![0, 1, 2, 3]);
    // The padded shards sit at the domain's upper x face.
    let edge = Aabb::new(Point3::new(20.0, 0.0, 0.0), Point3::splat(20.0));
    assert!(sharded_ids(&db, &edge).is_empty());
    // kNN across the whole set, including from the empty region.
    let nn = db.knn_query(Point3::new(19.0, 10.0, 10.0), 4).unwrap();
    let ids: Vec<u64> = nn.iter().map(|n| n.hit.id).collect();
    assert_eq!(ids[0], 3, "nearest must come from the populated side");
    assert_eq!(nn.len(), 4);
}

#[test]
fn all_elements_in_one_shard() {
    // Clustered data: every element's center falls into shard 0's slab,
    // the rest of the shards exist but own nothing. Queries anywhere in
    // the domain (including the empty region) answer exactly.
    let entries: Vec<Entry> = (0..500)
        .map(|i| {
            let t = i as f64 / 500.0;
            Entry::new(
                i as u64,
                Aabb::cube(Point3::new(1.0 + t, 50.0 * t + 10.0, 30.0), 0.5),
            )
        })
        .collect();
    let options = ShardOptions {
        index: FlatOptions {
            layout: LeafLayout::WithIds,
            domain: Some(Aabb::new(Point3::splat(0.0), Point3::splat(100.0))),
            ..FlatOptions::default()
        },
        ..ShardOptions::default()
    };
    let db = ShardedDb::build_in_memory(4, entries.clone(), options).expect("build");
    let populated = (0..db.num_shards())
        .filter(|&i| {
            let c = db.shard_coverage(i);
            entries.iter().any(|e| c.contains(&e.mbr))
        })
        .count();
    let whole = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
    assert_eq!(sharded_ids(&db, &whole).len(), 500);
    assert!(populated >= 1);
    // Far corner: empty result, not an error.
    assert!(sharded_ids(&db, &Aabb::cube(Point3::splat(95.0), 2.0)).is_empty());
    // kNN from the far corner crosses back to the cluster.
    let nn = db.knn_query(Point3::splat(99.0), 7).unwrap();
    assert_eq!(nn.len(), 7);
}

#[test]
fn single_shard_equals_single_index() {
    // K = 1 must be byte-equivalent to one FLAT index (same ids, same
    // MBRs) for boundary geometry.
    let (entries, db) = sharded_grid(1, 6, 10.0);
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let options = FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(Aabb::new(Point3::splat(0.0), Point3::splat(60.0))),
        ..FlatOptions::default()
    };
    let (single, _) = FlatIndex::build(&mut pool, entries, options).expect("build");
    for q in [
        Aabb::cube(Point3::splat(30.0), 8.0),
        Aabb::new(Point3::new(10.0, 0.0, 0.0), Point3::new(10.0, 60.0, 60.0)),
        Aabb::point(Point3::splat(15.0)),
    ] {
        let mut expect: Vec<u64> = single
            .range_query(&pool, &q)
            .unwrap()
            .iter()
            .map(|h| h.id)
            .collect();
        expect.sort_unstable();
        assert_eq!(sharded_ids(&db, &q), expect, "query {q:?}");
    }
}

/// A store whose device dies once its fuse runs out: every page write
/// decrements the shared fuse, and at zero this write and all later ones
/// fail. `u64::MAX` (the initial value) never burns down.
struct FusedStore {
    inner: MemStore,
    fuse: Arc<AtomicU64>,
}

impl PageStore for FusedStore {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.inner.alloc()
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
        self.fuse
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .map_err(|_| StorageError::Io(std::io::Error::other("device died")))?;
        self.inner.write_page(id, page)
    }

    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
        self.inner.read_page(id, out)
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
        self.inner.free_page(id)
    }

    fn free_pages(&self) -> Vec<PageId> {
        self.inner.free_pages()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
}

#[test]
fn failed_shard_batch_is_a_typed_error_and_stays_isolated() {
    // 9 grid columns of spacing 10 over three shards: columns 0-2, 3-5
    // and 6-8, so x = 15 / 45 / 75 route to shards 0 / 1 / 2 and the ids
    // of column c are c*81 .. (c+1)*81.
    let entries = grid_entries(9, 10.0);
    let domain = Aabb::new(Point3::splat(0.0), Point3::splat(90.0));
    let fuses: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(u64::MAX))).collect();
    let options = ShardOptions {
        index: common::options(domain),
        ..ShardOptions::default()
    };
    let db = ShardedDb::build(3, entries.clone(), options, |i| FusedStore {
        inner: MemStore::new(),
        fuse: fuses[i].clone(),
    })
    .expect("build");
    let mut live: HashMap<u64, Entry> = entries.iter().map(|e| (e.id, *e)).collect();
    let column = |x: f64, base: u64, n: u64| -> Vec<Entry> {
        (0..n)
            .map(|i| {
                let c = Point3::new(x, 2.0 + 2.1 * i as f64, 33.0);
                Entry::new(base + i, Aabb::cube(c, 0.3))
            })
            .collect()
    };

    // A subscription over everything must keep equalling the range query
    // after every call, failed ones included.
    let (sub, _) = db.subscribe(domain).expect("subscribe");
    let in_sync = |call: &str| {
        let mut ids: Vec<u64> = db
            .range_query(&domain)
            .unwrap()
            .iter()
            .map(|h| h.id)
            .collect();
        ids.sort_unstable();
        assert_eq!(db.continuous_result(sub).unwrap(), ids, "after {call}");
    };

    // A healthy batch across all three shards first, so the failure
    // below hits a shard that already runs on its delta layer.
    let warm = [
        column(15.0, 10_000, 8),
        column(45.0, 11_000, 8),
        column(75.0, 12_000, 8),
    ]
    .concat();
    db.insert(warm.clone()).expect("healthy insert");
    live.extend(warm.iter().map(|e| (e.id, *e)));
    in_sync("the healthy insert");

    // Shard 1's device dies one page write into its next batch, which
    // straddles shards 0 and 1: shard 0 commits its part, shard 1 fails.
    fuses[1].store(1, Ordering::SeqCst);
    let straddling = column(15.0, 20_000, 5);
    let batch = [straddling.clone(), column(45.0, 20_100, 40)].concat();
    assert!(db.insert(batch).is_err());
    live.extend(straddling.iter().map(|e| (e.id, *e)));
    in_sync("the partly failed insert");
    // From then on the shard refuses writes with a typed error...
    let err = db.insert(column(45.0, 21_000, 3)).unwrap_err();
    assert!(matches!(err, FlatError::Update(_)), "{err}");
    in_sync("the refused insert");
    let err = db.delete(&[2, 4 * 81]).unwrap_err();
    assert!(matches!(err, FlatError::Update(_)), "{err}");
    live.remove(&2); // shard 0's part of the delete committed
    in_sync("the partly failed delete");

    // ...while the other shards keep committing.
    let more = [column(15.0, 30_000, 5), column(75.0, 31_000, 5)].concat();
    db.insert(more.clone()).expect("insert into healthy shards");
    live.extend(more.iter().map(|e| (e.id, *e)));
    in_sync("the insert into healthy shards");
    let gone = [0, 1, 8 * 81];
    assert_eq!(db.delete(&gone).expect("delete from healthy shards"), 3);
    for id in gone {
        live.remove(&id);
    }
    in_sync("the delete from healthy shards");

    // Whole-database answers — the failed shard serving its last
    // published snapshot — equal exactly the committed state.
    assert_answers_match(&db, &live, &domain, 77);
}

// ---------- the wave is invisible: a record-at-a-time reference ----------

use flat_repro::core::meta::{decode_meta_record, meta_leaf_len, MetaRecordId};
use flat_repro::rtree::node::{decode_inner, decode_leaf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};
use std::time::Duration;

/// Records one crawl turn drains (`query.rs` keeps the constant private;
/// the sizes below bracket it).
const WAVE: u64 = 32;

/// The seed descent (§V-B.1) written against the public page decoders
/// only: the first primary record of the seed tree whose object page holds
/// a live element intersecting `query`, and what finding it cost. `live`
/// hides deleted application ids (the delta layer's tombstones, seen from
/// outside).
fn reference_seed(
    pool: &impl PageRead,
    index: &FlatIndex,
    query: &Aabb,
    live: &dyn Fn(u64) -> bool,
) -> (Option<MetaRecordId>, QueryStats) {
    let read = |id: PageId, kind: PageKind| pool.read_page(id, kind).expect("read");
    let mut stats = QueryStats::default();
    let mut stack: Vec<(PageId, u32)> = index
        .seed_root()
        .map(|root| (root, index.seed_height()))
        .into_iter()
        .collect();
    while let Some((page_id, level)) = stack.pop() {
        if level > 1 {
            for child in decode_inner(&read(page_id, PageKind::SeedInner)).expect("inner") {
                stats.mbr_tests += 1;
                if query.intersects(&child.mbr) {
                    stack.push((child.page, level - 1));
                }
            }
            continue;
        }
        let leaf = read(page_id, PageKind::SeedLeaf);
        for slot in 0..meta_leaf_len(&leaf).expect("leaf") as u16 {
            let record = decode_meta_record(&leaf, slot).expect("record");
            if record.is_continuation || record.is_dead {
                continue;
            }
            stats.mbr_tests += 1;
            if !record.page_mbr.intersects(query) {
                continue;
            }
            stats.object_pages_read += 1;
            let (_, entries) =
                decode_leaf(&read(record.object_page, PageKind::ObjectPage)).expect("leaf");
            stats.mbr_tests += entries.len() as u64;
            if entries
                .iter()
                .any(|e| live(e.id) && query.intersects(&e.mbr))
            {
                let seed = MetaRecordId {
                    page: page_id,
                    slot,
                };
                return (Some(seed), stats);
            }
            stats.seed_probe_pages += 1;
        }
    }
    (None, stats)
}

/// The range query as it was before waves — seed descent, then a BFS that
/// pops one record, reads it, scans it, expands it. Returns the hits, the
/// counters, and how many continuation chunks the crawl followed.
fn reference_range(
    pool: &impl PageRead,
    index: &FlatIndex,
    query: &Aabb,
    live: &dyn Fn(u64) -> bool,
) -> (Vec<Hit>, QueryStats, u64) {
    let read = |id: PageId, kind: PageKind| pool.read_page(id, kind).expect("read");
    let (seed, mut stats) = reference_seed(pool, index, query, live);

    let mut hits = Vec::new();
    let mut chain_reads = 0;
    let Some(seed) = seed else {
        return (hits, stats, chain_reads);
    };
    let mut queue = VecDeque::from([seed]);
    let mut seen = HashSet::from([seed]);
    while let Some(addr) = queue.pop_front() {
        stats.max_queue_len = stats.max_queue_len.max(queue.len() + 1);
        stats.records_processed += 1;
        let record =
            decode_meta_record(&read(addr.page, PageKind::SeedLeaf), addr.slot).expect("record");
        if record.is_dead {
            continue;
        }
        stats.mbr_tests += 1;
        if record.page_mbr.intersects(query) {
            stats.object_pages_read += 1;
            let (layout, entries) =
                decode_leaf(&read(record.object_page, PageKind::ObjectPage)).expect("leaf");
            for (slot, e) in entries.iter().enumerate() {
                stats.mbr_tests += 1;
                if live(e.id) && query.intersects(&e.mbr) {
                    hits.push(Hit {
                        mbr: e.mbr,
                        id: match layout {
                            LeafLayout::MbrOnly => (record.object_page.0 << 16) | e.id,
                            LeafLayout::WithIds => e.id,
                        },
                        page: record.object_page,
                        slot: slot as u16,
                    });
                }
            }
        }
        stats.mbr_tests += 1;
        if record.partition_mbr.intersects(query) {
            let mut chunk = record;
            loop {
                for neighbor in &chunk.neighbors {
                    if seen.insert(*neighbor) {
                        queue.push_back(*neighbor);
                    }
                }
                let Some(next) = chunk.continuation else {
                    break;
                };
                chain_reads += 1;
                chunk = decode_meta_record(&read(next.page, PageKind::SeedLeaf), next.slot)
                    .expect("chunk");
            }
        }
    }
    stats.records_seen = seen.len() as u64;
    stats.result_count = hits.len() as u64;
    (hits, stats, chain_reads)
}

/// The aggregate count as a record-at-a-time crawl: the range crawl with
/// counting in place of hits and the containment early-exit. `resident`
/// says the index keeps live counts in memory (a delta layer): a contained
/// partition is then counted without its object page being read.
fn reference_aggregate(
    pool: &impl PageRead,
    index: &FlatIndex,
    query: &Aabb,
    live: &dyn Fn(u64) -> bool,
    resident: bool,
) -> (u64, AggregateStats) {
    let read = |id: PageId, kind: PageKind| pool.read_page(id, kind).expect("read");
    let mut stats = AggregateStats::default();
    let (Some(seed), seed_stats) = reference_seed(pool, index, query, live) else {
        return (0, stats);
    };
    stats.object_pages_read = seed_stats.object_pages_read;
    stats.mbr_tests = seed_stats.mbr_tests;

    let mut count = 0;
    let mut queue = VecDeque::from([seed]);
    let mut seen = HashSet::from([seed]);
    while let Some(addr) = queue.pop_front() {
        stats.records_processed += 1;
        let record =
            decode_meta_record(&read(addr.page, PageKind::SeedLeaf), addr.slot).expect("record");
        if record.is_dead {
            continue;
        }
        stats.mbr_tests += 1;
        if record.page_mbr.intersects(query) {
            // The reference peeks at every page; only the reads the
            // aggregate is entitled to are counted.
            let (_, entries) =
                decode_leaf(&read(record.object_page, PageKind::ObjectPage)).expect("leaf");
            let alive = entries.iter().filter(|e| live(e.id));
            stats.mbr_tests += 1;
            if query.contains(&record.page_mbr) {
                stats.contained_partitions += 1;
                if resident {
                    stats.pages_skipped += 1;
                } else {
                    stats.object_pages_read += 1;
                }
                count += alive.count() as u64;
            } else {
                stats.object_pages_read += 1;
                stats.mbr_tests += entries.len() as u64;
                count += alive.filter(|e| query.intersects(&e.mbr)).count() as u64;
            }
        }
        stats.mbr_tests += 1;
        if record.partition_mbr.intersects(query) {
            let mut chunk = record;
            loop {
                for neighbor in &chunk.neighbors {
                    if seen.insert(*neighbor) {
                        queue.push_back(*neighbor);
                    }
                }
                let Some(next) = chunk.continuation else {
                    break;
                };
                chunk = decode_meta_record(&read(next.page, PageKind::SeedLeaf), next.slot)
                    .expect("chunk");
            }
        }
    }
    (count, stats)
}

fn random_entries(n: usize, seed: u64) -> Vec<Entry> {
    let domain = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
    common::fresh_entries(n, 0, &domain, seed)
}

/// A page-for-page copy of `src` (free list included).
fn copy_store(src: &MemStore) -> MemStore {
    let mut copy = MemStore::new();
    let free = src.free_pages();
    let mut page = Page::new();
    for i in 0..src.num_pages() {
        let id = copy.alloc().expect("alloc");
        if !free.contains(&id) {
            src.read_page(PageId(i), &mut page).expect("read");
            copy.write_page(id, &page).expect("write");
        }
    }
    for id in free.into_iter().rev() {
        copy.free_page(id).expect("free");
    }
    copy
}

type DevicePool = VersionedPool<ThrottledStore<MemStore>>;

/// The serving stack's read path over a copy of `src`: an epoch-pinnable
/// pool whose cache has I/O workers in front of a slow queue-depth-8
/// device, small enough (64 pages) that crawls evict their own pages.
fn device_pool(src: &MemStore) -> DevicePool {
    let device = ThrottledStore::with_parallelism(copy_store(src), Duration::from_micros(20), 8);
    let cache = ConcurrentBufferPool::with_config(device, 64, SchedulerConfig::default());
    VersionedPool::from_cache(cache)
}

/// The same pages behind the two kinds of pool a query can run over: the
/// cache the index was built in (misses fetched inline) and the serving
/// stack's device pool.
struct Pools {
    inline: ConcurrentBufferPool<MemStore>,
    device: DevicePool,
}

impl Pools {
    fn over(inline: ConcurrentBufferPool<MemStore>) -> Pools {
        let device = device_pool(&inline.store());
        Pools { inline, device }
    }
}

/// Evaluates `$body` with `$pool` bound to each of the two pools in turn
/// (the device pool through an epoch pin — the one that listens to
/// announcements) and returns both values.
macro_rules! on_each_pool {
    ($pools:expr, |$pool:ident| $body:expr) => {{
        let pin = $pools.device.pin();
        [
            {
                let $pool = &$pools.inline;
                $body
            },
            {
                let $pool = &pin;
                $body
            },
        ]
    }};
}

/// The kernel must agree with the reference on everything observable:
/// hits, their order, and every counter. Returns the reference's counters
/// and chain reads.
fn assert_range_matches_reference(
    pool: &impl PageRead,
    index: &FlatIndex,
    delta: Option<&DeltaIndex>,
    query: &Aabb,
    live: &dyn Fn(u64) -> bool,
) -> (QueryStats, u64) {
    let (expect_hits, expect_stats, chain_reads) = reference_range(pool, index, query, live);
    let mut stats = QueryStats::default();
    let hits = match delta {
        Some(delta) => delta.range_query_with_stats(pool, query, &mut stats),
        None => index.range_query_with_stats(pool, query, &mut stats),
    }
    .expect("range query");
    assert_eq!(
        hits, expect_hits,
        "hits or hit order diverged for {query:?}"
    );
    assert_eq!(stats, expect_stats, "counters diverged for {query:?}");
    (expect_stats, chain_reads)
}

/// Same for the aggregate: the count and every counter, the containment
/// early-exit included. Returns the counters.
fn assert_aggregate_matches_reference(
    pool: &impl PageRead,
    index: &FlatIndex,
    delta: Option<&DeltaIndex>,
    query: &Aabb,
    live: &dyn Fn(u64) -> bool,
) -> AggregateStats {
    let (expect_count, expect_stats) =
        reference_aggregate(pool, index, query, live, delta.is_some());
    let mut stats = AggregateStats::default();
    let count = match delta {
        Some(delta) => delta.aggregate_count_with_stats(pool, query, &mut stats),
        None => index.aggregate_count_with_stats(pool, query, &mut stats),
    }
    .expect("aggregate");
    assert_eq!(count, expect_count, "count diverged for {query:?}");
    assert_eq!(stats, expect_stats, "counters diverged for {query:?}");
    stats
}

#[test]
fn waves_are_invisible_at_every_crawl_size() {
    let entries = random_entries(20_000, 901);
    let (pool, index) = build(entries);
    let everything = |_: u64| true;

    // Sweep query sizes around a few centers on the in-memory pool,
    // checking each against the reference and keeping the first query
    // seen for each crawl size.
    let mut by_size: HashMap<u64, Aabb> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(902);
    for _ in 0..16 {
        let center = Point3::new(
            rng.gen_range(20.0..80.0),
            rng.gen_range(20.0..80.0),
            rng.gen_range(20.0..80.0),
        );
        for step in 1..=220 {
            let query = Aabb::cube(center, 0.1 * step as f64);
            let (stats, _) =
                assert_range_matches_reference(&pool, &index, None, &query, &everything);
            by_size.entry(stats.records_processed).or_insert(query);
        }
    }
    let whole = Aabb::cube(Point3::splat(50.0), 250.0);
    let (stats, _) = assert_range_matches_reference(&pool, &index, None, &whole, &everything);
    assert!(stats.records_processed > 4 * WAVE, "dataset too small");

    // One crawl of each size around the one- and two-wave boundaries,
    // plus the many-waves crawl, over both pools.
    let mut queries = vec![whole];
    for size in [
        WAVE - 1,
        WAVE,
        WAVE + 1,
        2 * WAVE - 1,
        2 * WAVE,
        2 * WAVE + 1,
    ] {
        match by_size.get(&size) {
            Some(query) => queries.push(*query),
            None if size > WAVE + 1 => {} // the second boundary is a bonus
            None => {
                let mut found: Vec<&u64> = by_size.keys().collect();
                found.sort();
                panic!("sweep produced no crawl of {size} records (sizes seen: {found:?})")
            }
        }
    }
    let pools = Pools::over(pool);
    for query in &queries {
        let stats = on_each_pool!(pools, |p| assert_range_matches_reference(
            p,
            &index,
            None,
            query,
            &everything
        ));
        assert_eq!(stats[0], stats[1]);
        // The aggregate crosses the same kernel: same records, same waves.
        let counted = on_each_pool!(pools, |p| assert_aggregate_matches_reference(
            p,
            &index,
            None,
            query,
            &everything
        ));
        assert_eq!(counted[0], counted[1]);
        assert_eq!(counted[0].records_processed, stats[0].0.records_processed);
        assert_eq!(
            counted[0].pages_skipped, 0,
            "a pristine index keeps no counts"
        );
    }
    // The whole-domain query contains partitions: their elements are
    // counted without being tested.
    let mut contained = AggregateStats::default();
    let all = index.aggregate_count_with_stats(&pools.inline, &whole, &mut contained);
    assert_eq!(all.unwrap(), 20_000);
    assert!(contained.contained_partitions > 0, "{contained:?}");
    // The device pool heard the announcements: some reads found their
    // fetch already in flight.
    let lanes = pools.device.cache().scheduler_stats();
    assert!(lanes.demand_coalesced > 0, "{lanes:?}");
    assert_eq!(lanes.demand_submitted, lanes.demand_completed);
}

#[test]
fn a_one_record_crawl_is_a_one_record_wave() {
    // A single partition: the seed is the whole crawl.
    let (pool, index) = build(random_entries(30, 907));
    let pools = Pools::over(pool);
    let query = Aabb::cube(Point3::splat(50.0), 250.0);
    let stats = on_each_pool!(pools, |p| {
        assert_range_matches_reference(p, &index, None, &query, &|_| true).0
    });
    for stats in stats {
        assert_eq!(stats.records_processed, 1);
        assert_eq!(stats.max_queue_len, 1);
        assert_eq!(stats.result_count, 30);
    }
}

#[test]
fn waves_are_invisible_across_continuation_chains() {
    // A few enormous elements stretch their partitions across the domain:
    // their neighbor lists overflow one record, so the crawl follows
    // continuation chunks in the middle of a wave.
    let mut entries = random_entries(40_000, 903);
    for i in 0..5u64 {
        let lo = Point3::splat(1.0 + i as f64);
        let hi = Point3::splat(99.0 - i as f64);
        entries.push(Entry::new(70_000 + i, Aabb::from_corners(lo, hi)));
    }
    let (pool, index) = build(entries);
    let pools = Pools::over(pool);
    let everything = |_: u64| true;
    for (c, side) in [(50.0, 10.0), (20.0, 30.0), (50.0, 250.0)] {
        let query = Aabb::cube(Point3::splat(c), side);
        let [(stats, chain_reads), ..] = on_each_pool!(pools, |p| {
            assert_range_matches_reference(p, &index, None, &query, &everything)
        });
        assert!(stats.records_processed > WAVE);
        assert!(chain_reads > 0, "no continuation chunk was followed");
    }
}

#[test]
fn waves_are_invisible_over_a_tombstoned_delta_and_in_knn() {
    let entries = random_entries(20_000, 904);
    let (mut pool, mut delta) = build_delta(entries.clone());
    // ≈ 8 % tombstones, spread over every partition.
    let deleted: HashSet<u64> = entries
        .iter()
        .map(|e| e.id)
        .filter(|id| id % 12 == 5)
        .collect();
    let doomed: Vec<u64> = deleted.iter().copied().collect();
    assert_eq!(
        delta.delete_batch(&mut pool, &doomed).unwrap(),
        doomed.len()
    );
    assert_invariants(&pool, &delta);
    let survivors: Vec<Entry> = entries
        .iter()
        .filter(|e| !deleted.contains(&e.id))
        .copied()
        .collect();
    let live = |id: u64| !deleted.contains(&id);
    let pools = Pools::over(pool);

    let mut rng = StdRng::seed_from_u64(905);
    for round in 0..10 {
        let center = Point3::new(
            rng.gen_range(0.0..100.0),
            rng.gen_range(0.0..100.0),
            rng.gen_range(0.0..100.0),
        );
        let side = if round == 0 {
            250.0
        } else {
            rng.gen_range(2.0..30.0)
        };
        let query = Aabb::cube(center, side);
        let stats = on_each_pool!(pools, |p| {
            assert_range_matches_reference(p, delta.base(), Some(&delta), &query, &live).0
        });
        assert_eq!(stats[0], stats[1]);
        assert_eq!(
            stats[0].result_count as usize,
            brute_force(&survivors, &query)
        );

        // The aggregate over the delta: contained partitions come from the
        // resident live counts (tombstones excluded), so their object
        // pages are neither announced nor read.
        let counted = on_each_pool!(pools, |p| {
            assert_aggregate_matches_reference(p, delta.base(), Some(&delta), &query, &live)
        });
        assert_eq!(counted[0], counted[1]);
        assert_eq!(counted[0].pages_skipped, counted[0].contained_partitions);
        if round == 0 {
            assert!(counted[0].pages_skipped > 0, "{:?}", counted[0]);
        }

        // kNN: identical answers and counters whichever pool serves them,
        // and the distances a full scan finds.
        let k = rng.gen_range(1..60);
        let answers = on_each_pool!(pools, |p| {
            let mut stats = KnnStats::default();
            let got = delta
                .knn_query_with_stats(p, center, k, &mut stats)
                .expect("kNN");
            (got, stats)
        });
        assert_eq!(answers[0], answers[1]);
        let mut brute: Vec<f64> = survivors
            .iter()
            .map(|e| e.mbr.distance_sq_to_point(&center))
            .collect();
        brute.sort_by(f64::total_cmp);
        brute.truncate(k);
        let got: Vec<f64> = answers[0].0.iter().map(|n| n.dist_sq).collect();
        assert_eq!(got, brute, "kNN k={k} at {center}");
    }
}

// ---------- joins cross the same kernel ----------

/// Every `(outer id, inner id)` pair within `eps`, sorted — by definition.
fn brute_join(outer: &[Entry], inner: &[Entry], eps: f64) -> Vec<(u64, u64)> {
    let mut pairs = Vec::new();
    for a in outer {
        for b in inner {
            if a.mbr.distance_sq(&b.mbr) <= eps * eps {
                pairs.push((a.id, b.id));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Runs the join over each of the two pools (both sides through the same
/// pool), asserts pairs and counters do not depend on which, and that the
/// pairs are the brute-force ones. Returns the counters.
fn join_on_each_pool(
    pools: &Pools,
    (outer, outer_live): (JoinInput<'_>, &[Entry]),
    (inner, inner_live): (JoinInput<'_>, &[Entry]),
    eps: f64,
) -> JoinStats {
    let engine = JoinEngine::new(eps);
    let [first, second] = on_each_pool!(pools, |p| engine.join(p, outer, p, inner).expect("join"));
    assert_eq!(first.stats, second.stats, "eps {eps}");
    assert_eq!(first.pairs, second.pairs, "eps {eps}");
    assert_eq!(
        first.pairs,
        brute_join(outer_live, inner_live, eps),
        "eps {eps}"
    );
    first.stats
}

/// Bulkloads `entries` into `pool` beside whatever it already holds (ids
/// are application ids, so brute force can name the pairs).
fn build_into(pool: &mut ConcurrentBufferPool<MemStore>, entries: &[Entry]) -> FlatIndex {
    let (index, _) = FlatIndex::build(pool, entries.to_vec(), delta_options()).expect("build");
    index
}

/// `count` small elements huddled around `center`: one partition.
fn cluster(center: Point3, count: u64, base_id: u64) -> Vec<Entry> {
    (0..count)
        .map(|i| {
            let offset = Point3::splat(0.01 * i as f64);
            Entry::new(base_id + i, Aabb::cube(center + offset, 0.05))
        })
        .collect()
}

#[test]
fn joins_are_pool_independent_at_every_inner_crawl_size() {
    // A one-partition outer side makes the join a single inner crawl, so
    // `crawl_records` is that crawl's size.
    let inner = random_entries(20_000, 911);
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let inner_index = build_into(&mut pool, &inner);
    let mut rng = StdRng::seed_from_u64(912);
    let outers: Vec<(Vec<Entry>, FlatIndex)> = (0..30)
        .map(|i| {
            let center = Point3::new(
                rng.gen_range(30.0..70.0),
                rng.gen_range(30.0..70.0),
                rng.gen_range(30.0..70.0),
            );
            let entries = cluster(center, 30, 1_000_000 + 100 * i);
            let index = build_into(&mut pool, &entries);
            assert_eq!(index.num_object_pages(), 1);
            (entries, index)
        })
        .collect();
    let lonely = cluster(Point3::splat(50.0), 30, 2_000_000);
    let lonely_index = build_into(&mut pool, &lonely);

    // Sweep ε on the in-memory pool — finely over small boxes, where the
    // crawl is a wave or two, then one box over everything — keeping the
    // first (outer, ε) seen for each inner crawl size.
    let mut by_size: HashMap<u64, (usize, f64)> = HashMap::new();
    for (which, (_, outer_index)) in outers.iter().enumerate() {
        for step in 0..=200 {
            let eps = if step < 200 {
                0.05 * step as f64
            } else {
                100.0
            };
            let result = JoinEngine::new(eps)
                .join(
                    &pool,
                    JoinInput::Flat(outer_index),
                    &pool,
                    JoinInput::Flat(&inner_index),
                )
                .expect("join");
            assert_eq!(result.stats.outer_partitions, 1);
            by_size
                .entry(result.stats.crawl_records)
                .or_insert((which, eps));
        }
    }
    let many = *by_size.keys().max().expect("sweep ran");
    assert!(many > 4 * WAVE, "dataset too small: {many}");

    let pools = Pools::over(pool);
    for size in [WAVE - 1, WAVE, WAVE + 1, many] {
        let Some(&(which, eps)) = by_size.get(&size) else {
            let mut found: Vec<&u64> = by_size.keys().collect();
            found.sort();
            panic!("sweep produced no inner crawl of {size} records (sizes seen: {found:?})")
        };
        let (outer, outer_index) = &outers[which];
        let stats = join_on_each_pool(
            &pools,
            (JoinInput::Flat(outer_index), outer),
            (JoinInput::Flat(&inner_index), &inner),
            eps,
        );
        assert_eq!(stats.crawl_records, size);
        assert_eq!((stats.seed_descents, stats.frontier_reuses), (1, 0));
    }
    // A one-record inner crawl: the seed is the whole inner side.
    let (outer, outer_index) = &outers[0];
    let stats = join_on_each_pool(
        &pools,
        (JoinInput::Flat(outer_index), outer),
        (JoinInput::Flat(&lonely_index), &lonely),
        100.0,
    );
    assert_eq!(stats.crawl_records, 1);
    assert_eq!(stats.pairs, 30 * 30);
    // The device pool heard the inner crawls' announcements.
    let lanes = pools.device.cache().scheduler_stats();
    assert!(lanes.demand_coalesced > 0, "{lanes:?}");
}

#[test]
fn joins_are_pool_independent_for_every_kind_of_side() {
    let outer = common::fresh_entries(
        3_000,
        5_000_000,
        &Aabb::new(Point3::splat(0.0), Point3::splat(100.0)),
        913,
    );
    let inner = random_entries(6_000, 914);
    // An inner side whose biggest partitions overflow one record: their
    // neighbor lists continue in chunks the crawl must follow.
    let mut chained = random_entries(40_000, 915);
    for i in 0..5u64 {
        let lo = Point3::splat(1.0 + i as f64);
        let hi = Point3::splat(99.0 - i as f64);
        chained.push(Entry::new(70_000 + i, Aabb::from_corners(lo, hi)));
    }
    let few: Vec<Entry> = outer.iter().take(400).copied().collect();

    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let outer_index = build_into(&mut pool, &outer);
    let inner_index = build_into(&mut pool, &inner);
    let chained_index = build_into(&mut pool, &chained);
    let few_index = build_into(&mut pool, &few);
    // The outer side again, as a delta layer at ≈ 8 % tombstones.
    let churned = build_into(&mut pool, &outer);
    let mut outer_delta = DeltaIndex::new(&pool, churned, delta_options()).expect("adopt");
    let deleted: HashSet<u64> = outer
        .iter()
        .map(|e| e.id)
        .filter(|id| id % 12 == 5)
        .collect();
    let doomed: Vec<u64> = deleted.iter().copied().collect();
    outer_delta
        .delete_batch(&mut pool, &doomed)
        .expect("delete");
    let survivors: Vec<Entry> = outer
        .iter()
        .filter(|e| !deleted.contains(&e.id))
        .copied()
        .collect();
    let pools = Pools::over(pool);

    for eps in [0.0, 1.5, 4.0] {
        // Flat × Flat: neighbouring outer partitions hand their partners
        // on, so most inner crawls start from several seeds at once.
        let stats = join_on_each_pool(
            &pools,
            (JoinInput::Flat(&outer_index), &outer),
            (JoinInput::Flat(&inner_index), &inner),
            eps,
        );
        assert!(stats.frontier_reuses > stats.seed_descents, "{stats:?}");
        assert_eq!(
            stats.frontier_reuses + stats.seed_descents,
            stats.outer_partitions
        );

        // Delta × Flat: tombstoned outer elements pair with nothing.
        let delta_stats = join_on_each_pool(
            &pools,
            (JoinInput::Delta(&outer_delta), &survivors),
            (JoinInput::Flat(&inner_index), &inner),
            eps,
        );
        assert!(delta_stats.pairs <= stats.pairs);

        // A self-join: every element pairs with itself at least.
        let self_stats = join_on_each_pool(
            &pools,
            (JoinInput::Flat(&inner_index), &inner),
            (JoinInput::Flat(&inner_index), &inner),
            eps,
        );
        assert!(self_stats.pairs >= inner.len() as u64);
    }

    // Continuation chains met mid-crawl: any inner crawl that reaches one
    // of the stretched partitions walks its chain.
    let eps = 1.0;
    let probe = few[0].mbr.inflate(eps);
    let (_, _, chain_reads) = reference_range(&pools.inline, &chained_index, &probe, &|_| true);
    assert!(chain_reads > 0, "no continuation chunk in reach");
    let stats = join_on_each_pool(
        &pools,
        (JoinInput::Flat(&few_index), &few),
        (JoinInput::Flat(&chained_index), &chained),
        eps,
    );
    assert!(
        stats.crawl_records > stats.outer_partitions * WAVE,
        "{stats:?}"
    );
}

// ---------- read failures under announced fetches ----------

/// A store whose reads fail once a shared budget of reads is spent
/// (`u64::MAX` never runs out): the device dying partway through a query.
struct FlakyReads {
    inner: MemStore,
    budget: Arc<AtomicU64>,
}

impl PageStore for FlakyReads {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.inner.alloc()
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
        self.inner.write_page(id, page)
    }

    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
        self.budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                if n == u64::MAX {
                    Some(n)
                } else {
                    n.checked_sub(1)
                }
            })
            .map_err(|_| StorageError::Io(std::io::Error::other("device unreadable")))?;
        self.inner.read_page(id, out)
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
        self.inner.free_page(id)
    }

    fn free_pages(&self) -> Vec<PageId> {
        self.inner.free_pages()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
}

#[test]
fn read_errors_under_announced_fetches_are_typed_and_leave_no_damage() {
    let domain = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
    let entries = random_entries(20_000, 906);
    let budget = Arc::new(AtomicU64::new(u64::MAX));
    let options = ShardOptions {
        index: common::options(domain),
        ..ShardOptions::default()
    };
    let db = ShardedDb::build(2, entries.clone(), options, |_| FlakyReads {
        inner: MemStore::new(),
        budget: budget.clone(),
    })
    .expect("build");
    // The same data behind the façade's batch verbs, on the same device.
    let mut flat = FlatDb::create(
        FlakyReads {
            inner: MemStore::new(),
            budget: budget.clone(),
        },
        DbOptions::default().with_index(common::options(domain)),
    );
    flat.build_from(entries.clone()).expect("build");
    let batch = common::recovery_queries(&domain, 14, 77);
    let probes = common::knn_probes(&domain, 77);
    let live: HashMap<u64, Entry> = entries.iter().map(|e| (e.id, *e)).collect();
    let query = Aabb::cube(Point3::splat(50.0), 60.0);
    let point = Point3::splat(50.0);

    // The device dies after 0, 1, 2, … reads of a cold query: somewhere
    // in the seed descent, then mid-wave with announced fetches in flight
    // that nobody is waiting on yet. Every failure is a typed error, none
    // hangs or panics, and none poisons the cache.
    for reads in [0, 1, 2, 3, 5, 8, 13, 21, 34] {
        let dying = |run: &dyn Fn() -> Result<usize, FlatError>| {
            db.clear_cache();
            flat.clear_cache();
            budget.store(reads, Ordering::SeqCst);
            match run() {
                Err(FlatError::Storage(StorageError::Io(_))) => {}
                Err(other) => panic!("unexpected error kind: {other}"),
                Ok(_) => panic!("a cold query cannot finish on {reads} reads"),
            }
        };
        dying(&|| db.range_query(&query).map(|hits| hits.len()));
        dying(&|| db.knn_query(point, 4000).map(|near| near.len()));
        // A batch's client threads all run into the dead device: one typed
        // error comes back once every thread has joined.
        let range_batch = || flat.query().ranges(batch.iter().copied()).run_batch();
        let knn_batch = || flat.query().knns(probes.iter().copied()).run_knn_batch();
        dying(&|| range_batch().map(|outcome| outcome.results.len()));
        dying(&|| knn_batch().map(|outcome| outcome.results.len()));
        // The device recovers: the same databases answer exactly, and the
        // next batch equals the serial answers just checked.
        budget.store(u64::MAX, Ordering::SeqCst);
        assert_answers_match(&db, &live, &domain, 78 + reads);
        assert_answers_match(&flat, &live, &domain, 78 + reads);
        let snap = flat.reader();
        for (hits, q) in range_batch().expect("batch").results.iter().zip(&batch) {
            assert_eq!(hits, &snap.range(q).expect("serial"));
        }
        for (near, &(p, k)) in knn_batch().expect("batch").results.iter().zip(&probes) {
            assert_eq!(near, &snap.knn(p, k).expect("serial"));
        }
    }
}
