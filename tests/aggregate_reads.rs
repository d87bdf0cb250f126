//! The containment early-exit: a partition whose page MBR lies inside the
//! query is counted from the live count the crawl already knows — the
//! element count its metadata record carries, or the delta layer's
//! resident count, which leaves tombstones out — so an aggregate reads
//! only the object pages the query cuts.
//!
//! Checked on a pristine bulkload, on an updated index whose contained
//! base pages hold tombstones, and on a durable index after reopen: every
//! count equals the range query's and brute force's, and a cold aggregate,
//! its reads recorded, reads no object page whose page MBR lies inside the
//! query and counts every object page it reads.

use flat_repro::prelude::*;
use flat_repro::rtree::node::decode_leaf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

#[path = "common/cache_replay.rs"]
mod cache_replay;
mod common;
use cache_replay::Recorder;
use common::{brute_force, fresh_entries, options};

fn domain() -> Aabb {
    Aabb::new(Point3::splat(0.0), Point3::splat(100.0))
}

/// Boxes from a few elements wide to the whole domain, at fixed-seed
/// centers.
fn queries() -> Vec<Aabb> {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut queries = vec![Aabb::cube(Point3::splat(50.0), 250.0)];
    for side in [3.0, 10.0, 25.0, 40.0, 60.0] {
        for _ in 0..4 {
            let center = Point3::new(
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
            );
            queries.push(Aabb::cube(center, side));
        }
    }
    queries
}

/// The page MBR of object page `page`, from the page alone: the union of
/// every slot on it, deleted ones included (a page MBR never shrinks).
fn page_mbr(pool: &impl PageRead, page: PageId) -> Aabb {
    let page = pool.read_page(page, PageKind::ObjectPage).expect("read");
    let (_, entries) = decode_leaf(&page).expect("object page");
    Aabb::union_all(entries.iter().map(|e| e.mbr))
}

/// The index under test, pristine or with its delta layer.
#[derive(Clone, Copy)]
enum Index<'a> {
    Flat(&'a FlatIndex),
    Delta(&'a DeltaIndex),
}

impl Index<'_> {
    fn count(self, pool: &impl PageRead, q: &Aabb, stats: &mut AggregateStats) -> u64 {
        match self {
            Index::Flat(index) => index.aggregate_count_with_stats(pool, q, stats),
            Index::Delta(delta) => delta.aggregate_count_with_stats(pool, q, stats),
        }
        .expect("aggregate")
    }

    fn range_len(self, pool: &impl PageRead, q: &Aabb) -> usize {
        match self {
            Index::Flat(index) => index.range_query(pool, q),
            Index::Delta(delta) => delta.range_query(pool, q),
        }
        .expect("range")
        .len()
    }
}

/// Runs every query's aggregate cold through a [`Recorder`] and checks it
/// against the range query and brute force over `survivors`, and that no
/// object page it read lies inside the query. Returns how many contained
/// partitions the queries counted.
fn assert_exact_without_contained_reads<S: PageStore>(
    pool: &ConcurrentBufferPool<S>,
    index: Index<'_>,
    survivors: &[Entry],
) -> u64 {
    let mut contained = 0;
    for (i, q) in queries().iter().enumerate() {
        let expected = brute_force(survivors, q);
        pool.clear_cache();
        let recorder = Recorder::new(pool);
        let mut stats = AggregateStats::default();
        let count = index.count(&recorder, q, &mut stats);
        let trace = recorder.into_trace();
        assert_eq!(count as usize, expected, "count, query {i}");
        assert_eq!(index.range_len(pool, q), expected, "range, query {i}");

        let object_reads: Vec<PageId> = trace
            .iter()
            .filter(|&&(_, kind)| kind == PageKind::ObjectPage)
            .map(|&(page, _)| page)
            .collect();
        // Every object read is counted: a seed descent's probes too, even
        // when the descent finds no seed.
        assert_eq!(
            stats.object_pages_read,
            object_reads.len() as u64,
            "object pages counted, query {i}"
        );
        let objects: HashSet<PageId> = object_reads.into_iter().collect();
        for &page in &objects {
            assert!(
                !q.contains(&page_mbr(pool, page)),
                "query {i} read {page}, whose page MBR lies inside it"
            );
        }
        assert_eq!(stats.pages_skipped, stats.contained_partitions);
        contained += stats.contained_partitions;
    }
    assert!(contained > 0, "no query contained a page");
    contained
}

#[test]
fn a_pristine_bulkload_counts_contained_pages_from_its_records() {
    let entries = fresh_entries(20_000, 0, &domain(), 61);
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options(domain())).unwrap();
    let contained = assert_exact_without_contained_reads(&pool, Index::Flat(&index), &entries);
    // The whole-domain query alone contains every page.
    assert!(contained >= index.num_object_pages());
}

/// A bulkload of 20 000 elements with every seventh deleted — a tombstone
/// on nearly every base page — and two insert batches on top: the
/// survivors, the pool and the index.
fn updated() -> (Vec<Entry>, ConcurrentBufferPool<MemStore>, DeltaIndex) {
    let entries = fresh_entries(20_000, 0, &domain(), 62);
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options(domain())).unwrap();
    let mut delta = DeltaIndex::new(&pool, index, options(domain())).unwrap();
    let doomed: Vec<u64> = (0..20_000).step_by(7).collect();
    assert_eq!(
        delta.delete_batch(&mut pool, &doomed).unwrap(),
        doomed.len()
    );
    let mut survivors: Vec<Entry> = entries.into_iter().filter(|e| e.id % 7 != 0).collect();
    for batch in 0..2 {
        let fresh = fresh_entries(800, 100_000 + 1_000 * batch, &domain(), 63 + batch);
        survivors.extend(fresh.iter().copied());
        delta.insert_batch(&mut pool, fresh).unwrap();
    }
    delta
        .check_invariants(&pool, &pool.store().free_pages())
        .unwrap();
    (survivors, pool, delta)
}

#[test]
fn an_updated_index_counts_contained_pages_from_its_resident_counts() {
    let (survivors, pool, delta) = updated();
    assert!(delta.num_delta_partitions() > 0);
    assert_exact_without_contained_reads(&pool, Index::Delta(&delta), &survivors);
}

#[test]
fn a_durable_index_counts_contained_pages_after_reopen() {
    let db_options = DbOptions::updatable(domain()).with_durability(Durability::Wal);
    let entries = fresh_entries(20_000, 0, &domain(), 64);
    let mut db = FlatDb::create_durable(MemStore::new(), db_options).unwrap();
    db.build_from(entries.clone()).unwrap();
    db.checkpoint().unwrap();
    let doomed: Vec<u64> = (0..20_000).step_by(7).collect();
    let fresh = fresh_entries(800, 100_000, &domain(), 65);
    {
        let mut writer = db.writer().unwrap();
        writer.delete(&doomed).unwrap();
        writer.insert(fresh.clone()).unwrap();
    }
    let mut survivors: Vec<Entry> = entries.into_iter().filter(|e| e.id % 7 != 0).collect();
    survivors.extend(fresh);

    // Reopen: the checkpoint's pages plus the replayed log.
    let (mut db, report) = FlatDb::open_durable(db.into_store(), db_options).unwrap();
    assert!(report.replayed > 0, "the updates were not replayed");
    let reader = db.reader();
    for q in queries() {
        let count = reader.aggregate_count(&q).unwrap() as usize;
        assert_eq!(count, brute_force(&survivors, &q));
    }
    drop(reader);
    db.checkpoint().unwrap();
    let delta = db.delta().expect("the replayed writes adopted the index");
    let pool = ConcurrentBufferPool::new(db.into_store(), 1 << 16);
    assert_exact_without_contained_reads(&pool, Index::Delta(&delta), &survivors);
}
