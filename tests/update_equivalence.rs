//! Differential tests for the dynamic-update layer: after **any** scripted
//! insert/delete/compact sequence, every range and kNN query over the
//! updated `DeltaIndex` must return exactly what a from-scratch
//! `FlatIndex::build` over the surviving entries returns — and after
//! `compact()`, the pages themselves must be byte-identical to that
//! rebuild.
//!
//! This is the same bit-level discipline every prior layer was pinned by
//! (batched == serial, streamed == in-memory), extended to mutation.
//!
//! Inserted (delta) partitions are reached from the delta layer's resident
//! table, not through the link graph: a query reads exactly what it read
//! on the pristine index plus the delta partitions in reach, and every
//! verb stays exact when no base partition is left at all.

use flat_repro::core::meta::meta_leaf_len;
use flat_repro::prelude::*;
use flat_repro::rtree::node::decode_leaf;

mod common;
use common::{
    brute_force, brute_join, fresh_entries, keys, knn_probes, recovery_queries, Harness, Op,
};

fn run_script(initial: Vec<Entry>, domain: Aabb, seed: u64) {
    let mut harness = Harness::new(initial, domain);
    harness.assert_equivalent(seed);

    let ids: Vec<u64> = harness.survivors.keys().copied().collect();
    let script = vec![
        // Spread deletes, then a batch of fresh inserts.
        Op::Delete(ids.iter().copied().filter(|i| i % 7 == 0).collect()),
        Op::Insert(fresh_entries(600, 1_000_000, &domain, seed ^ 1)),
        // Delete from both base and delta generations, insert again.
        Op::Delete(
            ids.iter()
                .copied()
                .filter(|i| i % 5 == 1)
                .chain((1_000_000..1_000_200).step_by(3))
                .collect(),
        ),
        Op::Insert(fresh_entries(400, 2_000_000, &domain, seed ^ 2)),
        // Kill a whole spatial stripe: partitions retire, links repair.
        Op::Delete(
            harness
                .survivors
                .values()
                .filter(|e| e.mbr.center().x < domain.min.x + domain.extents().x * 0.25)
                .map(|e| e.id)
                .collect(),
        ),
        Op::Compact,
        // Keep going after compaction: the adopted index must be as
        // mutable as the original.
        Op::Insert(fresh_entries(300, 3_000_000, &domain, seed ^ 3)),
        Op::Delete((3_000_000..3_000_150).collect()),
        Op::Compact,
    ];
    for (i, op) in script.iter().enumerate() {
        harness.apply(op);
        harness.assert_equivalent(seed ^ (i as u64) << 8);
    }
    // The structural invariants held all along (spot-check at the end).
    harness
        .delta
        .check_invariants(&harness.pool, &harness.pool.store().free_pages())
        .unwrap_or_else(|e| panic!("invariants violated at script end: {e}"));
}

#[test]
fn neuron_workload_updates_match_rebuilds() {
    let config = NeuronConfig::bbp(8, 900, 1301);
    let model = NeuronModel::generate(&config);
    run_script(model.entries(), config.domain, 9001);
}

#[test]
fn uniform_workload_updates_match_rebuilds() {
    let domain = Aabb::new(Point3::splat(0.0), Point3::splat(200.0));
    let entries = uniform_entries(&UniformConfig {
        count: 7_000,
        domain,
        element_volume: 2.0,
        length_range: (1.0, 3.0),
        seed: 1302,
    });
    run_script(entries, domain, 9002);
}

#[test]
fn churn_workload_stays_equivalent_across_timesteps() {
    // The evolving-simulation scenario end to end: the data crate's churn
    // generator drives the delta layer; every timestep stays
    // query-equivalent to a rebuild over the generator's live set.
    let domain = Aabb::new(Point3::splat(0.0), Point3::splat(120.0));
    let entries = uniform_entries(&UniformConfig {
        count: 5_000,
        domain,
        element_volume: 1.0,
        length_range: (1.0, 2.0),
        seed: 1303,
    });
    let mut churn = ChurnWorkload::new(entries.clone(), domain, ChurnConfig::steady(400, 77));
    let mut harness = Harness::new(entries, domain);
    for step in 0..4 {
        let batch = churn.step();
        harness.apply(&Op::Delete(batch.deletes.clone()));
        harness.apply(&Op::Insert(batch.inserts.clone()));
        assert_eq!(
            harness.survivors.len(),
            churn.live().len(),
            "ground truths disagree at step {step}"
        );
        harness.assert_equivalent(4000 + step);
    }
    harness.apply(&Op::Compact);
    harness.assert_equivalent(4999);
}

/// The page MBR of every object page in `ids` — the pages an insert batch
/// wrote hold its partitions' elements, and with nothing deleted a page
/// MBR is the union of its elements' MBRs.
fn object_page_mbrs(pool: &ConcurrentBufferPool<MemStore>, ids: std::ops::Range<u64>) -> Vec<Aabb> {
    let store = pool.store();
    let mut page = Page::new();
    ids.filter_map(|id| {
        store.read_page(PageId(id), &mut page).unwrap();
        if meta_leaf_len(&page).is_ok() {
            return None; // a metadata page
        }
        let (_, entries) = decode_leaf(&page).unwrap();
        Some(Aabb::union_all(entries.iter().map(|e| e.mbr)))
    })
    .collect()
}

/// On a cache without I/O workers, a cold range query over a delta index
/// reads exactly the pages it read on the pristine index, plus one object
/// page per live delta partition whose page MBR meets the box: the base
/// crawl is unchanged by inserts, and delta partitions cost no metadata
/// read at all.
#[test]
fn a_cold_range_query_reads_the_pristine_pages_plus_the_delta_partitions_it_meets() {
    let domain = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
    let mut harness = Harness::new(fresh_entries(8_000, 0, &domain, 1401), domain);
    let queries = recovery_queries(&domain, 16, 1402);
    let cold_reads = |harness: &Harness, query: &Aabb| {
        harness.pool.clear_cache();
        harness.pool.reset_stats();
        harness.delta.range_query(&harness.pool, query).unwrap();
        harness.pool.stats().total_physical_reads()
    };
    let pristine: Vec<u64> = queries.iter().map(|q| cold_reads(&harness, q)).collect();

    let first_new = harness.pool.store().num_pages();
    for (batch, seed) in [1403, 1404, 1405].into_iter().enumerate() {
        let first_id = 1_000_000 * (batch as u64 + 1);
        harness.apply(&Op::Insert(fresh_entries(700, first_id, &domain, seed)));
    }
    let last = harness.pool.store().num_pages();
    let delta_pages = object_page_mbrs(&harness.pool, first_new..last);
    assert_eq!(delta_pages.len(), harness.delta.num_delta_partitions());

    let mut met = 0;
    for (i, (query, before)) in queries.iter().zip(pristine).enumerate() {
        let meets = delta_pages
            .iter()
            .filter(|mbr| mbr.intersects(query))
            .count() as u64;
        met += meets;
        assert_eq!(
            cold_reads(&harness, query),
            before + meets,
            "query {i}: {before} pristine reads, {meets} delta partitions in reach"
        );
    }
    assert!(met > 0, "no query reached a delta partition");
    harness.assert_equivalent(1406);
}

/// Range, aggregate, kNN and the join in both orientations over the
/// harness's delta index answer exactly what brute force over its
/// survivors answers. `seed` seeds the range queries, `seed + 1` the kNN
/// probes and `seed + 2` the other side of the join.
fn assert_every_verb_matches_brute_force(harness: &Harness, seed: u64) {
    let (delta, pool, domain) = (&harness.delta, &harness.pool, harness.domain);
    let survivors: Vec<Entry> = harness.survivors.values().copied().collect();

    for (i, query) in recovery_queries(&domain, 12, seed).iter().enumerate() {
        let expected: Vec<Hit> = survivors
            .iter()
            .filter(|e| query.intersects(&e.mbr))
            .map(|e| Hit {
                mbr: e.mbr,
                id: e.id,
                page: PageId(0),
                slot: 0,
            })
            .collect();
        let hits = delta.range_query(pool, query).unwrap();
        assert_eq!(keys(&hits), keys(&expected), "range query {i}");
        assert_eq!(
            delta.aggregate_count(pool, query).unwrap(),
            brute_force(&survivors, query) as u64,
            "aggregate {i}"
        );
    }

    for (i, (point, k)) in knn_probes(&domain, seed + 1).into_iter().enumerate() {
        let got: Vec<f64> = delta
            .knn_query(pool, point, k)
            .unwrap()
            .iter()
            .map(|n| n.dist_sq)
            .collect();
        let mut expected: Vec<f64> = survivors
            .iter()
            .map(|e| e.mbr.distance_sq_to_point(&point))
            .collect();
        expected.sort_by(f64::total_cmp);
        expected.truncate(k);
        assert_eq!(got, expected, "kNN probe {i}, k {k}");
    }

    let other = fresh_entries(1_500, 5_000_000, &domain, seed + 2);
    let mut other_pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (other_index, _) =
        FlatIndex::build(&mut other_pool, other.clone(), common::options(domain)).unwrap();
    for eps in [0.0, 1.0, 3.0] {
        let engine = JoinEngine::new(eps);
        let outer = engine
            .join(
                pool,
                JoinInput::Delta(delta),
                &other_pool,
                JoinInput::Flat(&other_index),
            )
            .unwrap();
        assert_eq!(
            outer.pairs,
            brute_join(&survivors, &other, eps),
            "delta outer, eps {eps}"
        );
        let inner = engine
            .join(
                &other_pool,
                JoinInput::Flat(&other_index),
                pool,
                JoinInput::Delta(delta),
            )
            .unwrap();
        assert_eq!(
            inner.pairs,
            brute_join(&other, &survivors, eps),
            "delta inner, eps {eps}"
        );
        assert!(!outer.pairs.is_empty() || eps == 0.0);
    }
}

/// Range, aggregate, kNN and the join in both orientations stay exact on
/// an index whose bulkload has retired completely: the seed tree offers no
/// live entry point, so every answer comes from the delta partitions the
/// resident table lists.
#[test]
fn every_verb_is_exact_once_every_base_partition_has_retired() {
    let domain = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
    let base = fresh_entries(3_000, 0, &domain, 1411);
    let mut harness = Harness::new(base.clone(), domain);
    harness.apply(&Op::Insert(fresh_entries(900, 1_000_000, &domain, 1412)));
    harness.apply(&Op::Insert(fresh_entries(500, 2_000_000, &domain, 1413)));
    harness.apply(&Op::Delete(base.iter().map(|e| e.id).collect()));
    let delta = &harness.delta;
    assert!(delta.num_delta_partitions() > 0);
    assert_eq!(
        delta.num_live_partitions(),
        delta.num_delta_partitions(),
        "a base partition is still live"
    );
    assert_every_verb_matches_brute_force(&harness, 1414);
    harness.assert_equivalent(1417);
}

/// Insert batches merge like a binary counter: after n batches the tier
/// stack's levels are the binary digits of n. Range, aggregate, kNN and
/// the join in both orientations stay exact after 1, 3, 4, 7 and 16
/// batches, with deletes in between — among them deletes that retire
/// partitions of a level-0 tier before the next batch merges it — and a
/// full compaction still writes the pages of a fresh build.
#[test]
fn every_verb_is_exact_at_every_height_of_the_tier_stack() {
    let domain = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
    let mut harness = Harness::new(fresh_entries(3_000, 0, &domain, 1431), domain);
    let mut retired_before_a_merge = 0;
    for n in 1..=16u64 {
        let batch = fresh_entries(250, n * 1_000_000, &domain, 1431 + n);
        harness.apply(&Op::Insert(batch.clone()));
        let levels: Vec<u32> = harness.delta.tiers().iter().map(|t| t.0).collect();
        let digits: Vec<u32> = (0..64).rev().filter(|bit| n >> bit & 1 == 1).collect();
        assert_eq!(levels, digits, "tier levels after {n} batches");

        // A spread of ids across the base and every earlier batch.
        let spread = harness.survivors.keys().copied().filter(|i| i % 29 == n);
        harness.apply(&Op::Delete(spread.collect()));
        if n % 2 == 1 {
            // The batch is the level-0 tier the next batch merges: empty
            // the left half of its tiling, so whole partitions retire.
            let live = harness.delta.num_delta_partitions();
            let left = batch.iter().filter(|e| e.mbr.center().x < 60.0);
            harness.apply(&Op::Delete(left.map(|e| e.id).collect()));
            let retired = live - harness.delta.num_delta_partitions();
            assert!(retired > 0, "batch {n}: no delta partition retired");
            retired_before_a_merge += retired;
        }
        harness
            .delta
            .check_invariants(&harness.pool, &harness.pool.store().free_pages())
            .unwrap_or_else(|e| panic!("invariants violated after {n} batches: {e}"));
        if [1, 3, 4, 7, 16].contains(&n) {
            assert_every_verb_matches_brute_force(&harness, 1450 + 3 * n);
            harness.assert_equivalent(1500 + n);
        }
    }
    assert!(retired_before_a_merge >= 8, "{retired_before_a_merge}");
    harness.apply(&Op::Compact);
    assert!(harness.delta.tiers().is_empty());
    harness.assert_equivalent(1517);
}

/// Retiring every bulkload partition of a middle x-slab leaves a wall of
/// dead records between the two halves of the data: a crawl seeded on one
/// side reaches the other only through the links the dead records keep.
/// Range, aggregate, kNN and the join in both orientations stay exact,
/// with answers on both sides of the wall.
#[test]
fn crawls_cross_retired_partitions() {
    let domain = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
    let base = fresh_entries(6_000, 0, &domain, 1421);
    let mut harness = Harness::new(base, domain);

    // The bulkload's object pages come first; delete every element of
    // each page that lies within the slab.
    let objects = harness.delta.base().num_object_pages();
    let slab = |mbr: &Aabb| mbr.min.x >= 30.0 && mbr.max.x <= 70.0;
    let mut doomed = Vec::new();
    let mut page = Page::new();
    for id in 0..objects {
        harness
            .pool
            .store()
            .read_page(PageId(id), &mut page)
            .unwrap();
        let (_, entries) = decode_leaf(&page).unwrap();
        if slab(&Aabb::union_all(entries.iter().map(|e| e.mbr))) {
            doomed.extend(entries.iter().map(|e| e.id));
        }
    }
    let live = harness.delta.num_live_partitions();
    harness.apply(&Op::Delete(doomed));
    let retired = live - harness.delta.num_live_partitions();
    assert!(retired > 3, "{retired} partitions retired");
    let survivors: Vec<Entry> = harness.survivors.values().copied().collect();
    let band = Aabb::from_corners(
        Point3::new(42.0, -10.0, -10.0),
        Point3::new(58.0, 110.0, 110.0),
    );
    assert!(
        survivors.iter().all(|e| !e.mbr.intersects(&band)),
        "the retired partitions do not wall the band off"
    );
    let report = harness
        .delta
        .check_invariants(&harness.pool, &harness.pool.store().free_pages())
        .unwrap();
    assert_eq!(report.retired_partitions, retired);
    let (delta, pool) = (&harness.delta, &harness.pool);
    let both_sides = |xs: &mut dyn Iterator<Item = f64>| {
        let (mut left, mut right) = (false, false);
        for x in xs {
            left |= x < 40.0;
            right |= x > 60.0;
        }
        left && right
    };

    // Boxes across the wall.
    for (i, (y, z)) in [(5.0, 5.0), (30.0, 60.0), (70.0, 20.0), (88.0, 88.0)]
        .into_iter()
        .enumerate()
    {
        let query =
            Aabb::from_corners(Point3::new(15.0, y, z), Point3::new(85.0, y + 9.0, z + 9.0));
        let expected: Vec<Hit> = survivors
            .iter()
            .filter(|e| query.intersects(&e.mbr))
            .map(|e| Hit {
                mbr: e.mbr,
                id: e.id,
                page: PageId(0),
                slot: 0,
            })
            .collect();
        let hits = delta.range_query(pool, &query).unwrap();
        assert_eq!(keys(&hits), keys(&expected), "range query {i}");
        assert!(
            both_sides(&mut hits.iter().map(|h| h.mbr.center().x)),
            "range query {i} has answers on one side only"
        );
        assert_eq!(
            delta.aggregate_count(pool, &query).unwrap(),
            brute_force(&survivors, &query) as u64,
            "aggregate {i}"
        );
    }

    // Probes inside the wall: the nearest survivors lie on both sides.
    for (i, (y, z)) in [(10.0, 50.0), (50.0, 50.0), (85.0, 30.0)]
        .into_iter()
        .enumerate()
    {
        let point = Point3::new(50.0, y, z);
        let k = 60;
        let got = delta.knn_query(pool, point, k).unwrap();
        let mut expected: Vec<f64> = survivors
            .iter()
            .map(|e| e.mbr.distance_sq_to_point(&point))
            .collect();
        expected.sort_by(f64::total_cmp);
        expected.truncate(k);
        let dists: Vec<f64> = got.iter().map(|n| n.dist_sq).collect();
        assert_eq!(dists, expected, "kNN probe {i}");
        assert!(
            both_sides(&mut got.iter().map(|n| n.hit.mbr.center().x)),
            "kNN probe {i} has answers on one side only"
        );
    }

    // The join in both orientations, against an index over the whole
    // domain.
    let other = fresh_entries(1_500, 5_000_000, &domain, 1422);
    let mut other_pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (other_index, _) =
        FlatIndex::build(&mut other_pool, other.clone(), common::options(domain)).unwrap();
    for eps in [1.0, 4.0] {
        let engine = JoinEngine::new(eps);
        let outer = engine
            .join(
                pool,
                JoinInput::Delta(delta),
                &other_pool,
                JoinInput::Flat(&other_index),
            )
            .unwrap();
        assert_eq!(
            outer.pairs,
            brute_join(&survivors, &other, eps),
            "delta outer, eps {eps}"
        );
        let inner = engine
            .join(
                &other_pool,
                JoinInput::Flat(&other_index),
                pool,
                JoinInput::Delta(delta),
            )
            .unwrap();
        let expected = brute_join(&other, &survivors, eps);
        assert_eq!(inner.pairs, expected, "delta inner, eps {eps}");
        let by_id: std::collections::HashMap<u64, &Entry> =
            survivors.iter().map(|e| (e.id, e)).collect();
        assert!(
            both_sides(&mut expected.iter().map(|&(_, id)| by_id[&id].mbr.center().x)),
            "the join has answers on one side only"
        );
    }
    harness.assert_equivalent(1423);
}
