//! Randomized property tests on the core data structures and the
//! invariants the paper's correctness argument rests on:
//!
//! * geometry kernel algebraic laws;
//! * space-filling-curve bijectivity and locality;
//! * FLAT partitioning invariants (capacity, coverage, stretching);
//! * query equivalence between FLAT, an R-tree, and brute force on
//!   arbitrary data and arbitrary queries;
//! * dynamic-update invariants: randomized insert/delete/compact
//!   sequences keep neighbor links symmetric, never link to a retired
//!   partition, keep MBRs containing their live elements, and never leave
//!   a freed page reachable from a crawl.
//!
//! The build environment is offline, so instead of `proptest` these run a
//! fixed number of deterministic seeded cases per property — every failure
//! reports its case seed for replay. CI widens the net: `FLAT_PROP_SEED`
//! offsets every case seed, and the workflow runs the suite under several
//! offsets in release mode.

use flat_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{
    fresh_entries, run_crash_session, verify_crash_recovery, Op, SessionOutcome, SharedStore,
};
use flat_repro::storage::CrashStyle;

/// Seed offset for the CI property matrix: every case seed is shifted by
/// `FLAT_PROP_SEED`, so each matrix entry explores a disjoint case set.
fn prop_seed() -> u64 {
    std::env::var("FLAT_PROP_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
        .wrapping_mul(0x9E37_79B9)
}

fn point(rng: &mut StdRng, range: f64) -> Point3 {
    Point3::new(
        rng.gen_range(-range..range),
        rng.gen_range(-range..range),
        rng.gen_range(-range..range),
    )
}

fn aabb(rng: &mut StdRng, range: f64) -> Aabb {
    Aabb::from_corners(point(rng, range), point(rng, range))
}

/// Small boxes with positive extent, for datasets.
fn element(rng: &mut StdRng, range: f64) -> Aabb {
    let c = point(rng, range);
    let extents = Point3::new(
        rng.gen_range(0.01..2.0),
        rng.gen_range(0.01..2.0),
        rng.gen_range(0.01..2.0),
    );
    Aabb::centered(c, extents)
}

fn elements(rng: &mut StdRng, n: usize, range: f64) -> Vec<Entry> {
    (0..n)
        .map(|i| Entry::new(i as u64, element(rng, range)))
        .collect()
}

// ---------- geometry ----------

#[test]
fn union_is_commutative_and_contains_inputs() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(1000 + case);
        let (a, b) = (aabb(&mut rng, 100.0), aabb(&mut rng, 100.0));
        let u = a.union(&b);
        assert_eq!(u, b.union(&a), "case {case}");
        assert!(u.contains(&a) && u.contains(&b), "case {case}");
    }
}

#[test]
fn intersection_is_symmetric_and_consistent() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(2000 + case);
        let (a, b) = (aabb(&mut rng, 100.0), aabb(&mut rng, 100.0));
        assert_eq!(a.intersects(&b), b.intersects(&a), "case {case}");
        match a.intersection(&b) {
            Some(i) => {
                assert!(a.intersects(&b), "case {case}");
                assert!(a.contains(&i) && b.contains(&i), "case {case}");
            }
            None => assert!(!a.intersects(&b), "case {case}"),
        }
    }
}

#[test]
fn containment_implies_intersection() {
    let mut checked = 0;
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(3000 + case);
        let a = aabb(&mut rng, 100.0);
        // Nested box: guaranteed containment cases alongside random ones.
        let b = if case % 2 == 0 {
            Aabb::centered(a.center(), a.extents() * rng.gen_range(0.1..0.9))
        } else {
            aabb(&mut rng, 100.0)
        };
        if a.contains(&b) {
            assert!(a.intersects(&b), "case {case}");
            assert!(a.volume() >= b.volume(), "case {case}");
            checked += 1;
        }
    }
    assert!(
        checked > 50,
        "containment cases were not exercised ({checked})"
    );
}

#[test]
fn enlargement_is_nonnegative() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(4000 + case);
        let (a, b) = (aabb(&mut rng, 100.0), aabb(&mut rng, 100.0));
        assert!(a.enlargement(&b) >= -1e-9, "case {case}");
    }
}

#[test]
fn stretch_establishes_containment() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(5000 + case);
        let (mut a, b) = (aabb(&mut rng, 100.0), aabb(&mut rng, 100.0));
        a.stretch_to_contain(&b);
        assert!(a.contains(&b), "case {case}");
    }
}

// ---------- space-filling curves ----------

#[test]
fn hilbert_roundtrips() {
    let mut rng = StdRng::seed_from_u64(6000);
    for case in 0..200 {
        let p = [
            rng.gen_range(0u32..1024),
            rng.gen_range(0u32..1024),
            rng.gen_range(0u32..1024),
        ];
        let h = flat_repro::sfc::hilbert::hilbert_index(p, 10);
        assert_eq!(
            flat_repro::sfc::hilbert::hilbert_point(h, 10),
            p,
            "case {case}"
        );
    }
}

#[test]
fn hilbert_consecutive_cells_are_adjacent() {
    let mut rng = StdRng::seed_from_u64(7000);
    for case in 0..200 {
        let h = rng.gen_range(0u64..(1 << 15) - 1);
        let a = flat_repro::sfc::hilbert::hilbert_point(h, 5);
        let b = flat_repro::sfc::hilbert::hilbert_point(h + 1, 5);
        let dist: u32 = (0..3).map(|d| a[d].abs_diff(b[d])).sum();
        assert_eq!(
            dist,
            1,
            "case {case}: curve step {} -> {} is not a lattice step",
            h,
            h + 1
        );
    }
}

#[test]
fn morton_roundtrips() {
    let mut rng = StdRng::seed_from_u64(8000);
    for case in 0..200 {
        let p = [
            rng.gen_range(0u32..(1 << 21)),
            rng.gen_range(0u32..(1 << 21)),
            rng.gen_range(0u32..(1 << 21)),
        ];
        let m = flat_repro::sfc::morton::morton_index(p, 21);
        assert_eq!(
            flat_repro::sfc::morton::morton_point(m, 21),
            p,
            "case {case}"
        );
    }
}

// ---------- page formats ----------

#[test]
fn leaf_page_roundtrips() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(9000 + case);
        let n = rng.gen_range(1..=73usize);
        let layout = if case % 2 == 0 {
            LeafLayout::WithIds
        } else {
            LeafLayout::MbrOnly
        };
        let entries: Vec<Entry> = (0..n)
            .map(|i| Entry::new(i as u64 + 500, element(&mut rng, 1000.0)))
            .collect();
        let mut page = Page::new();
        flat_repro::rtree::node::encode_leaf(&entries, layout, &mut page);
        let (decoded_layout, decoded) = flat_repro::rtree::node::decode_leaf(&page).unwrap();
        assert_eq!(decoded_layout, layout, "case {case}");
        assert_eq!(decoded.len(), entries.len(), "case {case}");
        for (slot, (d, e)) in decoded.iter().zip(entries.iter()).enumerate() {
            assert_eq!(d.mbr, e.mbr, "case {case}");
            match layout {
                LeafLayout::WithIds => assert_eq!(d.id, e.id, "case {case}"),
                LeafLayout::MbrOnly => assert_eq!(d.id, slot as u64, "case {case}"),
            }
        }
    }
}

// ---------- heavier properties, fewer cases ----------

#[test]
fn partitioning_invariants_hold() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(10_000 + case);
        let n = rng.gen_range(200..800usize);
        let capacity = rng.gen_range(10..85usize);
        let entries = elements(&mut rng, n, 50.0);
        let parts = flat_repro::core::partition::partition(entries, capacity, None);
        // Capacity and conservation.
        let total: usize = parts.iter().map(|p| p.elements.len()).sum();
        assert_eq!(total, n, "case {case}");
        for p in &parts {
            assert!(!p.elements.is_empty(), "case {case}");
            assert!(p.elements.len() <= capacity, "case {case}");
            // Invariant 2: partition MBR ⊇ page MBR ⊇ each element.
            assert!(p.partition_mbr.contains(&p.page_mbr), "case {case}");
            for e in &p.elements {
                assert!(p.page_mbr.contains(&e.mbr), "case {case}");
            }
        }
        // Invariant 1 (no empty space): probe coverage over the union.
        let domain = Aabb::union_all(parts.iter().map(|p| p.partition_mbr));
        flat_repro::core::partition::verify_tiling(&parts, &domain, 6)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

#[test]
fn flat_equals_rtree_equals_brute_force() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(11_000 + case);
        let n = rng.gen_range(100..600usize);
        let entries = elements(&mut rng, n, 50.0);
        let query = aabb(&mut rng, 60.0);
        let expected = entries.iter().filter(|e| query.intersects(&e.mbr)).count();

        let mut flat_pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 14);
        let (flat, _) =
            FlatIndex::build(&mut flat_pool, entries.clone(), FlatOptions::default()).unwrap();
        let flat_hits = flat.range_query(&flat_pool, &query).unwrap();
        assert_eq!(
            flat_hits.len(),
            expected,
            "case {case}: FLAT vs brute force"
        );

        let mut rt_pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 14);
        let tree =
            RTree::bulk_load(&mut rt_pool, entries, BulkLoad::Str, RTreeConfig::default()).unwrap();
        let rt_hits = tree.range_query(&rt_pool, &query).unwrap();
        assert_eq!(
            rt_hits.len(),
            expected,
            "case {case}: R-tree vs brute force"
        );
    }
}

#[test]
fn rtree_structural_invariants_after_random_inserts() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(12_000 + case);
        let n = rng.gen_range(50..300usize);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 14);
        let mut tree = RTree::new_empty(RTreeConfig {
            layout: LeafLayout::WithIds,
        });
        for i in 0..n {
            tree.insert(&mut pool, Entry::new(i as u64, element(&mut rng, 50.0)))
                .unwrap();
        }
        let report = flat_repro::rtree::validate::check_invariants(&pool, &tree)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(report.elements, n as u64, "case {case}");
    }
}

#[test]
fn delta_update_sequences_maintain_structural_invariants() {
    // Randomized update sequences over a DeltaIndex. After every batch the
    // structural invariants must hold: the bulkload's neighbor links,
    // retired partitions included, MBRs containing their live elements,
    // and no freed page reachable from any crawl
    // (`DeltaIndex::check_invariants` verifies all of it against the
    // pages).
    let offset = prop_seed();
    for case in 0..6u64 {
        let case_seed = 14_000 + offset + case;
        let mut rng = StdRng::seed_from_u64(case_seed);
        let domain = Aabb::new(
            Point3::splat(0.0),
            Point3::splat(rng.gen_range(60.0..140.0)),
        );
        let options = FlatOptions {
            layout: LeafLayout::WithIds,
            domain: Some(domain),
            ..FlatOptions::default()
        };
        let initial = rng.gen_range(1_000..4_000usize);
        let mut next_id = initial as u64;
        let entries: Vec<Entry> = (0..initial)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(domain.min.x..domain.max.x),
                    rng.gen_range(domain.min.y..domain.max.y),
                    rng.gen_range(domain.min.z..domain.max.z),
                );
                Entry::new(i as u64, Aabb::cube(c, rng.gen_range(0.1..1.5)))
            })
            .collect();
        let mut live: Vec<u64> = entries.iter().map(|e| e.id).collect();
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(&mut pool, entries, options)
            .unwrap_or_else(|e| panic!("case {case_seed}: {e}"));
        let mut delta = DeltaIndex::new(&pool, index, options)
            .unwrap_or_else(|e| panic!("case {case_seed}: {e}"));

        for op in 0..8 {
            match rng.gen_range(0..4u32) {
                // Insert a fresh batch.
                0 => {
                    let n = rng.gen_range(1..600usize);
                    let batch: Vec<Entry> = (0..n)
                        .map(|_| {
                            let c = Point3::new(
                                rng.gen_range(domain.min.x..domain.max.x),
                                rng.gen_range(domain.min.y..domain.max.y),
                                rng.gen_range(domain.min.z..domain.max.z),
                            );
                            let id = next_id;
                            next_id += 1;
                            Entry::new(id, Aabb::cube(c, rng.gen_range(0.1..1.5)))
                        })
                        .collect();
                    live.extend(batch.iter().map(|e| e.id));
                    delta
                        .insert_batch(&mut pool, batch)
                        .unwrap_or_else(|e| panic!("case {case_seed} op {op}: {e}"));
                }
                // Delete a random sample.
                1 => {
                    let n = rng.gen_range(0..=live.len().min(800));
                    let mut doomed = Vec::with_capacity(n);
                    for _ in 0..n {
                        let at = rng.gen_range(0..live.len());
                        doomed.push(live.swap_remove(at));
                        if live.is_empty() {
                            break;
                        }
                    }
                    delta
                        .delete_batch(&mut pool, &doomed)
                        .unwrap_or_else(|e| panic!("case {case_seed} op {op}: {e}"));
                }
                // Delete a spatial stripe: empties whole partitions, so
                // retirement (dead flags set in place + page frees, the
                // links kept) actually runs.
                2 => {
                    let cut = rng.gen_range(domain.min.x..domain.max.x);
                    let q = Aabb::from_corners(
                        domain.min,
                        Point3::new(cut, domain.max.y, domain.max.z),
                    );
                    let doomed: Vec<u64> = delta
                        .range_query(&pool, &q)
                        .unwrap_or_else(|e| panic!("case {case_seed} op {op}: {e}"))
                        .iter()
                        .map(|h| h.id)
                        .collect();
                    let dead: std::collections::HashSet<u64> = doomed.iter().copied().collect();
                    live.retain(|id| !dead.contains(id));
                    delta
                        .delete_batch(&mut pool, &doomed)
                        .unwrap_or_else(|e| panic!("case {case_seed} op {op}: {e}"));
                }
                // Occasionally compact back to a pristine base.
                _ => {
                    delta
                        .compact(&mut pool)
                        .unwrap_or_else(|e| panic!("case {case_seed} op {op}: {e}"));
                }
            }
            let report = delta
                .check_invariants(&pool, &pool.store().free_pages())
                .unwrap_or_else(|e| panic!("case {case_seed} op {op}: {e}"));
            assert_eq!(
                report.live_elements,
                live.len() as u64,
                "case {case_seed} op {op}: live-set drift"
            );
        }
    }
}

#[test]
fn sharded_churn_keeps_every_shard_invariant_and_exact() {
    // Random insert/delete batches through the shard router. After every
    // step each shard's FlatDb must pass the delta layer's structural
    // checker, and the live count and range answers must equal a
    // BTreeMap model of the committed state.
    let offset = prop_seed();
    for case in 0..4u64 {
        let case_seed = 15_000 + offset + case;
        let mut rng = StdRng::seed_from_u64(case_seed);
        let domain = Aabb::new(Point3::splat(0.0), Point3::splat(100.0));
        let fresh = |rng: &mut StdRng, id: u64| {
            let c = Point3::new(
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
            );
            Entry::new(id, Aabb::cube(c, rng.gen_range(0.1..1.5)))
        };
        let initial = rng.gen_range(500..2_000u64);
        let entries: Vec<Entry> = (0..initial).map(|id| fresh(&mut rng, id)).collect();
        let mut model: std::collections::BTreeMap<u64, Aabb> =
            entries.iter().map(|e| (e.id, e.mbr)).collect();
        let mut next_id = initial;
        let options = ShardOptions {
            index: common::options(domain),
            ..ShardOptions::default()
        };
        let shards = if case % 2 == 0 { 1 } else { 3 };
        let db = ShardedDb::build_in_memory(shards, entries, options)
            .unwrap_or_else(|e| panic!("case {case_seed}: {e}"));

        for step in 0..10 {
            if rng.gen_bool(0.5) || model.is_empty() {
                let n = rng.gen_range(1..300u64);
                let batch: Vec<Entry> = (next_id..next_id + n)
                    .map(|id| fresh(&mut rng, id))
                    .collect();
                next_id += n;
                model.extend(batch.iter().map(|e| (e.id, e.mbr)));
                db.insert(batch)
                    .unwrap_or_else(|e| panic!("case {case_seed} step {step}: {e}"));
            } else {
                // Live ids plus a few that never existed.
                let mut doomed: Vec<u64> = model
                    .keys()
                    .copied()
                    .filter(|_| rng.gen_bool(0.2))
                    .collect();
                doomed.extend([next_id + 1_000_000, next_id + 1_000_001]);
                let deleted = db
                    .delete(&doomed)
                    .unwrap_or_else(|e| panic!("case {case_seed} step {step}: {e}"));
                assert_eq!(deleted, doomed.len() - 2, "case {case_seed} step {step}");
                for id in &doomed {
                    model.remove(id);
                }
            }

            let reports = db
                .check_invariants()
                .unwrap_or_else(|e| panic!("case {case_seed} step {step}: {e}"));
            assert_eq!(reports.len(), shards, "case {case_seed} step {step}");
            assert_eq!(
                db.num_live_elements(),
                model.len() as u64,
                "case {case_seed} step {step}: live-set drift"
            );
            for _ in 0..4 {
                let c = Point3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                let q = Aabb::cube(c, rng.gen_range(2.0..40.0));
                let got: Vec<u64> = db
                    .range_query(&q)
                    .unwrap_or_else(|e| panic!("case {case_seed} step {step}: {e}"))
                    .iter()
                    .map(|h| h.id)
                    .collect();
                let expected: Vec<u64> = model
                    .iter()
                    .filter(|(_, mbr)| q.intersects(mbr))
                    .map(|(&id, _)| id)
                    .collect();
                assert_eq!(got, expected, "case {case_seed} step {step} query {q:?}");
            }
        }
    }
}

#[test]
fn pinned_snapshots_stay_stable_and_versions_reclaim() {
    // The epoch-reclamation contract behind wait-free snapshot reads:
    // (1) a pinned snapshot's answers never change, no matter how many
    //     batches publish after it (no version is freed or overwritten
    //     while a reader holds it);
    // (2) version retention is bounded by the oldest live pin — batch
    //     versions never pile up past the pin horizon, and once every pin drops
    //     the pool reclaims down to zero retained versions and zero
    //     deferred page frees;
    // (3) the latest snapshot stays query-equivalent to brute force over
    //     the live set throughout.
    let offset = prop_seed();
    for case in 0..4u64 {
        let case_seed = 15_000 + offset + case;
        let mut rng = StdRng::seed_from_u64(case_seed);
        let domain = Aabb::new(
            Point3::splat(0.0),
            Point3::splat(rng.gen_range(60.0..120.0)),
        );
        let options = FlatOptions {
            layout: LeafLayout::WithIds,
            domain: Some(domain),
            ..FlatOptions::default()
        };
        let in_domain = |rng: &mut StdRng, domain: &Aabb| {
            Point3::new(
                rng.gen_range(domain.min.x..domain.max.x),
                rng.gen_range(domain.min.y..domain.max.y),
                rng.gen_range(domain.min.z..domain.max.z),
            )
        };
        let initial = rng.gen_range(800..2_500usize);
        let mut next_id = initial as u64;
        let entries: Vec<Entry> = (0..initial)
            .map(|i| {
                let c = in_domain(&mut rng, &domain);
                Entry::new(i as u64, Aabb::cube(c, rng.gen_range(0.1..1.5)))
            })
            .collect();
        let mut live: Vec<Entry> = entries.clone();
        let queries: Vec<Aabb> = (0..5)
            .map(|_| Aabb::cube(in_domain(&mut rng, &domain), rng.gen_range(3.0..15.0)))
            .collect();
        let answers = |snap: &Snapshot<'_, MemStore>| -> Vec<Vec<u64>> {
            queries
                .iter()
                .map(|q| {
                    snap.range(q)
                        .unwrap_or_else(|e| panic!("case {case_seed}: {e}"))
                        .iter()
                        .map(|h| h.id)
                        .collect()
                })
                .collect()
        };

        let mut db = FlatDb::create(MemStore::new(), DbOptions::default().with_index(options));
        db.build_from(entries)
            .unwrap_or_else(|e| panic!("case {case_seed}: {e}"));
        let mut held: Vec<(Snapshot<'_, MemStore>, Vec<Vec<u64>>)> = Vec::new();

        for op in 0..8 {
            match rng.gen_range(0..4u32) {
                // Insert a fresh batch.
                0 => {
                    let n = rng.gen_range(1..400usize);
                    let batch: Vec<Entry> = (0..n)
                        .map(|_| {
                            let c = in_domain(&mut rng, &domain);
                            let id = next_id;
                            next_id += 1;
                            Entry::new(id, Aabb::cube(c, rng.gen_range(0.1..1.5)))
                        })
                        .collect();
                    live.extend(batch.iter().cloned());
                    db.writer()
                        .and_then(|mut w| w.insert(batch))
                        .unwrap_or_else(|e| panic!("case {case_seed} op {op}: {e}"));
                }
                // Delete a random sample.
                1 | 2 => {
                    let n = rng.gen_range(0..=live.len().min(500));
                    let mut doomed = Vec::with_capacity(n);
                    for _ in 0..n {
                        let at = rng.gen_range(0..live.len());
                        doomed.push(live.swap_remove(at).id);
                        if live.is_empty() {
                            break;
                        }
                    }
                    db.writer()
                        .and_then(|mut w| w.delete(&doomed).map(|_| ()))
                        .unwrap_or_else(|e| panic!("case {case_seed} op {op}: {e}"));
                }
                // Occasionally compact back to a pristine base.
                _ => {
                    db.writer()
                        .and_then(|mut w| w.compact().map(|_| ()))
                        .unwrap_or_else(|e| panic!("case {case_seed} op {op}: {e}"));
                }
            }

            // (1) Every held pin still answers exactly as at pin time.
            for (age, (snap, expected)) in held.iter().enumerate() {
                assert_eq!(
                    &answers(snap),
                    expected,
                    "case {case_seed} op {op}: pinned snapshot {age} \
                     (epoch {}) drifted after later batches",
                    snap.epoch()
                );
            }

            // (3) The latest snapshot equals brute force over the live set.
            let snap = db.reader();
            for (qi, q) in queries.iter().enumerate() {
                let mut got: Vec<u64> = snap
                    .range(q)
                    .unwrap_or_else(|e| panic!("case {case_seed} op {op}: {e}"))
                    .iter()
                    .map(|h| h.id)
                    .collect();
                got.sort_unstable();
                let mut expected: Vec<u64> = live
                    .iter()
                    .filter(|e| e.mbr.intersects(q))
                    .map(|e| e.id)
                    .collect();
                expected.sort_unstable();
                assert_eq!(got, expected, "case {case_seed} op {op} query {qi}");
            }

            // Rotate the pin set: hold the two most recent snapshots.
            let recorded = answers(&snap);
            held.push((snap, recorded));
            if held.len() > 2 {
                held.remove(0);
            }

            // (2) Retention is bounded by the oldest pin: at most one
            // batch of versions per epoch between the pin horizon and now.
            let stats = db.version_stats();
            let oldest = held.first().map_or(db.epoch(), |(s, _)| s.epoch());
            assert!(
                (stats.retained_versions as u64) <= db.epoch() - oldest,
                "case {case_seed} op {op}: {} versions retained for a pin \
                 horizon of {} epochs",
                stats.retained_versions,
                db.epoch() - oldest
            );
        }

        // (2) Dropping the last pin reclaims everything.
        drop(held);
        let stats = db.version_stats();
        assert_eq!(
            stats.retained_versions, 0,
            "case {case_seed}: versions retained after every pin dropped"
        );
        assert_eq!(
            stats.deferred_frees, 0,
            "case {case_seed}: page frees still deferred after every pin dropped"
        );
        db.check_invariants()
            .unwrap_or_else(|e| panic!("case {case_seed}: {e}"));
    }
}

#[test]
fn buffer_pool_lru_never_exceeds_capacity_and_counts_consistently() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(13_000 + case);
        let mut store = MemStore::new();
        for i in 0..32u64 {
            let id = store.alloc().unwrap();
            let mut page = Page::new();
            page.put_u64(0, i);
            store.write_page(id, &page).unwrap();
        }
        let capacity = rng.gen_range(1..16usize);
        let accesses: Vec<u64> = (0..rng.gen_range(1..200usize))
            .map(|_| rng.gen_range(0u64..32))
            .collect();
        let pool = ConcurrentBufferPool::new(store, capacity);
        // Per-shard capacities round up: the bound is at least `capacity`.
        assert!(pool.capacity() >= capacity, "case {case}");
        for &a in &accesses {
            let page = pool.read_page(PageId(a), PageKind::Other).unwrap();
            assert_eq!(page.get_u64(0), a, "case {case}");
            assert!(pool.cached_pages() <= pool.capacity(), "case {case}");
        }
        let stats = pool.stats();
        assert_eq!(
            stats.total_logical_reads(),
            accesses.len() as u64,
            "case {case}"
        );
        assert!(
            stats.total_physical_reads() <= stats.total_logical_reads(),
            "case {case}"
        );
        // Distinct pages is a lower bound on misses only when capacity
        // suffices; it is always an upper bound on *compulsory* misses.
        let distinct = accesses
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len() as u64;
        assert!(stats.total_physical_reads() >= distinct, "case {case}");
    }
}

#[test]
fn random_kill_points_recover_exactly_a_committed_prefix() {
    // Randomized crash drills over the durable facade: a random scripted
    // workload (random batch sizes, random delete samples, random
    // checkpoint cadence) is killed at random page-write indices — in
    // clean and torn style — and every recovery must hold exactly a
    // committed prefix, answer queries like the brute-force oracle over
    // that prefix, and pass `FlatDb::check_invariants`
    // (`verify_crash_recovery` asserts all three).
    let offset = prop_seed();
    for case in 0..3u64 {
        let case_seed = 15_000 + offset + case;
        let mut rng = StdRng::seed_from_u64(case_seed);
        let domain = Aabb::new(
            Point3::splat(0.0),
            Point3::splat(rng.gen_range(60.0..140.0)),
        );
        let options = DbOptions::updatable(domain).with_durability(Durability::WalCheckpoint {
            every_batches: rng.gen_range(2..6),
        });
        let initial = fresh_entries(rng.gen_range(300..700), 0, &domain, case_seed);

        // A random, always-loggable script (deletes are never empty) with
        // its ground truth tracked alongside.
        let mut live: std::collections::HashMap<u64, Entry> =
            initial.iter().map(|e| (e.id, *e)).collect();
        let mut next_base = 1_000_000u64;
        let mut ops: Vec<Op> = Vec::new();
        for _ in 0..rng.gen_range(8..14usize) {
            let op = match rng.gen_range(0..5u32) {
                0 | 1 => {
                    let batch = fresh_entries(
                        rng.gen_range(20..160),
                        next_base,
                        &domain,
                        rng.gen_range(0..1u64 << 32),
                    );
                    next_base += 1_000_000;
                    Op::Insert(batch)
                }
                2 | 3 => {
                    let mut ids: Vec<u64> = live.keys().copied().collect();
                    ids.sort_unstable(); // deterministic despite the HashMap
                    let doomed: Vec<u64> = (0..rng.gen_range(1..=ids.len().min(120)))
                        .map(|_| ids[rng.gen_range(0..ids.len())])
                        .collect();
                    Op::Delete(doomed)
                }
                _ => Op::Compact,
            };
            common::apply_op(&mut live, &op);
            ops.push(op);
        }

        // Clean baseline sizes the kill range and pins the no-fault path.
        let disk = SharedStore::new();
        let baseline: SessionOutcome = run_crash_session(&disk, None, &initial, &ops, &options);
        assert!(baseline.created && baseline.built, "case {case_seed}");
        assert_eq!(baseline.acked, ops.len(), "case {case_seed}");
        verify_crash_recovery(
            &format!("case {case_seed} clean"),
            &disk,
            &baseline,
            &initial,
            &ops,
            &options,
            false,
        );

        // Random kill points, two in three page-atomic, one in three torn.
        for probe in 0..8u32 {
            let k = rng.gen_range(0..baseline.writes);
            let (style, torn) = if probe % 3 == 2 {
                (
                    CrashStyle::Torn {
                        prefix: rng.gen_range(1..4096),
                    },
                    true,
                )
            } else {
                (CrashStyle::Clean, false)
            };
            let disk = SharedStore::new();
            let outcome = run_crash_session(&disk, Some((k, style)), &initial, &ops, &options);
            verify_crash_recovery(
                &format!("case {case_seed} probe {probe} kill {k} ({style:?})"),
                &disk,
                &outcome,
                &initial,
                &ops,
                &options,
                torn,
            );
        }
    }
}
