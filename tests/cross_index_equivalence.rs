//! Cross-crate integration tests: every index — FLAT, the delta layer,
//! the four bulkloaded R-trees, and the dynamically built Guttman R-tree —
//! must return exactly the same result set for the same query on the same
//! data, across all dataset families.
//!
//! Every contender is built through its own constructor and queried
//! through its own `range_query` / kNN entry point; one `evaluate`
//! function turns those answers into comparable keys, so adding an index
//! kind to the matrix is one build plus one call.

use flat_repro::core::rtree_knn;
use flat_repro::prelude::*;

mod common;
use common::{brute_force, brute_join};

type Pool = ConcurrentBufferPool<MemStore>;

/// Sorted result MBR keys (the MbrOnly layout has no stable application
/// ids, so results are compared geometrically; exact f64 keys are fine
/// because every index stores the very same bits).
fn keys(hits: &[Hit]) -> Vec<[u64; 6]> {
    let mut keys: Vec<[u64; 6]> = hits
        .iter()
        .map(|h| {
            [
                h.mbr.min.x.to_bits(),
                h.mbr.min.y.to_bits(),
                h.mbr.min.z.to_bits(),
                h.mbr.max.x.to_bits(),
                h.mbr.max.y.to_bits(),
                h.mbr.max.z.to_bits(),
            ]
        })
        .collect();
    keys.sort_unstable();
    keys
}

fn new_pool() -> Pool {
    ConcurrentBufferPool::new(MemStore::new(), 1 << 16)
}

/// Per-query range keys plus per-point kNN distances of one built index,
/// given its two query entry points.
fn evaluate<E: std::fmt::Debug>(
    queries: &[Aabb],
    knn_probes: &[(Point3, usize)],
    range: impl Fn(&Aabb) -> Result<Vec<Hit>, E>,
    nearest: impl Fn(Point3, usize) -> Result<Vec<Neighbor>, E>,
) -> (Vec<Vec<[u64; 6]>>, Vec<Vec<f64>>) {
    let ranges = queries
        .iter()
        .map(|q| keys(&range(q).expect("range")))
        .collect();
    let knns = knn_probes
        .iter()
        .map(|&(p, k)| {
            let found = nearest(p, k).expect("knn");
            found.iter().map(|n| n.dist_sq).collect()
        })
        .collect();
    (ranges, knns)
}

/// A bulkloaded R-tree over `entries` in its own pool.
fn rtree(entries: &[Entry], method: BulkLoad) -> (Pool, RTree) {
    let mut pool = new_pool();
    let tree = RTree::bulk_load(&mut pool, entries.to_vec(), method, RTreeConfig::default())
        .expect("build");
    (pool, tree)
}

fn check_equivalence(entries: Vec<Entry>, domain: Aabb, queries: &[Aabb]) {
    let flat_options = FlatOptions {
        domain: Some(domain),
        ..FlatOptions::default()
    };
    let knn_probes = knn_queries(
        &domain,
        &KnnConfig {
            count: 6,
            k_range: (1, 30),
            seed: 77,
        },
    );

    // FLAT is the reference; brute force pins its result sizes.
    let mut pool = new_pool();
    let (flat, _) = FlatIndex::build(&mut pool, entries.clone(), flat_options).expect("build");
    let (reference, reference_knn) = evaluate(
        queries,
        &knn_probes,
        |q| flat.range_query(&pool, q),
        |p, k| flat.knn_query(&pool, p, k),
    );
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(
            reference[qi].len(),
            brute_force(&entries, q),
            "FLAT vs brute force, query {qi}"
        );
    }

    // The delta layer needs stable ids; the tiling domain is the same.
    let delta_options = FlatOptions {
        layout: LeafLayout::WithIds,
        ..flat_options
    };
    let mut pool = new_pool();
    let (base, _) = FlatIndex::build(&mut pool, entries.clone(), delta_options).expect("build");
    let delta = DeltaIndex::new(&pool, base, delta_options).expect("adopt");
    let (ranges, knns) = evaluate(
        queries,
        &knn_probes,
        |q| delta.range_query(&pool, q),
        |p, k| delta.knn_query(&pool, p, k),
    );
    assert_eq!(ranges, reference, "delta range diverged");
    assert_eq!(knns, reference_knn, "delta kNN diverged");

    for method in [
        BulkLoad::Str,
        BulkLoad::Hilbert,
        BulkLoad::PrTree,
        BulkLoad::Tgs,
    ] {
        let (pool, tree) = rtree(&entries, method);
        let (ranges, knns) = evaluate(
            queries,
            &knn_probes,
            |q| tree.range_query(&pool, q),
            |p, k| rtree_knn(&tree, &pool, p, k),
        );
        assert_eq!(ranges, reference, "{method:?} range diverged");
        assert_eq!(knns, reference_knn, "{method:?} kNN diverged");
    }

    // Dynamically built R-tree (Guttman inserts).
    let mut dyn_pool = new_pool();
    let mut dyn_tree = RTree::new_empty(RTreeConfig::default());
    for e in &entries {
        dyn_tree.insert(&mut dyn_pool, *e).expect("insert");
    }
    for (qi, q) in queries.iter().enumerate() {
        let dyn_hits = dyn_tree.range_query(&dyn_pool, q).expect("dyn query");
        assert_eq!(
            keys(&dyn_hits),
            reference[qi],
            "Guttman vs FLAT, query {qi}"
        );
    }
}

fn workload(domain: &Aabb, fraction: f64, seed: u64) -> Vec<Aabb> {
    range_queries(
        domain,
        &WorkloadConfig {
            count: 12,
            volume_fraction: fraction,
            proportion_range: (1.0, 4.0),
            seed,
        },
    )
}

#[test]
fn neuron_model_equivalence() {
    let config = NeuronConfig::bbp(10, 400, 1);
    let model = NeuronModel::generate(&config);
    let mut queries = workload(&config.domain, 1e-3, 2);
    queries.extend(workload(&config.domain, 1e-2, 3));
    check_equivalence(model.entries(), config.domain, &queries);
}

#[test]
fn uniform_cloud_equivalence() {
    let config = UniformConfig::scaled_baseline(8_000, 4);
    let queries = workload(&config.domain, 5e-3, 5);
    check_equivalence(uniform_entries(&config), config.domain, &queries);
}

#[test]
fn surface_mesh_equivalence() {
    let config = MeshConfig::brain(6_000, 6);
    let queries = workload(&config.domain, 1e-2, 7);
    check_equivalence(mesh_entries(&config), config.domain, &queries);
}

#[test]
fn nbody_equivalence() {
    let config = NBodyConfig::dark_matter(8_000, 8);
    let queries = workload(&config.domain, 1e-2, 9);
    check_equivalence(nbody_entries(&config), config.domain, &queries);
}

#[test]
fn degenerate_queries_agree() {
    // Point queries, face-touching queries, and the whole domain.
    let config = UniformConfig::scaled_baseline(5_000, 10);
    let entries = uniform_entries(&config);
    let domain = config.domain;
    let mut queries = vec![
        Aabb::point(domain.center()),
        domain, // everything
        Aabb::from_corners(domain.min, domain.center()),
    ];
    // A query touching an element boundary exactly.
    queries.push(Aabb::from_corners(
        entries[0].mbr.max,
        entries[0].mbr.max + Point3::splat(1.0),
    ));
    check_equivalence(entries, domain, &queries);
}

/// `(id, mbr-bits)` result keys for WithIds contenders, sorted by id.
fn id_keys(hits: &[Hit]) -> Vec<(u64, [u64; 6])> {
    let mut keys: Vec<(u64, [u64; 6])> = hits
        .iter()
        .map(|h| {
            (
                h.id,
                [
                    h.mbr.min.x.to_bits(),
                    h.mbr.min.y.to_bits(),
                    h.mbr.min.z.to_bits(),
                    h.mbr.max.x.to_bits(),
                    h.mbr.max.y.to_bits(),
                    h.mbr.max.z.to_bits(),
                ],
            )
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// Compares two exact kNN answers that may break distance ties
/// differently: the distance sequences must be identical, and within each
/// run of equal distances the id sets must match — except in the final
/// (possibly truncated) tie class, where both sides legitimately pick any
/// same-sized subset of the tied elements.
fn assert_knn_equivalent(got: &[Neighbor], expect: &[Neighbor], ctx: &str) {
    let dist = |ns: &[Neighbor]| ns.iter().map(|n| n.dist_sq).collect::<Vec<f64>>();
    assert_eq!(dist(got), dist(expect), "{ctx}: distances diverged");
    let mut i = 0;
    while i < got.len() {
        let mut j = i;
        while j < got.len() && got[j].dist_sq == got[i].dist_sq {
            j += 1;
        }
        if j < got.len() {
            // A fully contained tie class: identical membership required.
            let ids = |ns: &[Neighbor]| {
                let mut ids: Vec<u64> = ns.iter().map(|n| n.hit.id).collect();
                ids.sort_unstable();
                ids
            };
            assert_eq!(
                ids(&got[i..j]),
                ids(&expect[i..j]),
                "{ctx}: tie class at {i}"
            );
        }
        i = j;
    }
}

#[test]
fn sharded_database_joins_the_equivalence_matrix() {
    // The sharded serving layer must answer exactly like one FLAT index
    // over the same data, for every shard count.
    let config = UniformConfig::scaled_baseline(6_000, 13);
    let entries = uniform_entries(&config);
    let domain = config.domain;
    let mut queries = workload(&domain, 5e-3, 14);
    queries.push(domain); // everything, crossing every shard
    queries.push(Aabb::point(domain.center()));
    let knn_probes = knn_queries(
        &domain,
        &KnnConfig {
            count: 8,
            k_range: (1, 25),
            seed: 15,
        },
    );

    // Reference: a single WithIds FLAT index.
    let single_options = FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(domain),
        ..FlatOptions::default()
    };
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (single, _) = FlatIndex::build(&mut pool, entries.clone(), single_options).expect("build");

    for k in 1..=4 {
        let options = ShardOptions {
            index: single_options,
            ..ShardOptions::default()
        };
        let db = ShardedDb::build_in_memory(k, entries.clone(), options).expect("build");
        for (qi, q) in queries.iter().enumerate() {
            let got = db.range_query(q).expect("sharded range");
            // Merged order is deterministic: ascending application id.
            assert!(
                got.windows(2).all(|w| w[0].id < w[1].id),
                "K={k} q{qi}: unsorted"
            );
            assert_eq!(
                id_keys(&got),
                id_keys(&single.range_query(&pool, q).expect("range")),
                "K={k}: range query {qi} diverged"
            );
        }
        for (pi, &(p, kk)) in knn_probes.iter().enumerate() {
            let got = db.knn_query(p, kk).expect("sharded knn");
            // The sharded tie-break is (dist_sq, id): the answer must obey it.
            assert!(
                got.windows(2)
                    .all(|w| (w[0].dist_sq, w[0].hit.id) < (w[1].dist_sq, w[1].hit.id)),
                "K={k} probe {pi}: order violates (dist, id)"
            );
            let expect = single.knn_query(&pool, p, kk).expect("knn");
            assert_knn_equivalent(&got, &expect, &format!("K={k} probe {pi}"));
        }
    }
}

#[test]
fn join_engines_agree_with_brute_force_across_index_kinds() {
    // The same ε-join answered four ways — FLAT×FLAT co-crawl, the delta
    // layer on either side (with live tombstones and delta partitions),
    // and the sharded fan-out — must all equal the nested-loop oracle.
    let w = mesh_vs_nbody(&JoinWorkloadConfig::mesh_vs_nbody(1_500, 1_500, 21));
    let options = FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(w.domain),
        ..FlatOptions::default()
    };

    // Churn the outer side through the delta layer so the join sees
    // tombstones and delta-resident partitions, then compute the oracle
    // over the *surviving* population.
    let mut outer_pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (outer_base, _) = FlatIndex::build(&mut outer_pool, w.outer.clone(), options).unwrap();
    let mut outer_delta = DeltaIndex::new(&outer_pool, outer_base, options).unwrap();
    let dead: Vec<u64> = w.outer.iter().step_by(7).map(|e| e.id).collect();
    let moved: Vec<Entry> = w
        .outer
        .iter()
        .step_by(13)
        .map(|e| {
            let shift = Point3::new(3.0, -2.0, 1.0);
            Entry {
                id: e.id + 10_000_000,
                mbr: Aabb::new(e.mbr.min + shift, e.mbr.max + shift),
            }
        })
        .collect();
    outer_delta.delete_batch(&mut outer_pool, &dead).unwrap();
    outer_delta
        .insert_batch(&mut outer_pool, moved.clone())
        .unwrap();
    let outer_live: Vec<Entry> = w
        .outer
        .iter()
        .filter(|e| !dead.contains(&e.id))
        .copied()
        .chain(moved)
        .collect();

    let mut inner_pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (inner_flat, _) = FlatIndex::build(&mut inner_pool, w.inner.clone(), options).unwrap();

    for eps in [0.0, w.eps, 4.0 * w.eps] {
        let oracle = brute_join(&outer_live, &w.inner, eps);
        let engine = JoinEngine::new(eps);

        let delta_flat = engine
            .join(
                &outer_pool,
                JoinInput::Delta(&outer_delta),
                &inner_pool,
                JoinInput::Flat(&inner_flat),
            )
            .unwrap();
        assert_eq!(delta_flat.pairs, oracle, "delta×flat at eps {eps}");

        // Orientation flip: the same pairs, sides swapped.
        let flat_delta = engine
            .join(
                &inner_pool,
                JoinInput::Flat(&inner_flat),
                &outer_pool,
                JoinInput::Delta(&outer_delta),
            )
            .unwrap();
        let mut flipped: Vec<(u64, u64)> = oracle.iter().map(|&(a, b)| (b, a)).collect();
        flipped.sort_unstable();
        assert_eq!(flat_delta.pairs, flipped, "flat×delta at eps {eps}");

        // The sharded fan-out over the same (post-churn) populations.
        let shard_options = ShardOptions {
            index: options,
            ..ShardOptions::default()
        };
        let db_outer = ShardedDb::build_in_memory(3, outer_live.clone(), shard_options).unwrap();
        let db_inner = ShardedDb::build_in_memory(2, w.inner.clone(), shard_options).unwrap();
        let sharded = db_outer.join(&db_inner, eps).unwrap();
        assert_eq!(sharded.pairs, oracle, "sharded at eps {eps}");
    }
}

#[test]
fn aggregates_agree_with_range_counts_across_index_kinds() {
    // aggregate_count must equal the range query's result size on every
    // index kind, including boxes that swallow whole partitions (the
    // containment fast path) and degenerate boxes.
    let config = UniformConfig::scaled_baseline(7_000, 23);
    let entries = uniform_entries(&config);
    let domain = config.domain;
    let options = FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(domain),
        ..FlatOptions::default()
    };
    let mut queries = workload(&domain, 5e-3, 24);
    queries.extend(workload(&domain, 0.2, 25)); // big: containment kicks in
    queries.push(domain);
    queries.push(Aabb::point(domain.center()));

    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (flat, _) = FlatIndex::build(&mut pool, entries.clone(), options).unwrap();
    let mut delta_pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (delta_base, _) = FlatIndex::build(&mut delta_pool, entries.clone(), options).unwrap();
    let delta = DeltaIndex::new(&delta_pool, delta_base, options).unwrap();
    let sharded = ShardedDb::build_in_memory(
        4,
        entries.clone(),
        ShardOptions {
            index: options,
            ..ShardOptions::default()
        },
    )
    .unwrap();

    for (qi, q) in queries.iter().enumerate() {
        let oracle = brute_force(&entries, q) as u64;
        assert_eq!(
            flat.aggregate_count(&pool, q).unwrap(),
            oracle,
            "FLAT count, query {qi}"
        );
        assert_eq!(
            delta.aggregate_count(&delta_pool, q).unwrap(),
            oracle,
            "delta count, query {qi}"
        );
        assert_eq!(
            sharded.aggregate_count(q).unwrap(),
            oracle,
            "sharded count, query {qi}"
        );
        let volume = q.volume();
        if volume > 0.0 {
            let density = oracle as f64 / volume;
            assert_eq!(flat.aggregate_density(&pool, q).unwrap(), density);
            assert_eq!(sharded.aggregate_density(q).unwrap(), density);
        }
    }

    // The containment fast path fires on the whole-domain box, and the
    // delta layer's summary table answers contained partitions with no
    // object-page I/O at all.
    let mut stats = AggregateStats::default();
    let total = flat
        .aggregate_count_with_stats(&pool, &domain, &mut stats)
        .unwrap();
    assert_eq!(total, entries.len() as u64);
    assert!(stats.contained_partitions > 0, "early-exit never fired");
    let mut delta_stats = AggregateStats::default();
    let delta_total = delta
        .aggregate_count_with_stats(&delta_pool, &domain, &mut delta_stats)
        .unwrap();
    assert_eq!(delta_total, entries.len() as u64);
    assert!(delta_stats.pages_skipped > 0, "summary table never used");
}

#[test]
fn continuous_queries_track_the_churn_oracle() {
    // Standing ranges over a churning FlatDb: after every commit the
    // replayed delta stream must reproduce the generator's own live
    // population, and the db's materialized view must agree.
    let config = UniformConfig::scaled_baseline(3_000, 27);
    let initial = uniform_entries(&config);
    let domain = config.domain;
    let mut w = ContinuousWorkload::new(
        initial.clone(),
        domain,
        ContinuousConfig::monitoring(6, 150, 28),
    );

    let mut db = FlatDb::create_in_memory(DbOptions::default().with_index(FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(domain),
        ..FlatOptions::default()
    }));
    db.build_from(initial).unwrap();

    let subs: Vec<(ContinuousQueryId, Vec<u64>)> = w
        .ranges()
        .iter()
        .map(|r| db.subscribe(*r).unwrap())
        .collect();
    let mut views: Vec<Vec<u64>> = subs.iter().map(|(_, baseline)| baseline.clone()).collect();
    for (i, view) in views.iter().enumerate() {
        assert_eq!(*view, w.expected(i), "baseline of range {i}");
    }

    for step in 0..6 {
        let churn = w.step();
        db.writer()
            .unwrap()
            .apply(vec![
                WriteOp::Delete(churn.deletes.clone()),
                WriteOp::Insert(churn.inserts.clone()),
            ])
            .unwrap();

        for (i, (id, _)) in subs.iter().enumerate() {
            let deltas = db.poll_changes(*id).unwrap();
            // One writer commit → exactly one delta (possibly empty).
            assert_eq!(deltas.len(), 1, "range {i} step {step}");
            for delta in deltas {
                let view = &mut views[i];
                view.retain(|id| !delta.removed.contains(id));
                view.extend(&delta.added);
                view.sort_unstable();
            }
            assert_eq!(views[i], w.expected(i), "range {i} after step {step}");
            assert_eq!(
                db.continuous_result(*id).unwrap(),
                w.expected(i),
                "materialized view of range {i} after step {step}"
            );
        }
    }
    for (id, _) in subs {
        assert!(db.unsubscribe(id));
    }
}

#[test]
fn facade_database_joins_the_equivalence_matrix() {
    // The FlatDb façade must agree with every index kind too — it routes
    // to FLAT underneath, but this pins the whole stack end to end.
    let config = UniformConfig::scaled_baseline(6_000, 11);
    let entries = uniform_entries(&config);
    let domain = config.domain;
    let queries = workload(&domain, 5e-3, 12);

    let mut db = FlatDb::create_in_memory(DbOptions::default().with_index(FlatOptions {
        domain: Some(domain),
        ..FlatOptions::default()
    }));
    db.build_from(entries.clone()).unwrap();

    let (pool, tree) = rtree(&entries, BulkLoad::Str);
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(
            keys(&db.reader().range(q).unwrap()),
            keys(&tree.range_query(&pool, q).unwrap()),
            "FlatDb vs STR R-tree, query {qi}"
        );
    }
}
