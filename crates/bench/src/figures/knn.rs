//! k-nearest-neighbor workload (extension): a second query type on the
//! same index.
//!
//! The kNN query ([`flat_core::FlatIndex::knn_query`]) reuses FLAT's two
//! ingredients — seed-tree descent, then neighbor-link expansion — with a
//! best-first frontier instead of a BFS queue. This experiment runs a kNN
//! workload (random locations, k ∈ [8, 128]) over the neuron model on the
//! 150 µs/read device of the `concurrency` suite — one at a time, from several
//! client threads, and through the façade's batch verb — and verifies
//! exactness against a brute-force scan on the smallest sweep density.

use super::concurrency::{device_bound_db, speedup};
use super::Context;
use crate::report::{fmt_f64, Table};
use crate::runner::throughput;
use flat_core::{FlatIndex, FlatOptions};
use flat_data::workload::{knn_queries, KnnConfig};
use flat_geom::Point3;
use flat_rtree::Entry;
use flat_storage::{ConcurrentBufferPool, MemStore};
use std::time::Instant;

/// Client-thread counts measured (the first is the one-at-a-time row).
pub const CLIENT_STEPS: [usize; 3] = [1, 4, 8];

/// Brute-force kNN distances (the verification oracle).
fn brute_force_dists(entries: &[Entry], p: &Point3, k: usize) -> Vec<f64> {
    let mut dists: Vec<f64> = entries
        .iter()
        .map(|e| e.mbr.distance_sq_to_point(p))
        .collect();
    dists.sort_by(|a, b| a.total_cmp(b));
    dists.truncate(k);
    dists
}

/// kNN throughput on the neuron dataset, one at a time vs concurrent
/// clients vs the batch verb, plus a brute-force exactness check at the
/// smallest density.
///
/// # Panics
/// Panics if kNN results diverge from the brute-force oracle (small
/// dataset), concurrent clients return a different number of neighbors
/// than the serial pass, or the batch is not bit-identical to serial
/// evaluation (full dataset).
pub fn exp_knn(ctx: &Context) -> Table {
    let mut table = Table::new(
        "exp_knn",
        "kNN workload over one FLAT index (150 µs/read device)",
        &[
            "clients",
            "wall ms",
            "queries/sec",
            "speedup vs 1 client",
            "physical reads",
            "neighbors",
        ],
    );
    let domain = ctx.sweep.domain();
    let queries = knn_queries(
        &domain,
        &KnnConfig {
            count: ctx.scale.queries,
            k_range: (8, 128),
            seed: ctx.scale.seed ^ 0x4b4e_4e51,
        },
    );

    // Exactness first: on the smallest density a full scan is affordable,
    // so every query is checked against the brute-force oracle.
    let small_density = ctx.scale.densities[0];
    let small_entries = ctx.sweep.at(small_density);
    let mut small_pool = ConcurrentBufferPool::new(MemStore::new(), ctx.scale.pool_pages);
    let options = FlatOptions {
        domain: Some(domain),
        ..FlatOptions::default()
    };
    let (small_index, _) = FlatIndex::build(&mut small_pool, small_entries.clone(), options)
        .expect("in-memory build cannot fail");
    for (p, k) in &queries {
        let got = small_index
            .knn_query(&small_pool, *p, *k)
            .expect("in-memory query cannot fail");
        let got_dists: Vec<f64> = got.iter().map(|n| n.dist_sq).collect();
        assert_eq!(
            got_dists,
            brute_force_dists(&small_entries, p, *k),
            "kNN diverged from brute force at k={k}, p={p}"
        );
    }

    // Throughput at max density over the throttled device.
    let db = device_bound_db(ctx);
    let mut baseline = None;
    for clients in CLIENT_STEPS {
        db.clear_cache();
        db.reset_stats();
        let outcome = throughput(&queries, clients, 1, |&(p, k)| {
            let near = db.reader().knn(p, k);
            near.expect("in-memory query cannot fail").len() as u64
        });
        let (base_qps, neighbors) = *baseline.get_or_insert((outcome.qps(), outcome.results));
        assert_eq!(outcome.results, neighbors, "{clients} clients diverged");
        table.push_row(vec![
            clients.to_string(),
            fmt_f64(outcome.wall.as_secs_f64() * 1e3),
            fmt_f64(outcome.qps()),
            speedup(outcome.qps(), base_qps),
            db.io_stats().total_physical_reads().to_string(),
            neighbors.to_string(),
        ]);
    }

    let (base_qps, neighbors) = baseline.expect("CLIENT_STEPS is not empty");
    db.clear_cache();
    db.reset_stats();
    let start = Instant::now();
    let batch = db.query().knns(queries.iter().copied()).run_knn_batch();
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let physical_reads = db.io_stats().total_physical_reads();
    let batch = batch.expect("in-memory batch cannot fail").results;
    let snapshot = db.reader();
    for (near, &(p, k)) in batch.iter().zip(&queries) {
        let serial = snapshot.knn(p, k).expect("in-memory query cannot fail");
        assert_eq!(near, &serial, "run_knn_batch diverged from serial");
    }
    let qps = queries.len() as f64 / wall;
    table.push_row(vec![
        "run_knn_batch".to_string(),
        fmt_f64(wall * 1e3),
        fmt_f64(qps),
        speedup(qps, base_qps),
        physical_reads.to_string(),
        neighbors.to_string(),
    ]);
    table
}
