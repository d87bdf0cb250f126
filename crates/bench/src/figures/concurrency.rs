//! Concurrent query throughput (extension): many query streams over one
//! shared FLAT database.
//!
//! The paper evaluates single-stream latency; a deployed index serves many
//! clients at once. This experiment runs the SN workload from 1/2/4/8
//! client threads — plain [`flat_core::Snapshot::range`] calls — over one
//! [`FlatDb`] whose store charges a device latency per physical page read
//! (queries are I/O-bound, §VII-E.2 — 97.8–98.8 % disk time). Aggregate
//! throughput rising with the thread count is the direct payoff of the
//! `&self` read path: overlapped I/O waits, no serialization through one
//! lock. The last row hands the same queries to the façade's
//! batch verb ([`flat_core::QueryBuilder::run_batch`]), which is those
//! same calls fanned out over one snapshot.

use super::Context;
use crate::report::{fmt_f64, Table};
use crate::runner::throughput;
use flat_core::{DbOptions, FlatDb, FlatIndex, FlatOptions};
use flat_storage::{ConcurrentBufferPool, MemStore, PageStore, ThrottledStore};
use std::time::{Duration, Instant};

/// Per-physical-read device latency for the throttled store (SSD-class).
pub const READ_LATENCY: Duration = Duration::from_micros(150);

/// Thread counts measured.
pub const THREAD_STEPS: [usize; 4] = [1, 2, 4, 8];

/// The neuron model at the sweep's highest density behind the
/// [`READ_LATENCY`] device, opened through the façade with a cache an order
/// of magnitude smaller than the index, so queries keep paying for I/O
/// like the paper's cold-cache protocol demands.
pub(super) fn device_bound_db(ctx: &Context) -> FlatDb<ThrottledStore<MemStore>> {
    let options = FlatOptions {
        domain: Some(ctx.sweep.domain()),
        ..FlatOptions::default()
    };
    // Build in memory, then re-house the pages behind the device.
    let mut build_pool = ConcurrentBufferPool::new(MemStore::new(), ctx.scale.pool_pages);
    let entries = ctx.sweep.at(ctx.scale.max_density());
    let (index, _) =
        FlatIndex::build(&mut build_pool, entries, options).expect("in-memory build cannot fail");
    let descriptor = index.save(&mut build_pool).expect("save cannot fail");
    let store = ThrottledStore::new(build_pool.into_store(), READ_LATENCY);
    let db_options = DbOptions {
        index: options,
        pool_pages: (store.num_pages() as usize / 10).max(64),
        ..DbOptions::default()
    };
    FlatDb::open(store, descriptor, db_options).expect("open cannot fail")
}

/// `"2.31x"`, or `"-"` for a degenerate run (e.g. `FLAT_QUERIES=0`).
pub(super) fn speedup(qps: f64, base_qps: f64) -> String {
    if base_qps > 0.0 {
        format!("{:.2}x", qps / base_qps)
    } else {
        "-".to_string()
    }
}

/// Multi-threaded SN throughput on the neuron dataset: queries/sec at
/// 1/2/4/8 client threads and through the batch verb, plus the speedup
/// over the single-threaded run.
///
/// # Panics
/// Panics if a thread count returns a different number of results than the
/// single-threaded run, or the batch is not bit-identical to serial
/// evaluation.
pub fn exp_concurrency(ctx: &Context) -> Table {
    let mut table = Table::new(
        "exp_concurrency",
        "SN throughput over one shared FLAT database (150 µs/read device)",
        &["clients", "queries/sec", "speedup vs 1 client", "results"],
    );
    let queries = ctx.scale.sn_workload(&ctx.sweep.domain());
    let db = device_bound_db(ctx);

    let mut baseline = None;
    for threads in THREAD_STEPS {
        db.clear_cache();
        let outcome = throughput(&queries, threads, 1, |query| {
            let hits = db.reader().range(query);
            hits.expect("in-memory query cannot fail").len() as u64
        });
        let (base_qps, base_results) = *baseline.get_or_insert((outcome.qps(), outcome.results));
        assert_eq!(outcome.results, base_results, "{threads} clients diverged");
        table.push_row(vec![
            threads.to_string(),
            fmt_f64(outcome.qps()),
            speedup(outcome.qps(), base_qps),
            outcome.results.to_string(),
        ]);
    }

    let (base_qps, base_results) = baseline.expect("THREAD_STEPS is not empty");
    db.clear_cache();
    let start = Instant::now();
    let batch = db.query().ranges(queries.iter().copied()).run_batch();
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let batch = batch.expect("in-memory batch cannot fail").results;
    let snapshot = db.reader();
    for (hits, query) in batch.iter().zip(&queries) {
        let serial = snapshot.range(query).expect("in-memory query cannot fail");
        assert_eq!(hits, &serial, "run_batch diverged from serial");
    }
    let qps = queries.len() as f64 / wall;
    table.push_row(vec![
        "run_batch".to_string(),
        fmt_f64(qps),
        speedup(qps, base_qps),
        base_results.to_string(),
    ]);
    table
}
