//! Sharded serving throughput (extension): mixed range/kNN/update traffic
//! from many clients over K spatial shards, each behind its own cache
//! with I/O workers ([`flat_storage::ConcurrentBufferPool::with_config`]),
//! vs the unsharded [`FlatDb`] façade.
//!
//! Every configuration serves the same workload over [`ThrottledStore`]
//! devices with a queue-depth model (reads admitted `parallelism` at a
//! time, so piling clients onto one store stops paying off past the
//! device's concurrency — exactly the regime sharding is for). Each shard
//! owns its own store: K shards command K independent device queues, the
//! way a deployment spreads shards over spindles. The client count is
//! 10–100× the per-index thread counts of `exp_concurrency`
//! (`FLAT_CLIENTS`, default 64).

use super::Context;
use crate::report::{fmt_f64, Table};
use flat_core::{DbOptions, FlatDb, FlatIndex, FlatOptions, ShardOptions, ShardedDb};
use flat_data::workload::{knn_queries, KnnConfig};
use flat_geom::{Aabb, Point3};
use flat_rtree::{Entry, LeafLayout};
use flat_storage::{
    BufferPool, IoStats, MemStore, PageStore, SchedulerConfig, SchedulerStats, ThrottledStore,
};
use std::time::{Duration, Instant};

/// Per-physical-read device latency (SSD-class, as in `exp_concurrency`).
pub const READ_LATENCY: Duration = Duration::from_micros(120);

/// Reads a device admits concurrently (the queue-depth model's
/// parallelism); also the scheduler worker count per shard, so the worker
/// pool exactly covers the device.
pub const DEVICE_PARALLELISM: usize = 4;

/// Shard counts measured.
pub const SHARD_STEPS: [usize; 4] = [1, 2, 4, 8];

/// Elements inserted (then deleted) per update round.
const UPDATE_BATCH: usize = 64;

/// Client threads (`FLAT_CLIENTS` overrides).
pub fn client_count() -> usize {
    std::env::var("FLAT_CLIENTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(64)
}

/// One client operation of the mixed workload.
enum Op {
    Range(Aabb),
    Knn(Point3, usize),
}

/// The mixed read workload: the SN ranges interleaved with a quarter as
/// many kNN probes.
fn mixed_ops(ctx: &Context, domain: &Aabb) -> Vec<Op> {
    let ranges = ctx.scale.sn_workload(domain);
    let knns = knn_queries(
        domain,
        &KnnConfig {
            count: (ctx.scale.queries / 4).max(1),
            k_range: (8, 64),
            seed: ctx.scale.seed ^ 0x5348_4b4e,
        },
    );
    // Interleave deterministically: one kNN after every few ranges.
    let stride = ranges.len().div_ceil(knns.len()).max(1);
    let mut ops = Vec::with_capacity(ranges.len() + knns.len());
    let mut knn_it = knns.into_iter();
    for (i, q) in ranges.into_iter().enumerate() {
        ops.push(Op::Range(q));
        if (i + 1) % stride == 0 {
            if let Some((p, k)) = knn_it.next() {
                ops.push(Op::Knn(p, k));
            }
        }
    }
    ops.extend(knn_it.map(|(p, k)| Op::Knn(p, k)));
    ops
}

/// The update round: a batch of fresh elements (ids far above the
/// dataset's) inserted and then deleted, leaving the data unchanged for
/// the next configuration.
fn update_batch(domain: &Aabb) -> Vec<Entry> {
    let extent = domain.max.x - domain.min.x;
    (0..UPDATE_BATCH as u64)
        .map(|i| {
            let x = domain.min.x + extent * (i as f64 + 0.5) / UPDATE_BATCH as f64;
            let c = Point3::new(x, domain.center().y, domain.center().z);
            Entry::new(1 << 40 | i, Aabb::cube(c, extent / 200.0))
        })
        .collect()
}

/// One measured row: operations/second plus the I/O and scheduler
/// counters behind it.
struct Measurement {
    ops_per_sec: f64,
    io: IoStats,
    sched: Option<SchedulerStats>,
}

/// Total operations a run executes: every range, kNN, inserted and
/// deleted element counts as one.
fn op_count(ops: &[Op]) -> usize {
    ops.len() + 2 * UPDATE_BATCH
}

fn throttled_store() -> ThrottledStore<MemStore> {
    ThrottledStore::with_parallelism(MemStore::new(), READ_LATENCY, DEVICE_PARALLELISM)
}

/// Runs the mixed workload against the unsharded façade: `clients`
/// threads share the snapshot read path, then one writer applies the
/// update round (the façade's writer is exclusive by design).
fn run_unsharded(
    db: &mut FlatDb<ThrottledStore<MemStore>>,
    ops: &[Op],
    clients: usize,
    update: &[Entry],
) -> Measurement {
    db.clear_cache();
    db.reset_stats();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..clients {
            let reader = db.reader();
            scope.spawn(move || {
                for op in ops.iter().skip(t).step_by(clients) {
                    match op {
                        Op::Range(q) => drop(reader.range(q).expect("range query failed")),
                        Op::Knn(p, k) => drop(reader.knn(*p, *k).expect("knn query failed")),
                    }
                }
            });
        }
    });
    {
        let mut writer = db.writer().expect("updatable database");
        writer.insert(update.to_vec()).expect("insert failed");
        let ids: Vec<u64> = update.iter().map(|e| e.id).collect();
        writer.delete(&ids).expect("delete failed");
    }
    let wall = start.elapsed();
    Measurement {
        ops_per_sec: op_count(ops) as f64 / wall.as_secs_f64().max(1e-9),
        io: db.io_stats(),
        sched: None,
    }
}

/// Runs the same workload against a [`ShardedDb`]; updates go through the
/// same `&self` entry points the clients use.
fn run_sharded(
    db: &ShardedDb<ThrottledStore<MemStore>>,
    ops: &[Op],
    clients: usize,
    update: &[Entry],
) -> Measurement {
    db.clear_cache();
    db.reset_stats();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..clients {
            scope.spawn(move || {
                for op in ops.iter().skip(t).step_by(clients) {
                    match op {
                        Op::Range(q) => drop(db.range_query(q).expect("range query failed")),
                        Op::Knn(p, k) => drop(db.knn_query(*p, *k).expect("knn query failed")),
                    }
                }
            });
        }
    });
    db.insert(update.to_vec()).expect("insert failed");
    let ids: Vec<u64> = update.iter().map(|e| e.id).collect();
    db.delete(&ids).expect("delete failed");
    let wall = start.elapsed();
    Measurement {
        ops_per_sec: op_count(ops) as f64 / wall.as_secs_f64().max(1e-9),
        io: db.io_stats(),
        sched: Some(db.scheduler_stats()),
    }
}

/// Throughput scaling of the sharded serving layer: the unsharded façade
/// as baseline, then K = 1, 2, 4, 8 shards, all over queue-depth-modelled
/// throttled devices. Writes `BENCH_shard.json` next to the CSV when
/// emitted through [`emit_with_json`].
pub fn exp_shard(ctx: &Context) -> Table {
    let mut table = Table::new(
        "exp_shard",
        "Sharded serving: mixed traffic over per-shard disk schedulers \
         (120 µs reads, device depth 4)",
        &[
            "config",
            "clients",
            "ops/sec",
            "vs unsharded",
            "vs K=1",
            "physical reads",
            "coalesced",
            "mean demand wait µs",
        ],
    );
    let domain = ctx.sweep.domain();
    let entries = ctx.sweep.at(ctx.scale.max_density());
    let ops = mixed_ops(ctx, &domain);
    let update = update_batch(&domain);
    let clients = client_count();
    let index_options = FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(domain),
        ..FlatOptions::default()
    };

    // Unsharded baseline: build in memory, re-house behind one throttled
    // device, open through the façade (cache one order below the index).
    let mut build_pool = BufferPool::new(MemStore::new(), ctx.scale.pool_pages);
    let (index, _) = FlatIndex::build(&mut build_pool, entries.clone(), index_options)
        .expect("in-memory build cannot fail");
    let descriptor = index.save(&mut build_pool).expect("save cannot fail");
    let store =
        ThrottledStore::with_parallelism(build_pool.into_store(), READ_LATENCY, DEVICE_PARALLELISM);
    let cache_pages = (store.num_pages() as usize / 10).max(64);
    let db_options = DbOptions {
        index: index_options,
        pool_pages: cache_pages,
        ..DbOptions::default()
    };
    let mut db = FlatDb::open(store, descriptor, db_options).expect("open cannot fail");
    let baseline = run_unsharded(&mut db, &ops, clients, &update);
    drop(db);

    let mut rows = vec![("unsharded".to_string(), baseline)];
    let mut k1_qps = None;
    for k in SHARD_STEPS {
        let options = ShardOptions {
            index: index_options,
            // Fixed total cache budget: K shards split what the baseline had.
            pool_pages: (cache_pages / k).max(64),
            scheduler: SchedulerConfig {
                workers: DEVICE_PARALLELISM,
            },
        };
        let sharded = ShardedDb::build(k, entries.clone(), options, |_| throttled_store())
            .expect("in-memory build cannot fail");
        let m = run_sharded(&sharded, &ops, clients, &update);
        if k == 1 {
            k1_qps = Some(m.ops_per_sec);
        }
        rows.push((format!("K={k}"), m));
    }

    let base_qps = rows[0].1.ops_per_sec;
    let k1_qps = k1_qps.expect("SHARD_STEPS contains 1");
    for (config, m) in rows {
        let speedup = |base: f64| {
            if base > 0.0 {
                format!("{:.2}x", m.ops_per_sec / base)
            } else {
                "-".to_string()
            }
        };
        let (coalesced, wait) = match &m.sched {
            Some(s) => (
                s.demand_coalesced.to_string(),
                fmt_f64(s.mean_demand_wait_us()),
            ),
            None => ("-".into(), "-".into()),
        };
        table.push_row(vec![
            config,
            clients.to_string(),
            fmt_f64(m.ops_per_sec),
            speedup(base_qps),
            speedup(k1_qps),
            m.io.total_physical_reads().to_string(),
            coalesced,
            wait,
        ]);
    }
    table
}

/// Prints/saves the table as every figure does, plus the machine-readable
/// `BENCH_shard.json` the serving-layer benchmarks are tracked by.
pub fn emit_with_json(table: &Table) {
    table.emit();
    match table.save_json("BENCH_shard") {
        Ok(path) => println!("[saved {}]\n", path.display()),
        Err(e) => println!("[json not saved: {e}]\n"),
    }
}
