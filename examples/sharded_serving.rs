//! Sharded serving: a [`ShardedDb`] spreads one FLAT dataset over K
//! spatial shards, each cache with its own pool of I/O workers, and
//! serves mixed concurrent traffic — range scans, exact cross-shard kNN,
//! and live updates — from plain `&self`.
//!
//! The device is a [`ThrottledStore`] with a queue-depth model, so the
//! printed throughput actually shows why sharding helps: more shards mean
//! more independent submission queues in front of the same device budget.
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```

use flat_repro::prelude::*;
use std::time::{Duration, Instant};

const CLIENTS: usize = 16;
const READ_LATENCY: Duration = Duration::from_micros(120);
const DEVICE_PARALLELISM: usize = 4;

fn main() {
    // 1. A synthetic tissue volume, like the quickstart.
    let config = NeuronConfig::bbp(40, 1000, 7);
    let model = NeuronModel::generate(&config);
    let entries = model.entries();
    println!("dataset: {} segments in {}", entries.len(), config.domain);

    // 2. Shard it four ways. Each shard gets its own throttled store and
    //    a scheduler whose worker count matches the device's depth; the
    //    router chops the domain along x so shards stay spatially tight.
    let options = ShardOptions {
        index: FlatOptions {
            layout: LeafLayout::WithIds,
            domain: Some(config.domain),
            ..FlatOptions::default()
        },
        pool_pages: 1 << 12,
        scheduler: SchedulerConfig {
            workers: DEVICE_PARALLELISM,
        },
    };
    let db = ShardedDb::build(4, entries, options, |_| {
        ThrottledStore::with_parallelism(MemStore::new(), READ_LATENCY, DEVICE_PARALLELISM)
    })
    .expect("sharded build");
    for i in 0..db.num_shards() {
        println!("  shard {i}: coverage {}", db.shard_coverage(i));
    }

    // 3. Concurrent clients: every thread queries through the same
    //    shared reference — routing, per-shard crawls, and the global
    //    kNN merge all happen behind `&self`.
    let queries = range_queries(
        &config.domain,
        &WorkloadConfig {
            count: 64,
            volume_fraction: 2e-3,
            proportion_range: (1.0, 4.0),
            seed: 11,
        },
    );
    let probes = knn_queries(
        &config.domain,
        &KnnConfig {
            count: 16,
            k_range: (4, 32),
            seed: 12,
        },
    );
    db.clear_cache();
    db.reset_stats();
    let start = Instant::now();
    let mut total_ops = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..CLIENTS {
            let (db, queries, probes) = (&db, &queries, &probes);
            handles.push(scope.spawn(move || {
                let mut ops = 0usize;
                for (i, q) in queries.iter().enumerate() {
                    if i % CLIENTS == t {
                        db.range_query(q).expect("range");
                        ops += 1;
                    }
                }
                for (i, &(p, k)) in probes.iter().enumerate() {
                    if i % CLIENTS == t {
                        db.knn_query(p, k).expect("knn");
                        ops += 1;
                    }
                }
                ops
            }));
        }
        for h in handles {
            total_ops += h.join().expect("client");
        }
    });
    let elapsed = start.elapsed();
    let io = db.io_stats();
    let lanes = db.scheduler_stats();
    println!(
        "served {} ops from {} clients in {:.0} ms ({:.0} ops/s)",
        total_ops,
        CLIENTS,
        elapsed.as_secs_f64() * 1000.0,
        total_ops as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "  scheduler: {} fetches, {} coalesced, mean wait {:.0} µs",
        lanes.demand_submitted,
        lanes.demand_coalesced,
        lanes.mean_demand_wait_us(),
    );
    println!(
        "  cache: {} logical / {} physical reads",
        io.total_logical_reads(),
        io.total_physical_reads(),
    );

    // 4. Updates route by shard too: the first batch adopts every
    //    shard's bulkload into its delta tables, then inserts land on the
    //    shard whose x-slab owns them and deletes go to the shard whose
    //    locator holds the id.
    let fresh: Vec<Entry> = (0..500)
        .map(|i| {
            let t = i as f64 / 500.0;
            let c = config.domain.min + (config.domain.max - config.domain.min) * t;
            Entry::new(1_000_000 + i, Aabb::cube(c, 0.4))
        })
        .collect();
    db.insert(fresh).expect("insert");
    let removed = db
        .delete(&(1_000_000..1_000_250).collect::<Vec<u64>>())
        .expect("delete");
    println!(
        "updates: +500 −{} elements, {} live across {} shards",
        removed,
        db.num_live_elements(),
        db.num_shards(),
    );
}
