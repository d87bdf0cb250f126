//! `device_reads`: the paper's device-bound regime through the serving
//! stack.
//!
//! `ShardedDb` with two shards, each over a queue-depth-aware device
//! model (150 µs per page read, eight in flight) and a cache one eighth
//! of the index, read by two concurrent clients. Nearly all time is
//! device wait, so only fewer page reads, more cache hits or more
//! overlap (scheduler, readahead, shards) move these numbers; CPU-path
//! work moves next to nothing.
//!
//! The device is the `ThrottledStore` model running on this machine's
//! timers and thread wake-ups, not a disk: its numbers compare builds of
//! this repository with each other, nothing else.

use super::{
    closed_loop, finish_traced, finish_untraced, median_setup, shard_options, shard_read,
    split_positions, verify_log, Checker, ClientLog, MetricSet, Phase, RunConfig, RunResult,
    DEFAULT_ELEMENTS,
};
use crate::inputs::{neuron_dataset, script, Dataset, Op, OpKind};
use crate::ladder::{self, Device, LadderConfig};
use crate::trace::{SpanStore, StoreGauge, Tracer};
use flat_core::{FlatError, ShardedDb};
use flat_storage::{MemStore, ThrottledStore, PAGE_SIZE};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The modelled device: 150 µs per page read, eight reads in flight.
pub const DEVICE: Device = Device {
    latency: Duration::from_micros(150),
    parallelism: 8,
};

/// Shards of the serving database.
pub const SHARDS: usize = 2;

/// Concurrent closed-loop clients.
pub const CLIENTS: usize = 2;

/// Operations of each kind in the script (SN, LSS, kNN; no aggregates):
/// the issue's 800 + 32 + 800 mix, twice over, so that a 25 s run does
/// not wrap around and every timed operation is a distinct query.
pub const SCRIPT_COUNTS: [usize; 4] = [1600, 64, 1600, 0];

/// The read kinds this workload issues.
const KINDS: [OpKind; 3] = [OpKind::Sn, OpKind::Lss, OpKind::Knn];

/// Cache pages **per shard**: 512 × 4 KB = 2 MB per shard at the default
/// dataset size, 4 MB in all against a ≈32 MB index (one eighth).
pub fn pool_pages(elements: usize) -> usize {
    (512 * elements / DEFAULT_ELEMENTS).max(16)
}

type Store = SpanStore<ThrottledStore<MemStore>>;

struct State {
    data: Dataset,
    ops: Vec<Op>,
    db: ShardedDb<Store>,
    gauge: Arc<StoreGauge>,
}

fn setup(config: &RunConfig) -> Result<State, FlatError> {
    let data = neuron_dataset(config.elements, config.seed);
    let ops = script(
        &data.domain,
        config.seed,
        SCRIPT_COUNTS.map(|c| config.ops(c)),
    );
    // ShardedDb never hands its stores back, so each one sits behind a
    // SpanStore whose (never enabled) tracer costs one relaxed load per
    // call and whose gauge is the only view of the pages stored.
    let tracer = Tracer::new(0);
    let gauge = Arc::new(StoreGauge::default());
    let options = shard_options(data.domain, pool_pages(config.elements));
    let db = ShardedDb::build(SHARDS, data.entries.clone(), options, |_| {
        SpanStore::new(DEVICE.store(), tracer.clone(), gauge.clone())
    })?;
    Ok(State {
        data,
        ops,
        db,
        gauge,
    })
}

/// The untraced run: end-to-end metrics.
pub fn run(config: &RunConfig) -> Result<RunResult, FlatError> {
    let mut checker = Checker::default();
    let mut metrics = MetricSet::default();
    let mut specific = MetricSet::default();
    let mut notes = Vec::new();

    let (state, setup_s) = median_setup(|| setup(config));
    let State {
        data,
        ops,
        db,
        gauge,
    } = state?;
    metrics.set("setup_s", setup_s);
    metrics.set(
        "stored_bytes_per_elem",
        (gauge.live_pages() * PAGE_SIZE as u64) as f64 / data.entries.len() as f64,
    );

    db.clear_cache();
    db.reset_stats();
    let shares = split_positions(&ops, CLIENTS);
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let start = Instant::now();
    let mut log = ClientLog::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = shares
            .iter()
            .map(|positions| {
                let (db, ops) = (&db, &ops);
                scope.spawn(move || {
                    closed_loop(
                        ops,
                        positions,
                        |op| shard_read(db, op),
                        || Instant::now() >= deadline,
                        || 0,
                        true,
                        true,
                    )
                })
            })
            .collect();
        for client in clients {
            log.absorb(client.join().expect("client thread panicked"));
        }
    });
    let wall = start.elapsed();

    Phase {
        log: &log,
        kinds: &KINDS,
        passes: &[],
        read_ops: log.ops,
        wall,
        repeats: false,
    }
    .report(&mut metrics, &mut specific, &mut notes);
    // The cache holds an eighth of the index, so the timed phase itself
    // runs (nearly) cold: its physical reads per operation are the
    // paper's page-reads figure under this workload's cache regime.
    metrics.set(
        "phys_reads_per_query",
        db.io_stats().total_physical_reads() as f64 / log.ops as f64,
    );
    verify_log(&mut checker, &log, &ops, &data.entries);
    Ok(finish_untraced(config, checker, &metrics, &specific, notes))
}

/// The traced run: the read ladder, cold, over the device model —
/// including the `scheduler` and `shard_k2` rungs.
pub fn run_traced(config: &RunConfig) -> Result<RunResult, FlatError> {
    let data = neuron_dataset(config.elements, config.seed);
    let ops = script(
        &data.domain,
        config.seed,
        SCRIPT_COUNTS.map(|c| config.ops(c / 64)),
    );
    let report = ladder::read_ladder(
        &data,
        &ops,
        &LadderConfig {
            pool_pages: pool_pages(config.elements),
            cold: true,
            device: Some(DEVICE),
            rounds: 2,
        },
    )?;
    let mut metrics = MetricSet::default();
    let mut notes = Vec::new();
    let mut checker = Checker::default();
    let trace = report.publish(&mut metrics, &mut notes, &mut checker);
    Ok(finish_traced(config, checker, &metrics, notes, trace))
}
