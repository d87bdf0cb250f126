//! `resident_reads`: a memory-resident index read by one client.
//!
//! `FlatDb<MemStore>` with a cache sixteen times the index, warmed before
//! timing: device wait is zero, so what is measured is the CPU tax of the
//! read path — cache-hit page copies, decode, predicates and crawl
//! bookkeeping. Work on the device, scheduler or router must not show
//! here; zero-copy pages or a leaner crawl kernel must.

use super::{
    cold_reads_per_query, db_read, finish_traced, finish_untraced, median_setup, stored_bytes,
    timed_passes, verify_log, warm_up, Checker, MetricSet, Phase, RunConfig, RunResult,
};
use crate::inputs::{neuron_dataset, script, Dataset, Op, OpKind};
use crate::ladder::{self, LadderConfig};
use flat_core::{DbOptions, FlatDb, FlatError};
use flat_storage::MemStore;
use std::time::{Duration, Instant};

/// Cache capacity in pages: 2¹⁷ × 4 KB = 512 MB, ≈16× the ≈7.8 k-page
/// index at the default dataset size, so nothing is ever evicted.
pub const POOL_PAGES: usize = 1 << 17;

/// Operations of each kind in one pass of the script (SN, LSS, kNN,
/// aggregate on LSS-sized boxes) — the issue's 4000 + 400 + 4000 + 400
/// mix in quarters, a little over a second of work each, so a 25 s run
/// makes about twenty passes and `query_per_s` is the median of twenty.
pub const PASS_COUNTS: [usize; 4] = [1000, 100, 1000, 100];

/// Operations of the cold count pass behind `phys_reads_per_query`: a
/// quarter of a pass (the script interleaves kinds evenly, so any prefix
/// keeps the mix).
const COUNT_OPS: usize = 550;

struct State {
    data: Dataset,
    ops: Vec<Op>,
    db: FlatDb<MemStore>,
}

fn setup(config: &RunConfig) -> Result<State, FlatError> {
    let data = neuron_dataset(config.elements, config.seed);
    let ops = script(
        &data.domain,
        config.seed,
        PASS_COUNTS.map(|c| config.ops(c)),
    );
    let mut options = DbOptions::updatable(data.domain);
    options.pool_pages = POOL_PAGES;
    let mut db = FlatDb::create(MemStore::new(), options);
    db.build_from(data.entries.clone())?;
    warm_up(&db, &ops)?;
    Ok(State { data, ops, db })
}

/// The untraced run: end-to-end metrics.
pub fn run(config: &RunConfig) -> Result<RunResult, FlatError> {
    let mut checker = Checker::default();
    let mut metrics = MetricSet::default();
    let mut specific = MetricSet::default();
    let mut notes = Vec::new();

    let (state, setup_s) = median_setup(|| setup(config));
    let State { data, ops, db } = state?;
    metrics.set("setup_s", setup_s);

    metrics.set(
        "stored_bytes_per_elem",
        stored_bytes(&db) as f64 / data.entries.len() as f64,
    );
    metrics.set(
        "phys_reads_per_query",
        cold_reads_per_query(&db, &ops, config.ops(COUNT_OPS), &mut checker),
    );
    warm_up(&db, &ops)?; // the count pass emptied the cache

    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let start = Instant::now();
    let (log, passes) = timed_passes(&ops, |op| db_read(&db, op), deadline);
    let wall = start.elapsed();

    Phase {
        log: &log,
        kinds: &OpKind::ALL,
        passes: &passes,
        read_ops: log.ops,
        wall,
        repeats: true,
    }
    .report(&mut metrics, &mut specific, &mut notes);
    verify_log(&mut checker, &log, &ops, &data.entries);
    Ok(finish_untraced(config, checker, &metrics, &specific, notes))
}

/// The traced run: the read ladder, warm, over half a pass.
pub fn run_traced(config: &RunConfig) -> Result<RunResult, FlatError> {
    let data = neuron_dataset(config.elements, config.seed);
    let ops = script(
        &data.domain,
        config.seed,
        PASS_COUNTS.map(|c| config.ops(c / 2)),
    );
    let report = ladder::read_ladder(
        &data,
        &ops,
        &LadderConfig {
            pool_pages: POOL_PAGES,
            cold: false,
            device: None,
            rounds: 3,
        },
    )?;
    let mut metrics = MetricSet::default();
    let mut notes = Vec::new();
    let mut checker = Checker::default();
    let trace = report.publish(&mut metrics, &mut notes, &mut checker);
    Ok(finish_traced(config, checker, &metrics, notes, trace))
}
