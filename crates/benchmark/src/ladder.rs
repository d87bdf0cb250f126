//! The read ladder: one script entered at every layer of the stack.
//!
//! The same operations are issued through each public entry point, from
//! the bottom up — raw [`PageStore`] reads of the physical page trace,
//! the page cache replaying the logical trace, a [`VersionedPool`] pin
//! replaying it, [`FlatIndex`] over a pin, the [`FlatDb`] façade, and a
//! [`ShardedDb`] — and a layer's self time is its rung minus the rung
//! below. The traces the lower rungs replay are recorded once, by running
//! the script at the index rung through a [`SpanPool`] over a
//! [`SpanStore`]. Every rung that answers queries must return the same
//! answers; every rung that replays pages must see the recorded bytes.

use crate::inputs::{Dataset, Op, OpKind};
use crate::json::Json;
use crate::oracle::brute_force;
use crate::stats;
use crate::trace::{
    kind_from_index, measure_span_overhead_ns, page_digest, summarize, Span, SpanPool, SpanStore,
    SpanTotals, StoreGauge, Tracer,
};
use crate::workloads::{db_read, shard_options, shard_read, Checker, MetricSet, Raw};
use flat_core::{
    AggregateStats, DbOptions, FlatDb, FlatError, FlatIndex, FlatOptions, KnnStats, QueryStats,
    ShardedDb,
};
use flat_storage::{
    DiskScheduler, MemStore, Page, PageId, PageKind, PageRead, PageStore, SchedulerConfig,
    SchedulerStats, StorageError, ThrottledStore, VersionedPool,
};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The device model of the cold workloads.
#[derive(Debug, Clone, Copy)]
pub struct Device {
    /// Latency of one page read.
    pub latency: Duration,
    /// Reads served concurrently at full speed.
    pub parallelism: usize,
}

impl Device {
    /// A fresh in-memory store behind this device model.
    pub fn store(&self) -> ThrottledStore<MemStore> {
        ThrottledStore::with_parallelism(MemStore::new(), self.latency, self.parallelism)
    }
}

/// How a ladder is run.
#[derive(Debug, Clone, Copy)]
pub struct LadderConfig {
    /// Cache capacity at every rung (per shard at the shard rungs).
    pub pool_pages: usize,
    /// `true`: the cache is cleared before each pass of the script (the
    /// device-bound regime); `false`: one untimed pass warms it first.
    pub cold: bool,
    /// Device model under the store, if any. Also adds the `scheduler`
    /// and `shard_k2` rungs, which only matter with a device to overlap.
    pub device: Option<Device>,
    /// Timed passes per rung (interleaved across rungs).
    pub rounds: usize,
}

/// One rung's time for the whole script, split by operation kind.
///
/// Passes are interleaved across rungs and every script position keeps
/// the fastest of its repeats at each rung, so a burst of interference
/// has to hit every repeat of an operation to show.
#[derive(Debug, Clone)]
pub struct Rung {
    /// `store`, `cache`, `scheduler`, `versioned`, `index`, `db`,
    /// `shard_k1` or `shard_k2`.
    pub name: &'static str,
    /// Seconds spent on each [`OpKind`]: the sum, over the script's
    /// operations of that kind, of each operation's fastest repeat.
    pub per_kind_s: [f64; 4],
}

impl Rung {
    /// Seconds for the whole script.
    pub fn total_s(&self) -> f64 {
        self.per_kind_s.iter().sum()
    }
}

/// Everything one read ladder measured.
#[derive(Debug)]
pub struct LadderReport {
    /// Operations per kind in the script.
    pub counts: [usize; 4],
    /// The rungs, bottom-up.
    pub rungs: Vec<Rung>,
    /// Logical page reads of one pass (cache-level requests).
    pub logical_reads: u64,
    /// Physical page reads of one pass (store-level reads).
    pub physical_reads: u64,
    /// Crawl counters summed over the range queries.
    pub range_stats: QueryStats,
    /// Results summed over the range queries.
    pub range_results: u64,
    /// Expansion counters summed over the kNN probes.
    pub knn_stats: KnnStats,
    /// Crawl counters summed over the aggregates.
    pub agg_stats: AggregateStats,
    /// Scheduler counters of the top shard rung over its timed passes.
    pub scheduler: SchedulerStats,
    /// Prefetch reads / hits of the top shard rung.
    pub prefetch: (u64, u64),
    /// Bulk-load throughput of the `db` rung's build.
    pub build_elems_per_s: f64,
    /// Per-kind latencies (µs) of the untraced `db` rung, all rounds.
    pub db_latency_us: [Vec<f64>; 4],
    /// `db` rung pass with spans on, seconds.
    pub traced_db_s: f64,
    /// Span totals of the recording pass at the index rung.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Mean cost of one span.
    pub span_overhead_ns: f64,
    /// Spans that overflowed the buffer.
    pub spans_dropped: u64,
    /// Failure accounting of the ladder's own checks.
    pub checker: Checker,
}

/// One logical or physical page access of a recorded trace: the page,
/// the kind it was requested as, and the digest it returned.
type Access = (PageId, PageKind, u64);

/// One rung while it is being measured: how to run script position `i`
/// through it, how to reset its cache, and the fastest time each
/// position has taken so far.
struct Measured<'a> {
    name: &'static str,
    clear: Box<dyn Fn() + 'a>,
    run: Box<dyn Fn(usize) -> Result<(), FlatError> + 'a>,
    best_s: Vec<f64>,
    latency_us: [Vec<f64>; 4],
}

impl<'a> Measured<'a> {
    fn new(
        name: &'static str,
        ops: usize,
        clear: impl Fn() + 'a,
        run: impl Fn(usize) -> Result<(), FlatError> + 'a,
    ) -> Self {
        Measured {
            name,
            clear: Box::new(clear),
            run: Box::new(run),
            best_s: vec![f64::INFINITY; ops],
            latency_us: Default::default(),
        }
    }

    /// One pass over the script; each position keeps its fastest time.
    fn pass(&mut self, kinds: &[OpKind], cold: bool) -> Result<(), FlatError> {
        if cold {
            (self.clear)();
        }
        for (position, kind) in kinds.iter().enumerate() {
            let start = Instant::now();
            (self.run)(position)?;
            let elapsed = start.elapsed().as_secs_f64();
            self.best_s[position] = self.best_s[position].min(elapsed);
            self.latency_us[kind.index()].push(elapsed * 1e6);
        }
        Ok(())
    }

    fn rung(&self, kinds: &[OpKind]) -> Rung {
        let mut per_kind_s = [0.0; 4];
        for (best, kind) in self.best_s.iter().zip(kinds) {
            per_kind_s[kind.index()] += best;
        }
        Rung {
            name: self.name,
            per_kind_s,
        }
    }
}

/// Runs every operation once through `run`, untimed, returning the
/// answer digests (and warming whatever cache `run` reads through).
fn answers(ops: &[Op], run: impl Fn(&Op) -> Result<Raw, FlatError>) -> Result<Vec<u64>, FlatError> {
    ops.iter()
        .map(|op| run(op).map(|raw| raw.answer().digest()))
        .collect()
}

/// Groups the spans called `name` by the query that caused them.
fn trace_of(spans: &[Span], name: &str, queries: usize) -> Vec<Vec<Access>> {
    let mut out = vec![Vec::new(); queries];
    for span in spans.iter().filter(|s| s.name == name) {
        out[span.query as usize].push((PageId(span.arg), kind_from_index(span.kind), span.digest));
    }
    out
}

/// Replays one query's accesses through `read` (which returns the
/// digest of the page it read), clearing `same` if any page differs
/// from the recording.
fn replay(
    accesses: &[Access],
    same: &Cell<bool>,
    mut read: impl FnMut(PageId, PageKind) -> Result<u64, StorageError>,
) -> Result<(), FlatError> {
    for &(id, kind, digest) in accesses {
        if read(id, kind)? != digest {
            same.set(false);
        }
    }
    Ok(())
}

/// The rung a rung's self time is measured against. `scheduler` and
/// `shard_k2` are siblings of the rung above their base, not layers
/// under it: the benchmark's `VersionedPool` sits on the plain cache, and
/// K=2 replaces K=1.
fn base_of(rung: &str) -> Option<&'static str> {
    match rung {
        "cache" => Some("store"),
        "scheduler" | "versioned" => Some("cache"),
        "index" => Some("versioned"),
        "db" => Some("index"),
        "shard_k1" | "shard_k2" => Some("db"),
        _ => None,
    }
}

fn index_options(data: &Dataset) -> FlatOptions {
    DbOptions::updatable(data.domain).index
}

/// Runs the read ladder for `ops` over `data`.
pub fn read_ladder(
    data: &Dataset,
    ops: &[Op],
    config: &LadderConfig,
) -> Result<LadderReport, FlatError> {
    match config.device {
        None => ladder_over(data, ops, config, MemStore::new),
        Some(device) => ladder_over(data, ops, config, move || device.store()),
    }
}

fn ladder_over<S: PageStore + Send + Sync + 'static>(
    data: &Dataset,
    ops: &[Op],
    config: &LadderConfig,
    make_store: impl Fn() -> S,
) -> Result<LadderReport, FlatError> {
    let kinds: Vec<OpKind> = ops.iter().map(Op::kind).collect();
    let mut counts = [0usize; 4];
    for kind in &kinds {
        counts[kind.index()] += 1;
    }
    let mut checker = Checker::default();
    // Room for every logical read of one pass with generous headroom
    // (≈2× the reads each kind makes at the default dataset size); the
    // buffer is allocated before any measured section and an overflow
    // fails the run rather than silently truncating the trace.
    let tracer = Tracer::new(
        65_536
            + counts[OpKind::Sn.index()] * 1_000
            + counts[OpKind::Knn.index()] * 1_500
            + (counts[OpKind::Lss.index()] + counts[OpKind::Agg.index()]) * 12_000,
    );
    let gauge = Arc::new(StoreGauge::default());
    let spanned = || SpanStore::new(make_store(), tracer.clone(), gauge.clone());

    // Every rung gets its own copy of the same (bit-identical) bulkload,
    // so all rungs exist at once and their passes can be interleaved —
    // on a shared machine, drift between two back-to-back measurements
    // is larger than most of the differences this ladder is after.
    //
    // db rung: the façade.
    let mut options = DbOptions::updatable(data.domain);
    options.pool_pages = config.pool_pages;
    let entries = data.entries.clone();
    let build_start = Instant::now();
    let mut db = FlatDb::create(spanned(), options);
    db.build_from(entries)?;
    let build_elems_per_s = data.entries.len() as f64 / build_start.elapsed().as_secs_f64();
    let db = db;
    // store / cache / versioned / index rungs: a benchmark-owned pool.
    let mut pool = VersionedPool::new(spanned(), config.pool_pages);
    let (index, _) = FlatIndex::build(&mut pool, data.entries.clone(), index_options(data))?;
    let pool = pool;
    // scheduler rung: the same pages behind a DiskScheduler.
    let scheduler = match config.device {
        Some(_) => {
            let mut scheduler = DiskScheduler::with_config(
                spanned(),
                config.pool_pages,
                SchedulerConfig::default(),
            );
            FlatIndex::build(&mut scheduler, data.entries.clone(), index_options(data))?;
            Some(scheduler)
        }
        None => None,
    };
    // shard rungs.
    let shard_counts: &[(usize, &'static str)] = if config.device.is_some() {
        &[(1, "shard_k1"), (2, "shard_k2")]
    } else {
        &[(1, "shard_k1")]
    };
    let shards = shard_counts
        .iter()
        .map(|&(k, name)| {
            let sharded = ShardedDb::build(
                k,
                data.entries.clone(),
                shard_options(data.domain, config.pool_pages),
                |_| make_store(),
            )?;
            Ok((name, sharded))
        })
        .collect::<Result<Vec<_>, FlatError>>()?;

    let index_read = |op: &Op| -> Result<Raw, FlatError> {
        let pin = pool.pin();
        Ok(match op {
            Op::Range(_, query) => Raw::Hits(index.range_query(&pin, query)?),
            Op::Knn(point, k) => Raw::Neighbors(index.knn_query(&pin, *point, *k)?),
            Op::Agg(query) => Raw::Count(index.aggregate_count(&pin, query)?),
        })
    };

    // ---- reference answers (these passes also warm every cache) ------
    let reference = answers(ops, |op| db_read(&db, op))?;
    for (name, sharded) in &shards {
        let got = answers(ops, |op| shard_read(sharded, op))?;
        checker.check(got == reference, || {
            format!("{name} rung and db rung disagree on some answer")
        });
        sharded.reset_stats();
    }
    if !config.cold {
        answers(ops, index_read)?;
    }

    // ---- recording pass at the index rung ----------------------------
    // The script through SpanPool over SpanStore: captures the logical
    // and physical page traces the lower rungs replay, the crawl
    // counters, and the oracle samples.
    if config.cold {
        pool.cache().clear_cache();
    }
    let io_before = pool.cache().stats();
    let mut range_stats = QueryStats::default();
    let mut range_results = 0u64;
    let mut knn_stats = KnnStats::default();
    let mut agg_stats = AggregateStats::default();
    let mut recorded = Vec::with_capacity(ops.len());
    tracer.set_enabled(true);
    for (i, op) in ops.iter().enumerate() {
        let pin = pool.pin();
        let traced = SpanPool::new(&pin, tracer.clone(), "pool.read");
        let _query = tracer.root_span("query", i as u32);
        recorded.push(match op {
            Op::Range(_, query) => {
                let mut one = QueryStats::default();
                let hits = index.range_query_with_stats(&traced, query, &mut one)?;
                range_results += one.result_count;
                range_stats.records_processed += one.records_processed;
                range_stats.object_pages_read += one.object_pages_read;
                range_stats.seed_probe_pages += one.seed_probe_pages;
                range_stats.records_seen += one.records_seen;
                range_stats.mbr_tests += one.mbr_tests;
                Raw::Hits(hits)
            }
            Op::Knn(point, k) => {
                Raw::Neighbors(index.knn_query_with_stats(&traced, *point, *k, &mut knn_stats)?)
            }
            Op::Agg(query) => {
                Raw::Count(index.aggregate_count_with_stats(&traced, query, &mut agg_stats)?)
            }
        });
    }
    tracer.set_enabled(false);
    let io = pool.cache().stats().since(&io_before);
    let spans = tracer.take();
    let logical = trace_of(&spans, "pool.read", ops.len());
    let physical = trace_of(&spans, "store.read", ops.len());
    let logical_reads: u64 = logical.iter().map(|t| t.len() as u64).sum();
    let physical_reads: u64 = physical.iter().map(|t| t.len() as u64).sum();
    checker.check(
        tracer.dropped() == 0
            && logical_reads == io.total_logical_reads()
            && physical_reads == io.total_physical_reads(),
        || {
            format!(
                "trace disagrees with IoStats: spans {logical_reads}/{physical_reads}, \
                 counters {}/{}, dropped {}",
                io.total_logical_reads(),
                io.total_physical_reads(),
                tracer.dropped()
            )
        },
    );
    for (position, raw) in recorded.iter().enumerate() {
        checker.check(raw.answer().digest() == reference[position], || {
            format!("index rung and db rung disagree on op {position}")
        });
        if position % 10 == 0 {
            let expected = brute_force(&data.entries, &ops[position]);
            checker.check(raw.answer() == expected, || {
                format!(
                    "op {position} returned {} results, oracle {}",
                    raw.len(),
                    expected.len()
                )
            });
        }
    }
    drop(recorded);

    // ---- timed passes, interleaved across rungs ----------------------
    let same = Cell::new(true);
    let store_guard = pool.store_guard();
    let scratch = RefCell::new(Page::new());
    let n = ops.len();
    let mut measured: Vec<Measured<'_>> = vec![
        Measured::new(
            "store",
            n,
            || {},
            |i| {
                replay(&physical[i], &same, |id, _| {
                    let mut page = scratch.borrow_mut();
                    store_guard.read_page(id, &mut page)?;
                    Ok(page_digest(&page))
                })
            },
        ),
        Measured::new(
            "cache",
            n,
            || pool.cache().clear_cache(),
            |i| {
                replay(&logical[i], &same, |id, kind| {
                    pool.cache().read_page(id, kind).map(|p| page_digest(&p))
                })
            },
        ),
    ];
    if let Some(scheduler) = &scheduler {
        measured.push(Measured::new(
            "scheduler",
            n,
            || scheduler.clear_cache(),
            |i| {
                replay(&logical[i], &same, |id, kind| {
                    scheduler.read_page(id, kind).map(|p| page_digest(&p))
                })
            },
        ));
    }
    measured.push(Measured::new(
        "versioned",
        n,
        || pool.cache().clear_cache(),
        |i| {
            let pin = pool.pin();
            replay(&logical[i], &same, |id, kind| {
                pin.read_page(id, kind).map(|p| page_digest(&p))
            })
        },
    ));
    measured.push(Measured::new(
        "index",
        n,
        || pool.cache().clear_cache(),
        |i| index_read(&ops[i]).map(drop),
    ));
    measured.push(Measured::new(
        "db",
        n,
        || db.clear_cache(),
        |i| db_read(&db, &ops[i]).map(drop),
    ));
    for (name, sharded) in &shards {
        measured.push(Measured::new(
            name,
            n,
            || sharded.clear_cache(),
            |i| shard_read(sharded, &ops[i]).map(drop),
        ));
    }
    // Not a layer: the db rung again with spans on, for the tracing
    // overhead (a query span, plus a store span per physical read).
    measured.push(Measured::new(
        "db_traced",
        n,
        || db.clear_cache(),
        |i| {
            tracer.set_enabled(true);
            let result = {
                let _query = tracer.root_span("query", i as u32);
                db_read(&db, &ops[i]).map(drop)
            };
            tracer.set_enabled(false);
            result
        },
    ));
    for _ in 0..config.rounds.max(1) {
        for rung in &mut measured {
            rung.pass(&kinds, config.cold)?;
        }
    }
    checker.check(same.get(), || {
        "a replay rung read bytes that differ from the recorded trace".into()
    });
    tracer.take(); // the db_traced rung's spans: only its time matters
    let mut rungs: Vec<Rung> = measured.iter().map(|m| m.rung(&kinds)).collect();
    let traced_db_s = rungs.pop().expect("db_traced was pushed last").total_s();
    let db_latency_us = measured
        .iter_mut()
        .find(|m| m.name == "db")
        .map(|m| std::mem::take(&mut m.latency_us))
        .expect("the db rung always runs");
    drop(measured);

    let (_, top) = shards.last().expect("a shard rung always runs");
    let scheduler_stats = top.scheduler_stats();
    let top_io = top.io_stats();

    Ok(LadderReport {
        counts,
        rungs,
        logical_reads,
        physical_reads,
        range_stats,
        range_results,
        knn_stats,
        agg_stats,
        scheduler: scheduler_stats,
        prefetch: (top_io.total_prefetch_reads(), top_io.total_prefetch_hits()),
        build_elems_per_s,
        db_latency_us,
        traced_db_s,
        spans: summarize(&spans),
        span_overhead_ns: measure_span_overhead_ns(),
        spans_dropped: tracer.dropped(),
        checker,
    })
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// JSON form of a span summary (what `trace.json` holds).
pub fn spans_json(spans: &BTreeMap<&'static str, SpanTotals>) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|(name, t)| {
                Json::obj([
                    ("span", Json::str(*name)),
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ])
            })
            .collect(),
    )
}

impl LadderReport {
    /// The rung called `name`.
    pub fn rung(&self, name: &str) -> Option<&Rung> {
        self.rungs.iter().find(|r| r.name == name)
    }

    fn total(&self, name: &str) -> f64 {
        self.rung(name).map_or(0.0, Rung::total_s)
    }

    /// Writes the per-layer metrics, the layer table and the ladder's
    /// own failures, returning the span summary.
    pub fn publish(
        self,
        metrics: &mut MetricSet,
        notes: &mut Vec<String>,
        checker: &mut Checker,
    ) -> Json {
        let ops: usize = self.counts.iter().sum();
        let n = ops as f64;
        let logical = self.logical_reads as f64;
        let ranges = (self.counts[OpKind::Sn.index()] + self.counts[OpKind::Lss.index()]) as f64;

        // Layer table: one row per rung, self time = rung − rung below.
        notes.push(format!(
            "{:<10} {:>11} {:>11} {:>8} {:>10} {:>10} {:>10} {:>10}  \
             (script: {} sn, {} lss, {} knn, {} agg; per-kind columns are us per op)",
            "rung",
            "rung_ms",
            "self_ms",
            "self_%",
            "sn_us",
            "lss_us",
            "knn_us",
            "agg_us",
            self.counts[0],
            self.counts[1],
            self.counts[2],
            self.counts[3]
        ));
        for rung in &self.rungs {
            let base = base_of(rung.name).map_or(0.0, |b| self.total(b));
            let total = rung.total_s();
            let per_op = |kind: usize| ratio(rung.per_kind_s[kind] * 1e6, self.counts[kind] as f64);
            notes.push(format!(
                "{:<10} {:>11.3} {:>11.3} {:>7.1}% {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                rung.name,
                total * 1e3,
                (total - base) * 1e3,
                ratio(total - base, self.total("db")) * 100.0,
                per_op(0),
                per_op(1),
                per_op(2),
                per_op(3),
            ));
        }
        notes.push(format!(
            "pages per pass: {} logical, {} physical; {} spans recorded ({} dropped), {:.0} ns per span",
            self.logical_reads,
            self.physical_reads,
            self.spans.values().map(|t| t.count).sum::<u64>(),
            self.spans_dropped,
            self.span_overhead_ns
        ));

        metrics.set("store.reads_per_query", self.physical_reads as f64 / n);
        metrics.set(
            "store.read_wait_us_per_query",
            self.total("store") * 1e6 / n,
        );
        metrics.set("cache.logical_reads_per_query", logical / n);
        metrics.set(
            "cache.hit_rate",
            1.0 - ratio(self.physical_reads as f64, logical),
        );
        metrics.set(
            "cache.hit_ns_per_read",
            ratio((self.total("cache") - self.total("store")) * 1e9, logical),
        );
        if self.rung("scheduler").is_some() {
            metrics.set(
                "scheduler.self_us_per_query",
                (self.total("scheduler") - self.total("cache")) * 1e6 / n,
            );
        }
        metrics.set(
            "versioned.pin_ns_per_read",
            ratio(
                (self.total("versioned") - self.total("cache")) * 1e9,
                logical,
            ),
        );
        let index = self.rung("index").expect("index rung always runs");
        let versioned = self.rung("versioned").expect("versioned rung always runs");
        for (kind, name) in [
            (OpKind::Sn, "index.self_us_per_sn"),
            (OpKind::Lss, "index.self_us_per_lss"),
            (OpKind::Knn, "index.self_us_per_knn"),
            (OpKind::Agg, "index.self_us_per_agg"),
        ] {
            let i = kind.index();
            metrics.set(
                name,
                ratio(
                    (index.per_kind_s[i] - versioned.per_kind_s[i]) * 1e6,
                    self.counts[i] as f64,
                ),
            );
        }
        let results = self.range_results as f64;
        metrics.set(
            "index.records_per_result",
            ratio(self.range_stats.records_processed as f64, results),
        );
        metrics.set(
            "index.mbr_tests_per_result",
            ratio(self.range_stats.mbr_tests as f64, results),
        );
        metrics.set(
            "index.object_pages_per_query",
            ratio(self.range_stats.object_pages_read as f64, ranges),
        );
        metrics.set(
            "index.seed_probe_pages_per_query",
            ratio(self.range_stats.seed_probe_pages as f64, ranges),
        );
        metrics.set(
            "index.knn_records_expanded_per_query",
            ratio(
                self.knn_stats.records_expanded as f64,
                self.counts[OpKind::Knn.index()] as f64,
            ),
        );
        metrics.set(
            "index.agg_pages_skipped_share",
            ratio(
                self.agg_stats.pages_skipped as f64,
                (self.agg_stats.pages_skipped + self.agg_stats.object_pages_read) as f64,
            ),
        );
        metrics.set(
            "db.facade_ns_per_query",
            (self.total("db") - self.total("index")) * 1e9 / n,
        );
        metrics.set("db.build_elems_per_s", self.build_elems_per_s);
        metrics.set(
            "db.sn_p99_us",
            stats::quantile(&self.db_latency_us[OpKind::Sn.index()], 0.99),
        );
        metrics.set(
            "db.knn_p99_us",
            stats::quantile(&self.db_latency_us[OpKind::Knn.index()], 0.99),
        );
        metrics.set(
            "shard.route_us_per_query",
            (self.total("shard_k1") - self.total("db")) * 1e6 / n,
        );
        if self.rung("shard_k2").is_some() {
            metrics.set(
                "shard.k2_speedup",
                ratio(self.total("shard_k1"), self.total("shard_k2")),
            );
        }
        let s = &self.scheduler;
        metrics.set("scheduler.demand_wait_us_mean", s.mean_demand_wait_us());
        metrics.set(
            "scheduler.demand_service_us_mean",
            s.mean_demand_service_us(),
        );
        metrics.set(
            "scheduler.coalesced_share",
            ratio(
                s.demand_coalesced as f64,
                (s.demand_coalesced + s.demand_submitted) as f64,
            ),
        );
        metrics.set("scheduler.demand_queue_max", s.demand_queue_max as f64);
        metrics.set(
            "scheduler.prefetch_useful_share",
            ratio(self.prefetch.1 as f64, self.prefetch.0 as f64),
        );
        metrics.set(
            "trace_overhead_pct",
            ratio(self.traced_db_s - self.total("db"), self.total("db")) * 100.0,
        );
        checker.absorb(self.checker);
        spans_json(&self.spans)
    }
}
