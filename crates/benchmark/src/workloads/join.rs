//! `join_analytics`: ε-joins and aggregates over clustered data.
//!
//! Two memory-resident `FlatDb`s — a brain-like surface mesh and an
//! n-body particle snapshot sharing one domain — read by one client that
//! runs `Snapshot::join`s (mesh ⋈ particles at the workload's ε), then
//! `aggregate_count`s over LSS-sized boxes on the particle side. The link
//! graph is the same as in `resident_reads`, but driven by a different
//! kernel (the co-crawl with frontier reuse) and a different predicate
//! (the containment early-exit), on data whose density varies by orders
//! of magnitude — the paths most likely to regress when crawl loops are
//! merged.

use super::{
    db_read, finish_traced, finish_untraced, median_setup, shard_options, stored_bytes, verify_log,
    warm_up, Checker, Client, MetricSet, PassWall, Phase, RunConfig, RunResult,
};
use crate::inputs::{join_dataset, script, Dataset, Op, OpKind};
use crate::json::Json;
use crate::ladder::{self, spans_json, LadderConfig};
use crate::oracle::grid_join;
use crate::stats;
use crate::trace::{
    kind_from_index, page_digest, summarize, Span, SpanPool, SpanStore, StoreGauge, Tracer,
};
use flat_core::{DbOptions, FlatDb, FlatError, JoinEngine, JoinInput, JoinStats, ShardedDb};
use flat_data::join::JoinWorkload;
use flat_geom::Aabb;
use flat_rtree::Entry;
use flat_storage::{MemStore, PageId, PageRead, PageStore, VersionedPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cache pages per database: both indexes stay resident.
pub const POOL_PAGES: usize = 1 << 17;

/// Joins at the start of each pass.
pub const JOINS_PER_PASS: usize = 3;

/// The particle-side reads that follow them (SN, LSS, kNN, aggregate):
/// aggregates only. With [`JOINS_PER_PASS`] this is the issue's
/// 30 joins + 2000 aggregates in tenths, about half a second of work, so
/// a 25 s run makes some fifty passes and `query_per_s` is their median.
/// The joins are about three quarters of a pass's time.
pub const READ_COUNTS: [usize; 4] = [0, 0, 0, 200];

fn db_options(domain: Aabb) -> DbOptions {
    let mut options = DbOptions::updatable(domain);
    options.pool_pages = POOL_PAGES;
    options
}

fn build<S: PageStore>(store: S, entries: &[Entry], domain: Aabb) -> Result<FlatDb<S>, FlatError> {
    let mut db = FlatDb::create(store, db_options(domain));
    db.build_from(entries.to_vec())?;
    Ok(db)
}

struct State {
    inputs: JoinWorkload,
    ops: Vec<Op>,
    outer: FlatDb<MemStore>,
    inner: FlatDb<MemStore>,
}

fn setup(config: &RunConfig) -> Result<State, FlatError> {
    let inputs = join_dataset(config.elements, config.seed);
    let ops = script(
        &inputs.domain,
        config.seed,
        READ_COUNTS.map(|c| config.ops(c)),
    );
    let outer = build(MemStore::new(), &inputs.outer, inputs.domain)?;
    let inner = build(MemStore::new(), &inputs.inner, inputs.domain)?;
    outer.reader().join(&inner.reader(), inputs.eps)?;
    warm_up(&inner, &ops)?;
    Ok(State {
        inputs,
        ops,
        outer,
        inner,
    })
}

/// The untraced run: end-to-end metrics plus `join_s` and `agg_p50_us`.
pub fn run(config: &RunConfig) -> Result<RunResult, FlatError> {
    let mut checker = Checker::default();
    let mut metrics = MetricSet::default();
    let mut specific = MetricSet::default();
    let mut notes = Vec::new();

    let (state, setup_s) = median_setup(|| setup(config));
    let State {
        inputs,
        ops,
        outer,
        inner,
    } = state?;
    metrics.set("setup_s", setup_s);
    metrics.set(
        "stored_bytes_per_elem",
        (stored_bytes(&outer) + stored_bytes(&inner)) as f64
            / (inputs.outer.len() + inputs.inner.len()) as f64,
    );
    // The reference pair set, by a uniform grid — computed once.
    let expected = grid_join(&inputs.outer, &inputs.inner, inputs.eps);
    let joins_per_pass = config.ops(JOINS_PER_PASS);
    let join = |checker: &mut Checker| {
        let begin = Instant::now();
        let joined = outer.reader().join(&inner.reader(), inputs.eps);
        let seconds = begin.elapsed().as_secs_f64();
        checker.check(
            joined.as_ref().is_ok_and(|j| j.pairs == expected),
            || match &joined {
                Ok(j) => format!(
                    "join returned {} pairs, oracle {}",
                    j.pairs.len(),
                    expected.len()
                ),
                Err(e) => format!("join returned Err: {e}"),
            },
        );
        seconds
    };

    // ---- count pass: one pass, the caches cleared before every op ------
    let physical =
        || outer.io_stats().total_physical_reads() + inner.io_stats().total_physical_reads();
    let before = physical();
    for _ in 0..joins_per_pass {
        outer.clear_cache();
        inner.clear_cache();
        join(&mut checker);
    }
    for op in &ops {
        inner.clear_cache();
        checker.check(db_read(&inner, op).is_ok(), || {
            "a cold aggregate returned Err".into()
        });
    }
    metrics.set(
        "phys_reads_per_query",
        (physical() - before) as f64 / (joins_per_pass + ops.len()) as f64,
    );
    join(&mut checker); // the count pass emptied both caches
    warm_up(&inner, &ops)?;

    // ---- timed phase: every pass repeats the same joins and reads ------
    let mut client = Client::new(&ops, |op| db_read(&inner, op), true, true);
    let mut join_s = Vec::new();
    let mut passes = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let start = Instant::now();
    for pass in 0.. {
        let begin_pass = Instant::now();
        for _ in 0..joins_per_pass {
            join_s.push(join(&mut checker));
        }
        for position in 0..ops.len() {
            client.issue(position, pass);
        }
        // Joins are read operations too.
        passes.push(PassWall {
            ops: (joins_per_pass + ops.len()) as u64,
            seconds: begin_pass.elapsed().as_secs_f64(),
        });
        if Instant::now() >= deadline {
            break;
        }
    }
    let wall = start.elapsed();
    let log = client.log;

    Phase {
        log: &log,
        kinds: &[OpKind::Agg],
        passes: &passes,
        read_ops: log.ops + join_s.len() as u64, // each join already counted by its check
        wall,
        repeats: true,
    }
    .report(&mut metrics, &mut specific, &mut notes);
    verify_log(&mut checker, &log, &ops, &inputs.inner);
    specific.set("join_s", stats::median(&join_s));
    notes.push(format!(
        "join_s: {} joins of {} x {} elements at eps {}, {} pairs each; p90 {:.4} s, \
         fastest {:.4} s (diagnostic)",
        join_s.len(),
        inputs.outer.len(),
        inputs.inner.len(),
        inputs.eps,
        expected.len(),
        stats::quantile(&join_s, 0.9),
        join_s.iter().copied().fold(f64::INFINITY, f64::min),
    ));
    Ok(finish_untraced(config, checker, &metrics, &specific, notes))
}

// ----------------------------------------------------------------------
// Traced run: the join ladder, then the read ladder on the particle side.
// ----------------------------------------------------------------------

/// One page access of the recorded join trace: which side's pool, which
/// page, and the digest it returned.
struct JoinAccess {
    inner_side: bool,
    id: PageId,
    kind: u8,
    digest: u64,
}

fn join_trace(spans: &[Span]) -> Vec<JoinAccess> {
    spans
        .iter()
        .filter_map(|s| {
            let inner_side = match s.name {
                "pool.read.outer" => false,
                "pool.read.inner" => true,
                _ => return None,
            };
            Some(JoinAccess {
                inner_side,
                id: PageId(s.arg),
                kind: s.kind,
                digest: s.digest,
            })
        })
        .collect()
}

/// Median seconds of `rounds` runs of `body`.
fn median_s<E>(rounds: usize, mut body: impl FnMut() -> Result<(), E>) -> Result<f64, E> {
    let mut times = Vec::new();
    for _ in 0..rounds.max(1) {
        let begin = Instant::now();
        body()?;
        times.push(begin.elapsed().as_secs_f64());
    }
    Ok(stats::median(&times))
}

/// Replays the recorded join trace through one pool per side, clearing
/// `same` if any page differs from the recording.
fn replay(
    trace: &[JoinAccess],
    outer: &impl PageRead,
    inner: &impl PageRead,
    same: &mut bool,
) -> Result<(), FlatError> {
    for access in trace {
        let kind = kind_from_index(access.kind);
        let page = if access.inner_side {
            inner.read_page(access.id, kind)?
        } else {
            outer.read_page(access.id, kind)?
        };
        *same &= page_digest(&page) == access.digest;
    }
    Ok(())
}

/// The traced run.
pub fn run_traced(config: &RunConfig) -> Result<RunResult, FlatError> {
    let mut checker = Checker::default();
    let mut metrics = MetricSet::default();
    let mut notes = Vec::new();

    let inputs = join_dataset(config.elements, config.seed);
    let eps = inputs.eps;
    let expected = grid_join(&inputs.outer, &inputs.inner, eps);
    let rounds = config.ops(5);
    let tracer = Tracer::new(1 << 21);
    let gauge = Arc::new(StoreGauge::default());
    let spanned = || SpanStore::new(MemStore::new(), tracer.clone(), gauge.clone());

    // ---- db rung -------------------------------------------------------
    let outer = build(spanned(), &inputs.outer, inputs.domain)?;
    let inner = build(spanned(), &inputs.inner, inputs.domain)?;
    let reference = outer.reader().join(&inner.reader(), eps)?; // also warms
    checker.check(reference.pairs == expected, || {
        format!(
            "db rung join returned {} pairs, oracle {}",
            reference.pairs.len(),
            expected.len()
        )
    });
    let db_s = median_s(rounds, || {
        outer.reader().join(&inner.reader(), eps).map(drop)
    })?;
    tracer.set_enabled(true);
    let traced_db_s = {
        let begin = Instant::now();
        let _query = tracer.root_span("join", 0);
        outer.reader().join(&inner.reader(), eps)?;
        begin.elapsed().as_secs_f64()
    };
    tracer.set_enabled(false);
    tracer.take();

    // ---- index / versioned / cache rungs over benchmark-owned pools ----
    let (outer_index, inner_index) = (outer.index(), inner.index());
    let outer_pool = VersionedPool::new(outer.into_store(), POOL_PAGES);
    let inner_pool = VersionedPool::new(inner.into_store(), POOL_PAGES);
    let engine = JoinEngine::new(eps);
    let index_join = || {
        let (outer_pin, inner_pin) = (outer_pool.pin(), inner_pool.pin());
        engine.join(
            &outer_pin,
            JoinInput::Flat(&outer_index),
            &inner_pin,
            JoinInput::Flat(&inner_index),
        )
    };
    index_join()?; // warm the new caches
    let stats: JoinStats = {
        tracer.set_enabled(true);
        let (outer_pin, inner_pin) = (outer_pool.pin(), inner_pool.pin());
        let outer_traced = SpanPool::new(&outer_pin, tracer.clone(), "pool.read.outer");
        let inner_traced = SpanPool::new(&inner_pin, tracer.clone(), "pool.read.inner");
        let _query = tracer.root_span("join", 0);
        let recorded = engine.join(
            &outer_traced,
            JoinInput::Flat(&outer_index),
            &inner_traced,
            JoinInput::Flat(&inner_index),
        )?;
        checker.check(recorded.pairs == expected, || {
            "index rung join diverged from the oracle".into()
        });
        recorded.stats
    };
    tracer.set_enabled(false);
    let spans = tracer.take();
    checker.check(tracer.dropped() == 0, || "span buffer overflowed".into());
    let trace = join_trace(&spans);
    let physical = spans.iter().filter(|s| s.name == "store.read").count();
    let index_s = median_s(rounds, || index_join().map(drop))?;
    let mut replay_ok = true;
    let versioned_s = median_s(rounds, || {
        let (outer_pin, inner_pin) = (outer_pool.pin(), inner_pool.pin());
        replay(&trace, &outer_pin, &inner_pin, &mut replay_ok)
    })?;
    let cache_s = median_s(rounds, || {
        replay(
            &trace,
            outer_pool.cache(),
            inner_pool.cache(),
            &mut replay_ok,
        )
    })?;
    checker.check(replay_ok, || {
        "a replay rung read bytes that differ from the recorded trace".into()
    });
    drop((outer_pool, inner_pool));

    // ---- shard rungs ---------------------------------------------------
    let mut shard_s = [0.0; 2];
    for (slot, shards) in [1usize, 2].into_iter().enumerate() {
        let options = shard_options(inputs.domain, POOL_PAGES);
        let a = ShardedDb::build_in_memory(shards, inputs.outer.clone(), options)?;
        let b = ShardedDb::build_in_memory(shards, inputs.inner.clone(), options)?;
        let joined = a.join(&b, eps)?; // also warms
        checker.check(joined.pairs == expected, || {
            format!("sharded K={shards} join diverged from the oracle")
        });
        shard_s[slot] = median_s(rounds, || a.join(&b, eps).map(drop))?;
    }

    // ---- join metrics and the layer table ------------------------------
    let pages = trace.len() as f64;
    metrics.set("db.join_ms", db_s * 1e3);
    metrics.set("shard.join_ms", shard_s[1] * 1e3);
    metrics.set("join.ns_per_page", index_s * 1e9 / pages.max(1.0));
    metrics.set("join.pages_touched", pages);
    metrics.set("join.seed_descents", stats.seed_descents as f64);
    metrics.set(
        "join.frontier_reuse_ratio",
        stats.frontier_reuses as f64 / (stats.frontier_reuses + stats.seed_descents).max(1) as f64,
    );
    metrics.set(
        "join.element_tests_per_pair",
        stats.element_tests as f64 / stats.pairs.max(1) as f64,
    );
    notes.push(format!(
        "{:<10} {:>12} {:>12}  (one join: {} x {} elements, {} pairs, {} logical / {} physical pages)",
        "join rung",
        "rung_ms",
        "self_ms",
        inputs.outer.len(),
        inputs.inner.len(),
        expected.len(),
        trace.len(),
        physical
    ));
    let rows = [
        ("store", 0.0, 0.0), // warm: the join reads nothing from the store
        ("cache", cache_s, 0.0),
        ("versioned", versioned_s, cache_s),
        ("index", index_s, versioned_s),
        ("db", db_s, index_s),
        ("shard_k1", shard_s[0], db_s),
        ("shard_k2", shard_s[1], db_s),
    ];
    for (name, total, base) in rows {
        notes.push(format!(
            "{:<10} {:>12.3} {:>12.3}",
            name,
            total * 1e3,
            (total - base) * 1e3
        ));
    }
    notes.push(format!(
        "join tracing overhead at the db rung: {:.1} %",
        (traced_db_s / db_s - 1.0) * 100.0
    ));
    let join_spans = spans_json(&summarize(&spans));
    drop(spans);

    // ---- the read ladder on the particle side --------------------------
    let particles = Dataset {
        entries: inputs.inner,
        domain: inputs.domain,
    };
    let ops = script(
        &particles.domain,
        config.seed,
        READ_COUNTS.map(|c| config.ops(c / 2)),
    );
    let report = ladder::read_ladder(
        &particles,
        &ops,
        &LadderConfig {
            pool_pages: POOL_PAGES,
            cold: false,
            device: None,
            rounds: 3,
        },
    )?;
    let read_spans = report.publish(&mut metrics, &mut notes, &mut checker);
    let trace_json = Json::obj([("join", join_spans), ("reads", read_spans)]);
    Ok(finish_traced(config, checker, &metrics, notes, trace_json))
}
