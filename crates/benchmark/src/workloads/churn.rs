//! `churn_durable`: writes beside reads, with durability on.
//!
//! A durable `FlatDb` (`WalCheckpoint { every_batches: 4 }`: one WAL sync
//! per commit, an automatic checkpoint every fourth logged batch) over a
//! [`CrashStore`]. One writer commits grouped delete+insert batches of
//! 0.5 % of the model, compacting every 16 commits (the delta layer peaks
//! near 8 %), while one reader alternates SN range queries and kNN probes
//! on fresh snapshots. Afterwards the database is crashed and recovered a few
//! times: three logged batches past the last checkpoint plus one commit
//! in flight whose sync never completed.
//!
//! The same cache, versioning and index layers as `resident_reads`, used
//! differently — so a read-path gain that taxes commits, copy-on-write,
//! WAL bytes or the delta crawl shows here, and this is the only
//! workload where checkpoint stalls, compaction and recovery exist.

use super::{
    closed_loop, cold_reads_per_query, db_read, finish_traced, finish_untraced, median_setup,
    stored_bytes, warm_up, Checker, MetricSet, PassWall, Phase, RunConfig, RunResult,
};
use crate::crash::{CrashHandle, CrashStore};
use crate::inputs::{neuron_dataset, script, substream, Dataset, Op, OpKind};
use crate::json::Json;
use crate::ladder::spans_json;
use crate::oracle::brute_force;
use crate::stats;
use crate::trace::{measure_span_overhead_ns, summarize, Span, SpanStore, StoreGauge, Tracer};
use flat_core::{DbOptions, DeltaIndex, Durability, FlatDb, FlatError, FlatIndex, WriteOp};
use flat_data::update::{ChurnConfig, ChurnWorkload, UpdateStep};
use flat_rtree::Entry;
use flat_storage::{BufferPool, MemStore, PageStore, VersionedPool, PAGE_SIZE};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cache pages (as `resident_reads`: everything stays resident).
pub const POOL_PAGES: usize = 1 << 17;

/// The flush policy under test.
pub const DURABILITY: Durability = Durability::WalCheckpoint { every_batches: 4 };

/// Commits between compactions: 16 × 0.5 % ≈ 8 % delta at the peak.
pub const COMPACT_EVERY: usize = 16;

/// The reader's script: SN and kNN in equal numbers, which the script's
/// even interleave turns into strict alternation.
pub const READ_COUNTS: [usize; 4] = [1000, 0, 1000, 0];

/// The read kinds this workload issues.
const KINDS: [OpKind; 2] = [OpKind::Sn, OpKind::Knn];

/// Crash-recover cycles after the timed phase.
pub const CRASH_CYCLES: usize = 5;

/// Reads checked against the live set after churn and after each crash.
const VERIFY_READS: usize = 20;

/// Operations of the cold count pass behind `phys_reads_per_query`.
const COUNT_OPS: usize = 400;

/// Bytes one element costs a user: an id and a six-coordinate box.
const USER_BYTES_PER_ELEM: f64 = 56.0;

type Store = CrashStore<MemStore>;

/// Elements replaced per commit: 0.5 % of the model.
pub fn batch_size(elements: usize) -> usize {
    (elements / 200).max(1)
}

fn options(data: &Dataset) -> DbOptions {
    let mut options = DbOptions::updatable(data.domain).with_durability(DURABILITY);
    options.pool_pages = POOL_PAGES;
    options
}

fn churn_of(data: &Dataset, seed: u64) -> ChurnWorkload {
    ChurnWorkload::new(
        data.entries.clone(),
        data.domain,
        ChurnConfig::steady(batch_size(data.entries.len()), substream(seed, 200)),
    )
}

fn step_ops(step: &UpdateStep) -> Vec<WriteOp> {
    vec![
        WriteOp::Delete(step.deletes.clone()),
        WriteOp::Insert(step.inserts.clone()),
    ]
}

fn ms(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

struct State {
    data: Dataset,
    ops: Vec<Op>,
    churn: ChurnWorkload,
    db: FlatDb<Store>,
    handle: CrashHandle,
}

fn setup(config: &RunConfig) -> Result<State, FlatError> {
    let data = neuron_dataset(config.elements, config.seed);
    let ops = script(
        &data.domain,
        config.seed,
        READ_COUNTS.map(|c| config.ops(c)),
    );
    let store = CrashStore::new(MemStore::new());
    let handle = store.handle();
    let mut db = FlatDb::create_durable(store, options(&data))?;
    db.build_from(data.entries.clone())?;
    warm_up(&db, &ops)?;
    let churn = churn_of(&data, config.seed);
    Ok(State {
        data,
        ops,
        churn,
        db,
        handle,
    })
}

/// Checks `db` against `live`: the element count and [`VERIFY_READS`]
/// range/kNN reads from `ops`, each against a linear scan.
fn verify_against<S: PageStore>(
    checker: &mut Checker,
    db: &FlatDb<S>,
    ops: &[Op],
    live: &[Entry],
    when: &str,
) {
    checker.check(db.num_live_elements() == live.len() as u64, || {
        format!(
            "{when}: {} live elements, expected {}",
            db.num_live_elements(),
            live.len()
        )
    });
    let probes = ops
        .iter()
        .filter(|op| matches!(op.kind(), OpKind::Sn | OpKind::Knn))
        .take(VERIFY_READS);
    for op in probes {
        let got = db_read(db, op).map(|raw| raw.answer());
        let expected = brute_force(live, op);
        checker.check(got.as_ref().ok() == Some(&expected), || {
            format!("{when}: a {:?} read diverged from the live set", op.kind())
        });
    }
}

/// What the writer measured over one compaction cycle.
#[derive(Default)]
struct Cycle {
    commit_ms: Vec<f64>,
    compact_ms: f64,
    user_elems: usize,
    seconds: f64,
    /// Sampled after the last commit, before the compaction: the
    /// cycle's peak footprint, WAL pages included.
    stored_bytes_per_elem: f64,
}

/// One compaction cycle of the writer: [`COMPACT_EVERY`] grouped commits,
/// `at_peak()` while the delta layer is at its fullest, the compaction.
fn write_cycle<S: PageStore>(
    db: &FlatDb<S>,
    churn: &mut ChurnWorkload,
    checker: &mut Checker,
    at_peak: impl FnOnce(&mut Checker),
) -> Result<Cycle, FlatError> {
    let begin_cycle = Instant::now();
    let mut cycle = Cycle::default();
    let mut writer = db.writer()?;
    for _ in 0..COMPACT_EVERY {
        let step = churn.step();
        let expected = vec![step.deletes.len(), step.inserts.len()];
        let begin = Instant::now();
        let applied = writer.apply(step_ops(&step))?;
        cycle.commit_ms.push(ms(begin.elapsed()));
        checker.check(applied == expected, || {
            format!("a commit applied {applied:?}, expected {expected:?}")
        });
        cycle.user_elems += expected.iter().sum::<usize>();
    }
    cycle.stored_bytes_per_elem = stored_bytes(db) as f64 / db.num_live_elements() as f64;
    at_peak(checker);
    let begin = Instant::now();
    writer.compact()?;
    cycle.compact_ms = ms(begin.elapsed());
    checker.passed(1);
    cycle.seconds = begin_cycle.elapsed().as_secs_f64();
    Ok(cycle)
}

/// What one crash-recover cycle measured.
struct Recovery {
    seconds: f64,
    replayed: usize,
}

/// One crash-recover cycle (see the module docs). `db` must start right
/// after a checkpoint; it ends right after one, too.
fn crash_cycle<S: PageStore>(
    db: FlatDb<CrashStore<S>>,
    handle: &CrashHandle,
    churn: &mut ChurnWorkload,
    options: DbOptions,
    ops: &[Op],
    checker: &mut Checker,
) -> Result<(FlatDb<CrashStore<S>>, Recovery), FlatError> {
    let acknowledged: Vec<Entry>;
    let pending: Vec<Entry>;
    {
        let mut writer = db.writer()?;
        let first = churn.step();
        writer.apply(step_ops(&first))?; // logged batches 1 and 2
        let mut live = churn.live().to_vec();
        let second = churn.step();
        writer.delete(&second.deletes)?; // logged batch 3
        let gone: HashSet<u64> = second.deletes.iter().copied().collect();
        live.retain(|e| !gone.contains(&e.id));
        acknowledged = live;
        // A fourth commit is written to the log but loses power before
        // its sync returns: it is never acknowledged and must not
        // survive the crash.
        handle.fail_next_sync();
        let in_flight = writer.insert(second.inserts.clone());
        checker.check(in_flight.is_err(), || {
            "a commit whose sync failed was acknowledged".into()
        });
        pending = second.inserts;
    }
    let mut store = db.into_store();
    let dropped = store.crash();
    checker.check(dropped > 0, || {
        "the in-flight commit left no unsynced page to drop".into()
    });

    let start = Instant::now();
    let (recovered, report) = FlatDb::open_durable(store, options)?;
    let seconds = start.elapsed().as_secs_f64();
    checker.check(report.replayed == 3, || {
        format!("recovery replayed {} batches, expected 3", report.replayed)
    });
    verify_against(checker, &recovered, ops, &acknowledged, "after recovery");

    // The recovered database stays writable: the lost insert goes in
    // again, which is also the fourth batch that triggers a checkpoint.
    recovered.writer()?.insert(pending)?;
    Ok((
        recovered,
        Recovery {
            seconds,
            replayed: report.replayed,
        },
    ))
}

/// The untraced run: end-to-end metrics plus the write-side ones.
pub fn run(config: &RunConfig) -> Result<RunResult, FlatError> {
    let mut checker = Checker::default();
    let mut metrics = MetricSet::default();
    let mut specific = MetricSet::default();
    let mut notes = Vec::new();

    let (state, setup_s) = median_setup(|| setup(config));
    let State {
        data,
        ops,
        mut churn,
        mut db,
        handle,
    } = state?;
    metrics.set("setup_s", setup_s);

    // ---- one untimed cycle: cold page reads at peak delta --------------
    // Serial, so the count repeats exactly for a seed: the paper's
    // page-reads figure with ≈8 % of the model in the delta layer.
    write_cycle(&db, &mut churn, &mut checker, |checker| {
        metrics.set(
            "phys_reads_per_query",
            cold_reads_per_query(&db, &ops, config.ops(COUNT_OPS), checker),
        );
    })?;
    warm_up(&db, &ops)?; // the count pass emptied the cache

    // ---- timed phase: one writer, one reader ------------------------
    // A pass is one compaction cycle. The writer only stops between
    // cycles, so every pass covers the same delta profile (0 → ≈8 % → 0)
    // and passes compare.
    let positions: Vec<usize> = (0..ops.len()).collect();
    let writer_done = AtomicBool::new(false);
    let cycle = AtomicU32::new(0);
    let mut cycles: Vec<Cycle> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let start = Instant::now();
    let (log, writer_result) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            closed_loop(
                &ops,
                &positions,
                |op| db_read(&db, op),
                || writer_done.load(Ordering::SeqCst),
                || cycle.load(Ordering::SeqCst),
                false,
                false,
            )
        });
        let writer_result = (|| -> Result<(), FlatError> {
            loop {
                cycles.push(write_cycle(&db, &mut churn, &mut checker, |_| {})?);
                cycle.fetch_add(1, Ordering::SeqCst);
                if Instant::now() >= deadline {
                    return Ok(());
                }
            }
        })();
        writer_done.store(true, Ordering::SeqCst);
        (
            reader.join().expect("reader thread panicked"),
            writer_result,
        )
    });
    let wall = start.elapsed();
    writer_result?;

    // Reads the reader finished during each complete cycle (its last
    // few may carry the index of a cycle that never started).
    let passes: Vec<PassWall> = cycles
        .iter()
        .enumerate()
        .map(|(i, c)| PassWall {
            ops: log.ops_in_pass(i as u32),
            seconds: c.seconds,
        })
        .collect();
    Phase {
        log: &log,
        kinds: &KINDS,
        passes: &passes,
        read_ops: log.ops,
        wall,
        repeats: false,
    }
    .report(&mut metrics, &mut specific, &mut notes);
    checker.passed(log.ops);
    for _ in 0..log.errors {
        checker.fail("a read beside the writer returned Err".into());
    }
    let per_cycle = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<f64>>();
    let commits: Vec<f64> = cycles.iter().flat_map(|c| c.commit_ms.clone()).collect();
    metrics.set(
        "stored_bytes_per_elem",
        stats::median(&per_cycle(&|c| c.stored_bytes_per_elem)),
    );
    // The writer works from the first to the last instant of the phase.
    specific.set(
        "update_elems_per_s",
        cycles.iter().map(|c| c.user_elems).sum::<usize>() as f64 / wall.as_secs_f64(),
    );
    specific.set("commit_p50_ms", stats::median(&commits));
    specific.set("commit_p90_ms", stats::quantile(&commits, 0.9));
    notes.push(format!(
        "writer: {} cycles of {} commits x {} elements + compaction; {} commits, \
         compaction median {:.0} ms; quietest cycle (diagnostic): commit p50 {:.1} ms",
        cycles.len(),
        COMPACT_EVERY,
        2 * batch_size(data.entries.len()),
        commits.len(),
        stats::median(&per_cycle(&|c| c.compact_ms)),
        per_cycle(&|c| stats::median(&c.commit_ms))
            .into_iter()
            .fold(f64::INFINITY, f64::min),
    ));
    verify_against(&mut checker, &db, &ops, churn.live(), "after churn");

    // ---- crash-recover cycles ----------------------------------------
    db.checkpoint()?;
    let mut recoveries = Vec::new();
    for _ in 0..config.ops(CRASH_CYCLES) {
        let (recovered, recovery) =
            crash_cycle(db, &handle, &mut churn, options(&data), &ops, &mut checker)?;
        db = recovered;
        recoveries.push(recovery.seconds);
    }
    specific.set("recovery_s", stats::median(&recoveries));
    notes.push(format!(
        "{} crash-recover cycles, {} unsynced page writes dropped in all",
        recoveries.len(),
        handle.writes_dropped()
    ));
    Ok(finish_untraced(config, checker, &metrics, &specific, notes))
}

// ----------------------------------------------------------------------
// Traced run: the write ladder.
// ----------------------------------------------------------------------

/// Serial SN time over `db`, seconds (median of three passes).
fn sn_pass_s<S: PageStore>(db: &FlatDb<S>, sn: &[Op]) -> Result<f64, FlatError> {
    let mut passes = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        for op in sn {
            db_read(db, op)?;
        }
        passes.push(start.elapsed().as_secs_f64());
    }
    Ok(stats::median(&passes))
}

/// Per-commit store activity, from the spans of a traced durable pass.
#[derive(Default, Clone, Copy)]
struct CommitIo {
    writes: u64,
    syncs: u64,
    sync_ns: u64,
    store_ns: u64,
}

fn commit_io(spans: &[Span], commits: usize) -> Vec<CommitIo> {
    let mut out = vec![CommitIo::default(); commits];
    for span in spans {
        let Some(io) = out.get_mut(span.query as usize) else {
            continue;
        };
        match span.name {
            "store.write" => io.writes += 1,
            "store.sync" => {
                io.syncs += 1;
                io.sync_ns += span.duration_ns();
            }
            _ => {}
        }
        if span.name.starts_with("store.") {
            io.store_ns += span.duration_ns();
        }
    }
    out
}

/// The traced run: the same commits entered at each layer of the write
/// path — `DeltaIndex` over an exclusive pool, inside a `VersionedPool`
/// batch, through `FlatDb` without durability, and through the durable
/// `FlatDb` over a span-wrapped store (once with spans off, once on).
/// Serial, so counts repeat; and interleaved commit by commit — each
/// commit is applied at every rung before the next one is generated — so
/// slow drift of the machine lands on all rungs alike.
pub fn run_traced(config: &RunConfig) -> Result<RunResult, FlatError> {
    let mut checker = Checker::default();
    let mut metrics = MetricSet::default();
    let mut notes = Vec::new();

    let data = neuron_dataset(config.elements, config.seed);
    let mut churn = churn_of(&data, config.seed);
    let commits = config.ops(COMPACT_EVERY);
    let sn = script(&data.domain, config.seed, [config.ops(200), 0, 0, 0]);
    let index_options = options(&data).index;

    // ---- one copy of the bulkload per rung ----------------------------
    // index rung: the delta layer alone, over an exclusive pool.
    let mut index_pool = BufferPool::new(MemStore::new(), POOL_PAGES);
    let (index, _) = FlatIndex::build(&mut index_pool, data.entries.clone(), index_options)?;
    let mut index_delta = DeltaIndex::new(&index_pool, index, index_options)?;
    // versioned rung: the same calls inside a copy-on-write batch.
    let mut versioned_pool = VersionedPool::new(MemStore::new(), POOL_PAGES);
    let (index, _) = FlatIndex::build(&mut versioned_pool, data.entries.clone(), index_options)?;
    let mut versioned_delta = DeltaIndex::new(&versioned_pool, index, index_options)?;
    // db rung: the façade without durability.
    let mut plain = DbOptions::updatable(data.domain);
    plain.pool_pages = POOL_PAGES;
    let mut plain_db = FlatDb::create(MemStore::new(), plain);
    plain_db.build_from(data.entries.clone())?;
    // durable rung, twice: WAL + checkpoints with spans off and on. The
    // span store sits *under* the crash store, so it sees exactly what
    // reaches the medium.
    type Spanned = CrashStore<SpanStore<MemStore>>;
    let gauge = Arc::new(StoreGauge::default());
    let durable_db = |tracer: &Arc<Tracer>| -> Result<(FlatDb<Spanned>, CrashHandle), FlatError> {
        let store = CrashStore::new(SpanStore::new(
            MemStore::new(),
            tracer.clone(),
            gauge.clone(),
        ));
        let handle = store.handle();
        let mut db = FlatDb::create_durable(store, options(&data))?;
        db.build_from(data.entries.clone())?;
        Ok((db, handle))
    };
    let silent = Tracer::new(0); // never enabled
    let tracer = Tracer::new(1 << 20);
    let (mut durable, handle) = durable_db(&silent)?;
    let (traced, _) = durable_db(&tracer)?;

    // ---- the commits, interleaved across rungs ------------------------
    sn_pass_s(&plain_db, &sn)?; // warm
    let base_s = sn_pass_s(&plain_db, &sn)?;
    let mut per_commit: [Vec<f64>; 5] = Default::default();
    let mut user_bytes = 0.0;
    let mut user_elems = 0usize;
    let mut retained_max = 0usize;
    let mut durable_busy_s = 0.0;
    let mut traced_busy_s = 0.0;
    {
        let mut plain_writer = plain_db.writer()?;
        let mut durable_writer = durable.writer()?;
        let mut traced_writer = traced.writer()?;
        for i in 0..commits {
            let step = churn.step();
            user_bytes +=
                step.inserts.len() as f64 * USER_BYTES_PER_ELEM + step.deletes.len() as f64 * 8.0;
            user_elems += step.deletes.len() + step.inserts.len();

            let inserts = step.inserts.clone();
            let begin = Instant::now();
            index_delta.delete_batch(&mut index_pool, &step.deletes)?;
            index_delta.insert_batch(&mut index_pool, inserts)?;
            per_commit[0].push(ms(begin.elapsed()));

            let inserts = step.inserts.clone();
            let begin = Instant::now();
            let mut batch = versioned_pool.begin_batch();
            versioned_delta.delete_batch(&mut batch, &step.deletes)?;
            versioned_delta.insert_batch(&mut batch, inserts)?;
            batch.publish();
            per_commit[1].push(ms(begin.elapsed()));

            let group = step_ops(&step);
            let begin = Instant::now();
            plain_writer.apply(group)?;
            per_commit[2].push(ms(begin.elapsed()));
            retained_max = retained_max.max(plain_db.version_stats().retained_versions);

            let group = step_ops(&step);
            let begin = Instant::now();
            durable_writer.apply(group)?;
            per_commit[3].push(ms(begin.elapsed()));
            durable_busy_s += begin.elapsed().as_secs_f64();

            let group = step_ops(&step);
            tracer.set_enabled(true);
            let begin = Instant::now();
            {
                let _commit = tracer.root_span("commit", i as u32);
                traced_writer.apply(group)?;
            }
            per_commit[4].push(ms(begin.elapsed()));
            traced_busy_s += begin.elapsed().as_secs_f64();
            tracer.set_enabled(false);

            if i + 1 == commits / 4 {
                metrics.set(
                    "delta.read_slowdown_at_2pct",
                    sn_pass_s(&plain_db, &sn)? / base_s,
                );
            }
        }
        metrics.set(
            "delta.read_slowdown_at_8pct",
            sn_pass_s(&plain_db, &sn)? / base_s,
        );

        // One compaction per rung that has one.
        metrics.set("delta.fraction_at_compact", index_delta.delta_fraction());
        let begin = Instant::now();
        index_delta.compact(&mut index_pool)?;
        metrics.set("delta.compact_ms", ms(begin.elapsed()));
        let begin = Instant::now();
        durable_writer.compact()?;
        durable_busy_s += begin.elapsed().as_secs_f64();
        tracer.set_enabled(true);
        {
            let _compact = tracer.root_span("compact", commits as u32);
            traced_writer.compact()?;
        }
        tracer.set_enabled(false);
    }
    let spans = tracer.take();
    checker.check(tracer.dropped() == 0, || "span buffer overflowed".into());
    checker.check(
        index_delta.num_live_elements() == churn.live().len() as u64
            && versioned_delta.num_live_elements() == churn.live().len() as u64,
        || "a delta rung lost or invented elements".into(),
    );
    verify_against(
        &mut checker,
        &plain_db,
        &sn,
        churn.live(),
        "db rung after churn",
    );
    verify_against(
        &mut checker,
        &traced,
        &sn,
        churn.live(),
        "traced durable rung after churn",
    );
    drop(traced);

    let versions = plain_db.version_stats();
    metrics.set(
        "versioned.cow_pages_per_commit",
        versions.cow_pages as f64 / commits as f64,
    );
    metrics.set("versioned.retained_versions_max", retained_max as f64);
    metrics.set(
        "versioned.reclaimed_versions",
        versions.reclaimed_versions as f64,
    );
    metrics.set("delta.apply_ms_per_batch", stats::median(&per_commit[0]));
    metrics.set("db.commit_p50_ms", stats::median(&per_commit[3]));
    metrics.set("db.commit_p90_ms", stats::quantile(&per_commit[3], 0.9));
    metrics.set("db.update_elems_per_s", user_elems as f64 / durable_busy_s);
    metrics.set(
        "trace_overhead_pct",
        (traced_busy_s / per_commit[3].iter().sum::<f64>() * 1e3 - 1.0) * 100.0,
    );

    // ---- what each commit did to the store (from the spans) ----------
    let io = commit_io(&spans, commits);
    let plain_commits: Vec<usize> = (0..commits).filter(|&i| io[i].syncs <= 1).collect();
    let checkpointing: Vec<usize> = (0..commits).filter(|&i| io[i].syncs > 1).collect();
    let pick = |set: &[usize], f: &dyn Fn(usize) -> f64| -> f64 {
        stats::median(&set.iter().map(|&i| f(i)).collect::<Vec<_>>())
    };
    let writes: u64 = io.iter().map(|c| c.writes).sum();
    let syncs: u64 = io.iter().map(|c| c.syncs).sum();
    let sync_ns: u64 = io.iter().map(|c| c.sync_ns).sum();
    let store_ns: u64 = io.iter().map(|c| c.store_ns).sum();
    metrics.set(
        "store.write_bytes_per_user_byte",
        writes as f64 * PAGE_SIZE as f64 / user_bytes,
    );
    metrics.set("store.syncs_per_commit", syncs as f64 / commits as f64);
    metrics.set(
        "store.sync_us_per_commit",
        sync_ns as f64 / 1e3 / commits as f64,
    );
    metrics.set(
        "wal.bytes_per_commit",
        pick(&plain_commits, &|i| io[i].writes as f64) * PAGE_SIZE as f64,
    );
    metrics.set(
        "durable.checkpoint_ms",
        (pick(&checkpointing, &|i| per_commit[3][i]) - pick(&plain_commits, &|i| per_commit[3][i]))
            .max(0.0),
    );
    metrics.set(
        "durable.checkpoint_pages",
        (pick(&checkpointing, &|i| io[i].writes as f64)
            - pick(&plain_commits, &|i| io[i].writes as f64))
        .max(0.0),
    );

    // ---- reads beside commits -----------------------------------------
    // The one concurrent section of a traced run (spans stay off): tail
    // latency of SN reads while the writer works.
    let reader_stop = AtomicBool::new(false);
    let positions: Vec<usize> = (0..sn.len()).collect();
    let beside = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            closed_loop(
                &sn,
                &positions,
                |op| db_read(&durable, op),
                || reader_stop.load(Ordering::SeqCst),
                || 0,
                false,
                false,
            )
        });
        let result = (|| -> Result<(), FlatError> {
            let mut writer = durable.writer()?;
            for _ in 0..(commits / 2).max(1) {
                writer.apply(step_ops(&churn.step()))?;
            }
            Ok(())
        })();
        reader_stop.store(true, Ordering::SeqCst);
        (reader.join().expect("reader thread panicked"), result)
    });
    beside.1?;
    checker.passed(beside.0.ops);
    checker.check(beside.0.errors == 0, || {
        "a read beside a commit returned Err".into()
    });
    metrics.set(
        "db.read_p99_us_during_commit",
        stats::quantile(&beside.0.latencies_us(OpKind::Sn), 0.99),
    );
    verify_against(
        &mut checker,
        &durable,
        &sn,
        churn.live(),
        "durable rung after churn",
    );

    // ---- crash-recover cycles (spans off) ------------------------------
    durable.checkpoint()?;
    let mut recoveries = Vec::new();
    let mut replayed = 0;
    for _ in 0..config.ops(2) {
        let (recovered, recovery) = crash_cycle(
            durable,
            &handle,
            &mut churn,
            options(&data),
            &sn,
            &mut checker,
        )?;
        durable = recovered;
        recoveries.push(recovery.seconds * 1e3);
        replayed = recovery.replayed;
    }
    metrics.set("durable.recovery_ms", stats::median(&recoveries));
    metrics.set("durable.replayed_records", replayed as f64);

    // ---- the layer table ------------------------------------------------
    notes.push(format!(
        "{:<10} {:>14} {:>12}  (medians over {} commits of {} elements, serial, interleaved across rungs)",
        "rung",
        "ms_per_commit",
        "self_ms",
        commits,
        2 * batch_size(data.entries.len())
    ));
    // A commit gets dearer as the delta grows and interference comes in
    // bursts, so a rung's self time is the median over commits of the
    // *paired* difference to the rung below (the two were applied back to
    // back), not a difference of means.
    let below: [Option<usize>; 4] = [None, Some(0), Some(1), Some(2)];
    for (rung, (name, self_metric)) in [
        ("index", None), // its self time is delta.apply_ms_per_batch
        ("versioned", Some("versioned.self_ms_per_commit")),
        ("db", Some("db.self_ms_per_commit")),
        ("durable", Some("durable.self_ms_per_commit")),
    ]
    .into_iter()
    .enumerate()
    {
        // The durable rung's self time is the logging cost of a commit
        // that does not checkpoint; checkpoints are durable.checkpoint_ms.
        let paired: Vec<f64> = (0..commits)
            .filter(|i| name != "durable" || plain_commits.contains(i))
            .map(|i| per_commit[rung][i] - below[rung].map_or(0.0, |b| per_commit[b][i]))
            .collect();
        let self_ms = stats::median(&paired);
        notes.push(format!(
            "{:<10} {:>14.3} {:>12.3}",
            name,
            stats::median(&per_commit[rung]),
            self_ms
        ));
        if let Some(metric) = self_metric {
            metrics.set(metric, self_ms);
        }
    }
    notes.push(format!(
        "store (inside durable): {:.3} ms per commit in {} page writes and {} syncs; \
         {} spans, {:.0} ns per span",
        store_ns as f64 / 1e6 / commits as f64,
        writes,
        syncs,
        spans.len(),
        measure_span_overhead_ns()
    ));
    let trace: Json = spans_json(&summarize(&spans));
    Ok(finish_traced(config, checker, &metrics, notes, trace))
}
