//! Concurrency integration tests: many threads querying one [`FlatIndex`]
//! through the shared [`ConcurrentBufferPool`] must behave exactly like
//! serial execution — bit-identical results, consistent I/O accounting —
//! and readers interleaved with a dynamic updater must observe atomic
//! batches: every observed result set equals some pre- or post-batch
//! state, never a torn mix.

use flat_repro::prelude::*;
use flat_repro::storage::StorageError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A [`PageRead`] adapter that counts the logical reads passing through it,
/// so each worker thread can attribute its own share of the shared pool's
/// counters.
struct CountingReader<'a, P> {
    inner: &'a P,
    logical_reads: AtomicU64,
}

impl<'a, P: PageRead> CountingReader<'a, P> {
    fn new(inner: &'a P) -> Self {
        CountingReader {
            inner,
            logical_reads: AtomicU64::new(0),
        }
    }
}

impl<P: PageRead> PageRead for CountingReader<'_, P> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        self.logical_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_page(id, kind)
    }
}

fn neuron_dataset() -> (Vec<Entry>, Aabb) {
    let config = NeuronConfig::bbp(25, 1000, 17);
    let model = NeuronModel::generate(&config);
    (model.entries(), config.domain)
}

fn queries(domain: &Aabb) -> Vec<Aabb> {
    range_queries(
        domain,
        &WorkloadConfig {
            count: 24,
            volume_fraction: 2e-3,
            proportion_range: (1.0, 4.0),
            seed: 91,
        },
    )
}

/// Sorted result keys for bit-exact comparison (MBR bits + id).
fn keys(hits: &[Hit]) -> Vec<[u64; 7]> {
    let mut keys: Vec<[u64; 7]> = hits
        .iter()
        .map(|h| {
            [
                h.mbr.min.x.to_bits(),
                h.mbr.min.y.to_bits(),
                h.mbr.min.z.to_bits(),
                h.mbr.max.x.to_bits(),
                h.mbr.max.y.to_bits(),
                h.mbr.max.z.to_bits(),
                h.id,
            ]
        })
        .collect();
    keys.sort_unstable();
    keys
}

#[test]
fn eight_threads_match_serial_results_bit_for_bit() {
    let (entries, domain) = neuron_dataset();
    let queries = queries(&domain);

    // Build straight into the shared cache; serial reference answers first.
    let mut shared = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(
        &mut shared,
        entries,
        FlatOptions {
            domain: Some(domain),
            ..FlatOptions::default()
        },
    )
    .expect("build");
    let serial: Vec<Vec<[u64; 7]>> = queries
        .iter()
        .map(|q| keys(&index.range_query(&shared, q).expect("serial query")))
        .collect();
    assert!(
        serial.iter().any(|k| !k.is_empty()),
        "workload must return something"
    );

    // Eight threads, one shared cache, every thread runs the full workload
    // through its own `Arc` handle.
    let shared = Arc::new(shared);
    std::thread::scope(|scope| {
        for thread in 0..8 {
            let shared = shared.clone();
            let (index, queries, serial) = (&index, &queries, &serial);
            scope.spawn(move || {
                for (qi, q) in queries.iter().enumerate() {
                    let hits = index.range_query(&shared, q).expect("concurrent query");
                    assert_eq!(
                        keys(&hits),
                        serial[qi],
                        "thread {thread} query {qi} diverged from serial execution"
                    );
                }
            });
        }
    });
}

#[test]
fn shared_pool_statistics_are_consistent_under_concurrency() {
    let (entries, domain) = neuron_dataset();
    let queries = queries(&domain);

    let mut shared = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(
        &mut shared,
        entries,
        FlatOptions {
            domain: Some(domain),
            ..FlatOptions::default()
        },
    )
    .expect("build");
    shared.reset_stats();
    shared.clear_cache();

    // Each of 8 threads reads through its own counting adapter; the shared
    // pool's logical-read total must equal the sum of the per-thread
    // counts exactly — no read lost, none double-counted.
    let per_thread: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|t| {
                let (shared, index, queries) = (&shared, &index, &queries);
                scope.spawn(move || {
                    let counter = CountingReader::new(shared);
                    for q in queries.iter().skip(t % 3) {
                        index.range_query(&counter, q).expect("concurrent query");
                    }
                    counter.logical_reads.load(Ordering::Relaxed)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });

    let stats = shared.stats();
    let summed: u64 = per_thread.iter().sum();
    assert_eq!(
        stats.total_logical_reads(),
        summed,
        "pool counters disagree with per-thread counts {per_thread:?}"
    );
    // Physical reads can never exceed logical reads, and with a pool
    // larger than the store each page misses at most once.
    assert!(stats.total_physical_reads() <= stats.total_logical_reads());
    assert!(stats.total_physical_reads() <= shared.store().num_pages());
    assert_eq!(stats.total_writes(), 0, "queries must never write");
}

#[test]
fn io_bound_queries_overlap_their_device_waits() {
    // The payoff of the shared `&self` read path: with a store that charges
    // a device latency per physical read, client threads overlap their
    // waits and aggregate throughput rises well past 1×, even on one core.
    use std::time::{Duration, Instant};
    let config = UniformConfig::paper_baseline(20_000, 9);
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 4);
    let options = FlatOptions {
        domain: Some(config.domain),
        ..FlatOptions::default()
    };
    let (index, _) = FlatIndex::build(&mut pool, uniform_entries(&config), options).expect("build");
    // Re-house the pages behind a 2 ms/read device that serves 4 reads at
    // once (one per client), with a cache far smaller than the index so
    // queries keep missing.
    // The latency is long enough that CPU contention from tests running
    // beside this one stays small against the waits being overlapped.
    let store = ThrottledStore::with_parallelism(pool.into_store(), Duration::from_millis(2), 4);
    let pool = ConcurrentBufferPool::new(store, 64);
    // Queries spread over the domain, so each reads pages of its own.
    let queries = range_queries(
        &config.domain,
        &WorkloadConfig {
            count: 16,
            volume_fraction: 1e-3,
            proportion_range: (1.0, 4.0),
            seed: 9,
        },
    );

    // Runs the queries round-robin over `clients` threads: (queries per
    // second, total results).
    let run = |clients: usize| -> (f64, usize) {
        pool.clear_cache();
        let start = Instant::now();
        let results: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|t| {
                    let (pool, index, queries) = (&pool, &index, &queries);
                    scope.spawn(move || {
                        queries
                            .iter()
                            .skip(t)
                            .step_by(clients)
                            .map(|q| index.range_query(pool, q).expect("query").len())
                            .sum::<usize>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        (
            queries.len() as f64 / start.elapsed().as_secs_f64(),
            results,
        )
    };
    let (serial_qps, serial_results) = run(1);
    let (parallel_qps, parallel_results) = run(4);
    assert_eq!(serial_results, parallel_results);
    assert!(serial_results > 0);
    // Overlapped sleeps give ~2× here; the bound is kept loose (just past
    // 1×) so a contended machine cannot flake it.
    let speedup = parallel_qps / serial_qps;
    assert!(
        speedup > 1.2,
        "4 threads over an I/O-bound store must overlap waits: {speedup:.2}x"
    );
}

#[test]
fn readers_proceed_during_batches_and_never_see_partial_state() {
    // The MVCC discipline: a reader pins a snapshot epoch and keeps
    // answering from that version while a writer batch writes newer
    // versions of pages beside it — no lock handoff, no waiting. Every full workload
    // pass a reader computes must equal the published version its pinned
    // epoch names — the state after some whole number of batches, never a
    // torn mix of half-applied pages — and reads must demonstrably
    // complete *while* a batch is in flight (a throttled store keeps each
    // batch open for tens of milliseconds; warm cached reads finish well
    // inside that window).
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    let (entries, domain) = neuron_dataset();
    let options = FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(domain),
        ..FlatOptions::default()
    };
    let queries = queries(&domain);

    let store = ThrottledStore::with_parallelism(MemStore::new(), Duration::from_micros(150), 2);
    let mut db = FlatDb::create(store, DbOptions::default().with_index(options));
    db.build_from(entries.clone()).expect("build");

    type Version = Vec<Vec<[u64; 7]>>;
    let pass = |db: &FlatDb<ThrottledStore<MemStore>>, queries: &[Aabb]| -> (u64, Version) {
        let snap = db.reader();
        let version = queries
            .iter()
            .map(|q| keys(&snap.range(q).expect("query")))
            .collect();
        (snap.epoch(), version)
    };

    // Oracle: expected workload answers keyed by the epoch that published
    // them. Version 0 (pre-update) is recorded before any reader starts.
    let versions: RwLock<std::collections::HashMap<u64, Version>> =
        RwLock::new([pass(&db, &queries)].into_iter().collect());
    let mut churn = ChurnWorkload::new(entries, domain, ChurnConfig::steady(1_500, 4242));
    let in_batch = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let overlapped = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Four readers hammer the workload for as long as the updater
        // runs; each pass must equal its pinned epoch's version exactly.
        for reader in 0..4 {
            let (db, versions, queries) = (&db, &versions, &queries);
            let (in_batch, stop, overlapped) = (&in_batch, &stop, &overlapped);
            scope.spawn(move || {
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let started_mid_batch = in_batch.load(Ordering::Relaxed);
                    let (epoch, observed) = pass(db, queries);
                    if started_mid_batch && in_batch.load(Ordering::Relaxed) {
                        overlapped.fetch_add(1, Ordering::Relaxed);
                    }
                    // The updater records the oracle an instant after the
                    // batch publishes; wait for the epoch to appear.
                    loop {
                        if let Some(expected) = versions.read().expect("oracle").get(&epoch) {
                            assert_eq!(
                                &observed, expected,
                                "reader {reader} round {round} (epoch {epoch}) observed \
                                 a state that is not the published version"
                            );
                            break;
                        }
                        std::thread::yield_now();
                    }
                    round += 1;
                }
                round
            });
        }
        // One updater applies churn batches — each delete+insert pair is
        // one group-committed `apply`, so it publishes as one epoch.
        scope.spawn(|| {
            for _ in 0..3 {
                let step = churn.step();
                in_batch.store(true, Ordering::Relaxed);
                db.writer()
                    .expect("writer")
                    .apply(vec![
                        WriteOp::Delete(step.deletes),
                        WriteOp::Insert(step.inserts),
                    ])
                    .expect("apply batch");
                in_batch.store(false, Ordering::Relaxed);
                let (epoch, version) = pass(&db, &queries);
                versions.write().expect("oracle").insert(epoch, version);
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    assert_eq!(versions.read().unwrap().len(), 4, "3 batches + the base");
    assert!(
        overlapped.load(Ordering::Relaxed) > 0,
        "no reader pass completed inside a batch window — reads blocked on the writer"
    );
    db.check_invariants()
        .unwrap_or_else(|e| panic!("invariants violated after the race: {e}"));
}

#[test]
fn a_batch_in_flight_across_commits_answers_from_one_epoch() {
    // `run_batch` pins one snapshot for all of its queries, however many
    // client threads run them and however long they take: a batch that is
    // in flight while a writer publishes equals one published version
    // throughout. The writer keeps committing insert/delete groups until
    // enough batches have demonstrably straddled a publish (the epoch moved
    // between the batch's start and its end), so the interleaving under
    // test has occurred by the time the oracle is consulted.
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;
    const STRADDLES: u64 = 5;
    const MAX_COMMITS: usize = 300;

    let (entries, domain) = neuron_dataset();
    let options = FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(domain),
        ..FlatOptions::default()
    };
    let queries = queries(&domain);
    let mut db = FlatDb::create(MemStore::new(), DbOptions::default().with_index(options));
    db.build_from(entries.clone()).expect("build");

    // The workload four times over: a batch long enough to be caught
    // mid-flight, and every version is checked four times per batch.
    let batch: Vec<Aabb> = (0..4).flat_map(|_| queries.iter().copied()).collect();
    type Version = Vec<Vec<[u64; 7]>>;
    let pass = |db: &FlatDb<MemStore>| -> (u64, Version) {
        let snap = db.reader();
        let version = queries
            .iter()
            .map(|q| keys(&snap.range(q).expect("query")))
            .collect();
        (snap.epoch(), version)
    };
    // Oracle: the workload's answers at every published epoch.
    let versions: Mutex<HashMap<u64, Version>> = Mutex::new([pass(&db)].into_iter().collect());
    let mut churn = ChurnWorkload::new(entries, domain, ChurnConfig::steady(300, 4243));
    let straddles = AtomicU64::new(0);
    let writer_done = AtomicBool::new(false);

    let batches: Vec<(u64, u64, Version)> = std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let mut batches = Vec::new();
            while straddles.load(Ordering::SeqCst) < STRADDLES
                && !writer_done.load(Ordering::SeqCst)
            {
                let before = db.reader().epoch();
                let outcome = db
                    .query()
                    .ranges(batch.iter().copied())
                    .run_batch()
                    .expect("batch");
                let after = db.reader().epoch();
                if after > before {
                    straddles.fetch_add(1, Ordering::SeqCst);
                }
                let observed = outcome.results.iter().map(|hits| keys(hits)).collect();
                batches.push((before, after, observed));
            }
            batches
        });
        for _ in 0..MAX_COMMITS {
            if straddles.load(Ordering::SeqCst) >= STRADDLES {
                break;
            }
            let step = churn.step();
            db.writer()
                .expect("writer")
                .apply(vec![
                    WriteOp::Delete(step.deletes),
                    WriteOp::Insert(step.inserts),
                ])
                .expect("apply");
            let (epoch, version) = pass(&db);
            versions.lock().expect("oracle").insert(epoch, version);
        }
        writer_done.store(true, Ordering::SeqCst);
        client.join().expect("batch client")
    });

    assert!(
        straddles.load(Ordering::SeqCst) >= STRADDLES,
        "no batch was in flight across a publish in {MAX_COMMITS} commits"
    );
    let versions = versions.into_inner().expect("oracle");
    for (i, (before, after, observed)) in batches.iter().enumerate() {
        // The batch pinned its epoch somewhere between the two probes.
        let one_epoch = (*before..=*after).any(|epoch| {
            versions.get(&epoch).is_some_and(|version| {
                observed
                    .chunks(queries.len())
                    .all(|pass| pass == &version[..])
            })
        });
        assert!(
            one_epoch,
            "batch {i} (epochs {before}..={after}) is not one published version"
        );
    }
}

#[test]
fn file_backed_index_serves_concurrent_readers() {
    // The same guarantee end-to-end on a real file: FileStore is Sync, so
    // a file-backed pool crosses thread boundaries too.
    let (entries, domain) = neuron_dataset();
    let dir = std::env::temp_dir().join("flat-repro-concurrent");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("concurrent.pages");

    let store = FileStore::create(&path).expect("create store");
    let mut shared = ConcurrentBufferPool::new(store, 1 << 12);
    let (index, _) = FlatIndex::build(
        &mut shared,
        entries,
        FlatOptions {
            domain: Some(domain),
            ..FlatOptions::default()
        },
    )
    .expect("build");

    let q = Aabb::cube(domain.center(), 40.0);
    let expected = keys(&index.range_query(&shared, &q).expect("serial query"));
    assert!(!expected.is_empty());

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (shared, index, expected, q) = (&shared, &index, &expected, &q);
            scope.spawn(move || {
                let hits = index.range_query(shared, q).expect("file-backed query");
                assert_eq!(&keys(&hits), expected);
            });
        }
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn scheduler_shutdown_drains_inflight_work_before_releasing_the_store() {
    // Drop-order guarantee: `ConcurrentBufferPool::into_store` (and `Drop`)
    // of a cache with I/O workers must finish every in-flight demand read
    // and join the worker pool before the store is handed back — a worker
    // still landing a fetch after teardown would be a torn read waiting to
    // happen. We drive real concurrent traffic over a slow device, announce
    // a flood of reads nobody waits for so workers are mid-service at
    // shutdown, tear the cache down, and then prove the recovered store
    // still answers bit-identically.
    use std::time::Duration;

    let (entries, domain) = neuron_dataset();
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 12);
    let (index, _) = FlatIndex::build(
        &mut pool,
        entries,
        FlatOptions {
            domain: Some(domain),
            ..FlatOptions::default()
        },
    )
    .expect("build");
    let qs = queries(&domain);
    let expected: Vec<_> = qs
        .iter()
        .map(|q| keys(&index.range_query(&pool, q).expect("serial query")))
        .collect();

    let num_pages = pool.store().num_pages();
    const LATENCY: Duration = Duration::from_micros(300);
    let store = ThrottledStore::with_parallelism(pool.into_store(), LATENCY, 2);
    let config = SchedulerConfig { workers: 2 };
    // A cache far smaller than the index keeps the queue busy.
    let sched = ConcurrentBufferPool::with_config(store, 128, config);

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let (sched, index, qs, expected) = (&sched, &index, &qs, &expected);
            scope.spawn(move || {
                for (qi, q) in qs.iter().enumerate() {
                    if qi % 2 == t % 2 {
                        let hits = index.range_query(sched, q).expect("scheduled query");
                        assert_eq!(keys(&hits), expected[qi], "thread {t} query {qi}");
                    }
                }
            });
        }
    });

    let before = sched.scheduler_stats();
    assert_eq!(
        before.demand_completed, before.demand_submitted,
        "every read a query waited for has completed"
    );
    // Announce a flood, then shut down immediately: the workers are
    // mid-fetch when teardown starts and nobody awaits the backlog.
    // `into_store` can only unwrap the store once every worker has
    // exited, so merely returning proves the join — and the drain: an
    // announced read is a demand read, and those are never abandoned.
    let flood: Vec<(PageId, PageKind)> = (0..num_pages.min(512))
        .map(|i| (PageId(i), PageKind::Other))
        .collect();
    let start = std::time::Instant::now();
    sched.want_pages(&flood);
    let announced = sched.scheduler_stats().demand_submitted - before.demand_submitted;
    assert!(announced >= 100, "no backlog to drain: {announced} reads");

    let store = sched.into_store();
    // The device serves two reads per 300 µs at best, so a drained backlog
    // cannot take less than half its serial service time (a discarded one
    // would return in one fetch), and prompt means not much more than it.
    let elapsed = start.elapsed();
    let serial = LATENCY * announced as u32;
    assert!(
        elapsed >= serial / 4,
        "{announced} announced reads were not drained ({elapsed:?})"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "draining {announced} announced reads took {elapsed:?}"
    );
    let pool = ConcurrentBufferPool::new(store, 1 << 12);
    for (qi, q) in qs.iter().enumerate() {
        let hits = index.range_query(&pool, q).expect("post-shutdown query");
        assert_eq!(keys(&hits), expected[qi], "post-shutdown query {qi}");
    }
}

#[test]
fn sharded_db_serves_mixed_clients_and_drops_cleanly() {
    // End-to-end serving-layer stress: a ShardedDb over throttled stores
    // answers concurrent range + kNN clients *exactly* like one FLAT
    // index while an updater churns a spatially disjoint scratch region,
    // and the final drop joins every shard's worker pool without hanging.
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    let config = UniformConfig::scaled_baseline(4_000, 23);
    let entries = uniform_entries(&config);
    let domain = config.domain;
    let index_options = FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(domain),
        ..FlatOptions::default()
    };

    // Reference answers from a single unthrottled index.
    let mut ref_pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (single, _) =
        FlatIndex::build(&mut ref_pool, entries.clone(), index_options).expect("build");
    let qs = range_queries(
        &domain,
        &WorkloadConfig {
            count: 16,
            volume_fraction: 3e-3,
            proportion_range: (1.0, 3.0),
            seed: 24,
        },
    );
    let probes = knn_queries(
        &domain,
        &KnnConfig {
            count: 6,
            k_range: (1, 10),
            seed: 25,
        },
    );
    let expected_ranges: Vec<_> = qs
        .iter()
        .map(|q| keys(&single.range_query(&ref_pool, q).expect("range")))
        .collect();
    let expected_dists: Vec<Vec<u64>> = probes
        .iter()
        .map(|&(p, k)| {
            single
                .knn_query(&ref_pool, p, k)
                .expect("knn")
                .iter()
                .map(|n| n.dist_sq.to_bits())
                .collect()
        })
        .collect();

    let options = ShardOptions {
        index: index_options,
        pool_pages: 256,
        ..ShardOptions::default()
    };
    let db = Arc::new(
        ShardedDb::build(3, entries, options, |_| {
            ThrottledStore::with_parallelism(MemStore::new(), Duration::from_micros(150), 2)
        })
        .expect("sharded build"),
    );

    // The scratch region sits ten domain-widths past max.x: no in-domain
    // range query can touch it, and no probe's k-th neighbour can be that
    // far out, so the expected answers stay valid throughout the churn.
    let scratch_x = domain.max.x + 10.0 * (domain.max.x - domain.min.x);

    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for t in 0..4usize {
        let (db, stop) = (db.clone(), stop.clone());
        let (qs, probes) = (qs.clone(), probes.clone());
        let (expected_ranges, expected_dists) = (expected_ranges.clone(), expected_dists.clone());
        clients.push(std::thread::spawn(move || {
            let mut round = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let qi = (round + t) % qs.len();
                let hits = db.range_query(&qs[qi]).expect("sharded range");
                assert_eq!(keys(&hits), expected_ranges[qi], "client {t} query {qi}");
                let pi = (round + t) % probes.len();
                let (p, k) = probes[pi];
                let dists: Vec<u64> = db
                    .knn_query(p, k)
                    .expect("sharded knn")
                    .iter()
                    .map(|n| n.dist_sq.to_bits())
                    .collect();
                assert_eq!(dists, expected_dists[pi], "client {t} probe {pi}");
                round += 1;
            }
            round
        }));
    }

    // Updater: insert then delete disjoint scratch batches while the
    // clients are live.
    for round in 0..10u64 {
        let base = (1u64 << 40) + round * 64;
        let batch: Vec<Entry> = (0..40)
            .map(|i| {
                Entry::new(
                    base + i,
                    Aabb::cube(Point3::new(scratch_x + i as f64, 0.0, 0.0), 0.25),
                )
            })
            .collect();
        db.insert(batch).expect("insert scratch");
        let ids: Vec<u64> = (0..40).map(|i| base + i).collect();
        assert_eq!(db.delete(&ids).expect("delete scratch"), 40);
    }
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        assert!(c.join().expect("client panicked") > 0);
    }

    assert_eq!(db.num_live_elements(), 4_000);
    db.check_invariants().expect("shard invariants at quiesce");
    let lanes = db.scheduler_stats();
    assert_eq!(lanes.demand_completed, lanes.demand_submitted);
    assert!(db.io_stats().total_physical_reads() > 0);
    // The last Arc drop tears down three shard caches' worker pools; the test
    // returning at all is the join-without-hang assertion.
    drop(db);
}

#[test]
fn wal_commit_reaches_the_store_before_the_pages_it_covers() {
    // The write-back ordering contract behind crash recovery, proved at
    // the device boundary: a recording store sits under a durable pool
    // whose cache has I/O workers serving concurrent readers. For every
    // commit cycle (log append, batch, checkpoint) the event trace must
    // show the WAL append (the commit record, and the page images it
    // covers) reaching the store strictly before any covered data page
    // or free does — the write-ahead invariant itself.
    use std::collections::HashSet;
    use std::sync::Arc;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Write(u64),
        Free(u64),
    }

    /// A [`PageStore`] that journals every write and free it services.
    struct RecorderStore {
        inner: MemStore,
        log: Arc<Mutex<Vec<Ev>>>,
    }

    impl PageStore for RecorderStore {
        fn alloc(&mut self) -> Result<PageId, StorageError> {
            self.inner.alloc()
        }
        fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
            self.log.lock().unwrap().push(Ev::Write(id.0));
            self.inner.write_page(id, page)
        }
        fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
            self.inner.read_page(id, out)
        }
        fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
            self.log.lock().unwrap().push(Ev::Free(id.0));
            self.inner.free_page(id)
        }
        fn free_pages(&self) -> Vec<PageId> {
            self.inner.free_pages()
        }
        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }
    }

    let log = Arc::new(Mutex::new(Vec::new()));
    let store = RecorderStore {
        inner: MemStore::new(),
        log: log.clone(),
    };
    let cache = ConcurrentBufferPool::with_config(store, 64, SchedulerConfig::default());
    let pool = VersionedPool::create_durable(cache, b"genesis").expect("create durable pool");
    let mut written: Vec<(u64, u64)> = Vec::new(); // (page, round stamp)

    for round in 0..4u64 {
        let epoch = log.lock().unwrap().len();
        pool.append_records([vec![round as u8; 600]])
            .expect("append commit record");
        let mut batch = pool.begin_batch();
        for i in 0..3u64 {
            let id = batch.alloc().expect("alloc data page");
            let mut page = Page::new();
            page.put_u64(0, round * 10 + i);
            batch
                .write(id, &page, PageKind::Other)
                .expect("batch write");
            written.push((id.0, round * 10 + i));
        }
        if round > 0 {
            // Rewrite an old page too: the checkpoint's page-image
            // records cover its new bytes.
            let mut page = Page::new();
            page.put_u64(0, round * 10 + 9);
            batch
                .write(PageId(written[0].0), &page, PageKind::Other)
                .expect("rewrite");
            written[0].1 = round * 10 + 9;
        }
        batch.publish();
        pool.checkpoint(&[round as u8]).expect("checkpoint");

        // The write-ahead assertion for this cycle: no data-page write
        // or free may precede the first WAL write of the cycle. Data pages
        // are never freed here, so every other page written is the log's.
        let data: HashSet<u64> = written.iter().map(|&(id, _)| id).collect();
        let events = log.lock().unwrap()[epoch..].to_vec();
        let first_wal = events
            .iter()
            .position(|e| matches!(e, Ev::Write(id) if !data.contains(id)))
            .expect("a commit cycle must write the log");
        for (at, ev) in events.iter().enumerate() {
            match ev {
                Ev::Write(id) if data.contains(id) => assert!(
                    at > first_wal,
                    "round {round}: data page {id} hit the store at event {at}, \
                     before the WAL commit at {first_wal}"
                ),
                Ev::Free(id) => assert!(
                    at > first_wal,
                    "round {round}: free of page {id} at event {at} preceded \
                     the WAL commit at {first_wal}"
                ),
                _ => {}
            }
        }

        // Concurrent readers through the cache observe the
        // checkpointed values bit-for-bit.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (pool, written) = (&pool, &written);
                scope.spawn(move || {
                    let pin = pool.pin();
                    for &(id, stamp) in written {
                        let page = pin
                            .read_page(PageId(id), PageKind::Other)
                            .expect("scheduled read");
                        assert_eq!(page.get_u64(0), stamp, "page {id} after round {round}");
                    }
                });
            }
        });
    }

    // Every demand read the readers submitted completed.
    let lanes = pool.cache().scheduler_stats();
    assert_eq!(lanes.demand_completed, lanes.demand_submitted);

    // And the ordering pays off: drop the session (losing nothing here —
    // the last cycle checkpointed) and reopen the raw device. The
    // recovered baseline is exactly the last committed snapshot.
    let cache = ConcurrentBufferPool::new(pool.into_store(), 64);
    let (recovered, recovered_log) = VersionedPool::open_durable(cache).expect("reopen");
    assert_eq!(recovered_log.snapshot, vec![3u8]);
    assert!(
        recovered_log.logical.is_empty(),
        "checkpoint truncated the log"
    );
    assert!(!recovered_log.torn_truncated);
    for &(id, stamp) in &written {
        let page = recovered
            .read_page(PageId(id), PageKind::Other)
            .expect("read");
        assert_eq!(page.get_u64(0), stamp, "recovered page {id}");
    }
}

#[test]
fn a_pinned_snapshot_survives_a_checkpoint_write_back() {
    // A checkpoint writes every dirty page back while older snapshots are
    // still pinned. A page such a snapshot reads *below* its oldest
    // version keeps its pre-write-back bytes as an epoch-0 version, so the
    // snapshot's answers and raw page bytes stay those of its epoch.

    // The pool, over a cache with 8 I/O workers and room for 8 pages, so
    // reads race the write-back through queued fetches.
    let cache =
        ConcurrentBufferPool::with_config(MemStore::new(), 8, SchedulerConfig { workers: 8 });
    let pool = VersionedPool::create_durable(cache, b"").expect("create durable pool");
    let stamp = |v: u64| {
        let mut page = Page::new();
        page.put_u64(0, v);
        page.put_u64(PAGE_SIZE - 8, !v);
        page
    };
    let mut batch = pool.begin_batch();
    let ids: Vec<PageId> = (0..32u64)
        .map(|i| {
            let id = batch.alloc().expect("alloc");
            batch.write(id, &stamp(i), PageKind::Other).expect("write");
            id
        })
        .collect();
    batch.publish();
    pool.checkpoint(b"base").expect("checkpoint");
    let pin = pool.pin();
    let captured: Vec<Page> = ids
        .iter()
        .map(|&id| pin.read_page(id, PageKind::Other).expect("pinned read"))
        .collect();
    for round in 1..=2u64 {
        let mut batch = pool.begin_batch();
        for (i, &id) in ids.iter().enumerate() {
            batch
                .write(id, &stamp(round * 100 + i as u64), PageKind::Other)
                .expect("rewrite");
        }
        batch.publish();
    }
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    for _ in 0..20 {
                        for (&id, want) in ids.iter().zip(&captured) {
                            let got = pin.read_page(id, PageKind::Other).expect("pinned read");
                            assert_eq!(got.bytes(), want.bytes(), "{id} under the pin");
                        }
                    }
                })
            })
            .collect();
        pool.checkpoint(b"rewritten")
            .expect("checkpoint under readers");
        for reader in readers {
            reader.join().expect("pinned reader");
        }
    });
    pool.cache().clear_cache();
    for (&id, want) in ids.iter().zip(&captured) {
        let got = pin.read_page(id, PageKind::Other).expect("pinned read");
        assert_eq!(got.bytes(), want.bytes(), "{id} after the checkpoint");
        let latest = pool.read_page(id, PageKind::Other).expect("latest read");
        assert_eq!(latest.get_u64(0), 200 + (id.0 - ids[0].0), "{id} latest");
    }
    drop(pin);
    assert_eq!(pool.version_stats().retained_versions, 0, "the map drains");

    // The same through a durable FlatDb whose second commit checkpoints.
    let (entries, domain) = neuron_dataset();
    let mut options = DbOptions::updatable(domain)
        .with_durability(Durability::WalCheckpoint { every_batches: 2 });
    options.pool_pages = 64;
    let mut db = FlatDb::create_durable(MemStore::new(), options).expect("create durable db");
    db.build_from(entries.clone()).expect("build");
    let snapshot = db.reader();
    let probes = queries(&domain);
    let ranges: Vec<_> = probes
        .iter()
        .map(|q| keys(&snapshot.range(q).unwrap()))
        .collect();
    let knn_at = |s: &Snapshot<'_, MemStore>| -> Vec<Vec<(u64, u64)>> {
        probes
            .iter()
            .map(|q| {
                s.knn(q.center(), 40)
                    .unwrap()
                    .iter()
                    .map(|n| (n.hit.id, n.dist_sq.to_bits()))
                    .collect()
            })
            .collect()
    };
    let knns = knn_at(&snapshot);
    // Two groups rewriting the same pages: the elements near every probe
    // are deleted, then every other one is re-inserted.
    let near: Vec<Entry> = entries
        .iter()
        .filter(|e| probes.iter().any(|q| q.intersects(&e.mbr)))
        .copied()
        .collect();
    assert!(!near.is_empty());
    {
        let mut writer = db.writer().expect("writer");
        let ids: Vec<u64> = near.iter().map(|e| e.id).collect();
        assert_eq!(writer.delete(&ids).expect("delete"), ids.len());
        let back = near.iter().step_by(2).copied().collect();
        writer.insert(back).expect("insert, then the checkpoint");
    }
    assert!(
        db.version_stats().retained_versions > 0,
        "the snapshot holds versions"
    );
    db.clear_cache();
    for (q, want) in probes.iter().zip(&ranges) {
        assert_eq!(
            &keys(&snapshot.range(q).unwrap()),
            want,
            "range under the snapshot"
        );
    }
    assert_eq!(knn_at(&snapshot), knns, "kNN under the snapshot");
    let fresh = db.reader();
    assert_ne!(knn_at(&fresh), knns, "the commits changed the answers");
    drop((snapshot, fresh));
    assert_eq!(
        db.version_stats().retained_versions,
        0,
        "the checkpoint wrote everything back"
    );
}

#[test]
fn a_snapshot_pinned_before_a_merging_commit_answers_from_the_pre_merge_tiers() {
    // The second insert batch merges the first's level-0 delta tier: it
    // frees that tier's object pages and writes both batches as one
    // level-1 tiling, reusing the freed pages. A snapshot pinned before
    // that commit still reads the old tier's pages through their older
    // versions — from readers racing the commit and its checkpoint
    // write-back, and after both.
    let (entries, domain) = neuron_dataset();
    let mut options = DbOptions::updatable(domain)
        .with_durability(Durability::WalCheckpoint { every_batches: 1 });
    options.pool_pages = 64;
    let mut db = FlatDb::create_durable(MemStore::new(), options).expect("create durable db");
    db.build_from(entries.clone()).expect("build");
    let batch = |first_id: u64, seed: u64| -> Vec<Entry> {
        uniform_entries(&UniformConfig {
            count: 1_500,
            domain,
            element_volume: domain.volume() * 2e-6,
            length_range: (1.0, 2.0),
            seed,
        })
        .into_iter()
        .map(|e| Entry::new(e.id + first_id, e.mbr))
        .collect()
    };
    let (first, second) = (batch(1_000_000, 93), batch(2_000_000, 94));
    db.writer()
        .expect("writer")
        .insert(first.clone())
        .expect("first batch");
    let tiers = |db: &FlatDb<MemStore>| db.delta().expect("adopted").tiers();
    let pinned_tiers = tiers(&db);
    assert_eq!(pinned_tiers.len(), 1);
    assert_eq!(pinned_tiers[0].0, 0, "one level-0 tier");

    let probes = queries(&domain);
    type Answers = (Vec<Vec<[u64; 7]>>, Vec<u64>, Vec<Vec<(u64, u64)>>);
    let answers = |s: &Snapshot<'_, MemStore>| -> Answers {
        let ranges = probes.iter().map(|q| keys(&s.range(q).unwrap()));
        let counts = probes.iter().map(|q| s.aggregate_count(q).unwrap());
        let knns = probes.iter().map(|q| {
            let hits = s.knn(q.center(), 40).unwrap();
            hits.iter()
                .map(|n| (n.hit.id, n.dist_sq.to_bits()))
                .collect()
        });
        (ranges.collect(), counts.collect(), knns.collect())
    };
    let snapshot = db.reader();
    let pinned = answers(&snapshot);
    let live: Vec<Entry> = entries.iter().chain(&first).copied().collect();
    for (q, range) in probes.iter().zip(&pinned.0) {
        let expected = live.iter().filter(|e| q.intersects(&e.mbr)).count();
        assert_eq!(range.len(), expected, "the pinned answers are exact");
    }

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    for _ in 0..4 {
                        assert!(answers(&snapshot) == pinned, "pinned answers moved");
                    }
                })
            })
            .collect();
        db.writer()
            .expect("writer")
            .insert(second.clone())
            .expect("the merging batch, then its checkpoint");
        for reader in readers {
            reader.join().expect("pinned reader");
        }
    });
    let merged = tiers(&db);
    assert_eq!(merged.len(), 1);
    assert_eq!(merged[0].0, 1, "the second batch merged the first's tier");
    assert!(
        db.version_stats().retained_versions > 0,
        "the snapshot holds the merged tier's versions"
    );
    db.clear_cache();
    assert!(
        answers(&snapshot) == pinned,
        "pinned answers after the merge"
    );

    let fresh = db.reader();
    let live: Vec<Entry> = live.into_iter().chain(second).collect();
    for (q, range) in probes.iter().zip(answers(&fresh).0) {
        let mut expected: Vec<Hit> = Vec::new();
        for e in live.iter().filter(|e| q.intersects(&e.mbr)) {
            expected.push(Hit {
                mbr: e.mbr,
                id: e.id,
                page: PageId(0),
                slot: 0,
            });
        }
        assert_eq!(range, keys(&expected), "the merged tier answers exactly");
    }
    drop((snapshot, fresh));
    assert_eq!(
        db.version_stats().retained_versions,
        0,
        "the checkpoint wrote everything back"
    );
}
