//! Façade equivalence: every [`FlatDb`] path — build (spilling or not),
//! range, kNN, aggregate and join (serial and batched),
//! insert/delete/compact — must produce results (and, where observable,
//! pages and page reads) **bit-identical** to the low-level calls it
//! routes to.

use flat_repro::prelude::*;
use flat_repro::storage::StorageError;
use std::sync::Mutex;

#[path = "common/cache_replay.rs"]
mod cache_replay;
use cache_replay::Recorder;

fn dataset(n: usize, seed: u64) -> (Vec<Entry>, Aabb) {
    let config = UniformConfig::scaled_baseline(n, seed);
    (uniform_entries(&config), config.domain)
}

fn updatable(domain: Aabb) -> FlatOptions {
    FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(domain),
        ..FlatOptions::default()
    }
}

/// Byte-compares two stores page by page (free lists must agree; freed
/// pages are unreadable and skipped).
fn assert_stores_identical(a: &impl PageStore, b: &impl PageStore, context: &str) {
    assert_eq!(a.num_pages(), b.num_pages(), "{context}: page counts");
    assert_eq!(a.free_pages(), b.free_pages(), "{context}: free lists");
    let free: std::collections::HashSet<PageId> = a.free_pages().into_iter().collect();
    let (mut pa, mut pb) = (Page::new(), Page::new());
    for id in 0..a.num_pages() {
        if free.contains(&PageId(id)) {
            continue;
        }
        a.read_page(PageId(id), &mut pa).unwrap();
        b.read_page(PageId(id), &mut pb).unwrap();
        assert_eq!(pa.bytes(), pb.bytes(), "{context}: page {id} differs");
    }
}

fn queries(domain: &Aabb, seed: u64) -> Vec<Aabb> {
    range_queries(
        domain,
        &WorkloadConfig {
            count: 16,
            volume_fraction: 5e-3,
            proportion_range: (1.0, 3.0),
            seed,
        },
    )
}

fn knn_points(domain: &Aabb, seed: u64) -> Vec<(Point3, usize)> {
    knn_queries(
        domain,
        &KnnConfig {
            count: 8,
            k_range: (1, 24),
            seed,
        },
    )
}

#[test]
fn in_memory_build_is_bit_identical_to_low_level() {
    let (entries, domain) = dataset(12_000, 21);
    let options = FlatOptions {
        domain: Some(domain),
        ..FlatOptions::default()
    };

    let mut db = FlatDb::create(MemStore::new(), DbOptions::default().with_index(options));
    let report = db.build_from(entries.clone()).unwrap();
    assert!(!report.spilled(), "12k entries fit the default budget");

    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(&mut pool, entries, options).unwrap();

    assert_stores_identical(&*db.store(), &*pool.store(), "unspilled build");
    assert_eq!(db.index().num_elements(), index.num_elements());
    assert_eq!(db.index().seed_height(), index.seed_height());
}

#[test]
fn streaming_build_is_bit_identical_to_low_level() {
    let (entries, domain) = dataset(10_000, 22);
    let options = FlatOptions {
        domain: Some(domain),
        ..FlatOptions::default()
    };
    let budget = 1_500; // far below 10k entries: forces spilling

    let mut db = FlatDb::create(
        MemStore::new(),
        DbOptions::default()
            .with_index(options)
            .with_memory_budget(budget),
    );
    let report = db.build_from(entries.clone()).unwrap();
    assert!(report.spilled(), "10k entries over a 1.5k budget");

    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (_, _, _) = FlatIndexBuilder::new(options)
        .spill_budget(budget)
        .build(&mut pool, entries)
        .unwrap();

    assert_stores_identical(&*db.store(), &*pool.store(), "spilled build");
}

/// A store that logs the id of every page read it serves: under a cold
/// cache, the order in which a query's misses reach the device.
#[derive(Default)]
struct LoggedStore {
    inner: MemStore,
    reads: Mutex<Vec<PageId>>,
}

impl LoggedStore {
    /// The reads served since the last call.
    fn take_reads(&self) -> Vec<PageId> {
        std::mem::take(&mut *self.reads.lock().unwrap())
    }
}

impl PageStore for LoggedStore {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.inner.alloc()
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
        self.inner.write_page(id, page)
    }

    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
        self.reads.lock().unwrap().push(id);
        self.inner.read_page(id, out)
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
        self.inner.free_page(id)
    }

    fn free_pages(&self) -> Vec<PageId> {
        self.inner.free_pages()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
}

/// What one cold query did: its answer and counters (debug-printed, so
/// every verb's compare alike), every logical read in order, and the
/// misses in the order they reached the store.
#[derive(Debug, PartialEq)]
struct Cold {
    answer: String,
    logical: Vec<(PageId, PageKind)>,
    misses: Vec<PageId>,
}

/// Runs `query` cold through a [`Recorder`] over `pool`.
fn cold_low_level(
    pool: &ConcurrentBufferPool<LoggedStore>,
    query: impl FnOnce(&Recorder<&ConcurrentBufferPool<LoggedStore>>) -> String,
) -> Cold {
    pool.clear_cache();
    pool.store().take_reads();
    let recorder = Recorder::new(pool);
    let answer = query(&recorder);
    Cold {
        answer,
        logical: recorder.into_trace(),
        misses: pool.store().take_reads(),
    }
}

/// Runs `query` cold on a snapshot of `db`. The snapshot reads through
/// the database's own pool, so its logical reads are the pool's per-kind
/// counters, checked against `like`'s recorded reads.
fn cold_snapshot(
    db: &FlatDb<LoggedStore>,
    like: &Cold,
    query: impl FnOnce(&Snapshot<'_, LoggedStore>) -> String,
) -> Cold {
    db.clear_cache();
    db.reset_stats();
    db.store().take_reads();
    let answer = query(&db.reader());
    let io = db.io_stats();
    for kind in [
        PageKind::SeedInner,
        PageKind::SeedLeaf,
        PageKind::ObjectPage,
    ] {
        let recorded = like.logical.iter().filter(|&&(_, k)| k == kind).count();
        assert_eq!(
            io.kind(kind).logical_reads,
            recorded as u64,
            "{kind:?} reads"
        );
    }
    Cold {
        answer,
        logical: like.logical.clone(),
        misses: db.store().take_reads(),
    }
}

/// One read path: a bulkload's own verbs, a snapshot of a database no
/// writer has touched, and (where the layout allows updates) a
/// `DeltaIndex` adopted over the same bulkload return the same answers
/// and counters, and read the same pages in the same order.
#[test]
fn serial_queries_match_low_level_bit_for_bit() {
    let (entries, domain) = dataset(20_000, 23);
    for layout in [LeafLayout::MbrOnly, LeafLayout::WithIds] {
        let options = FlatOptions {
            layout,
            domain: Some(domain),
            ..FlatOptions::default()
        };
        let db_options = DbOptions::default().with_index(options);
        let mut db = FlatDb::create(LoggedStore::default(), db_options);
        db.build_from(entries.clone()).unwrap();
        let mut pool = ConcurrentBufferPool::new(LoggedStore::default(), db_options.pool_pages);
        let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options).unwrap();
        let delta = (layout == LeafLayout::WithIds)
            .then(|| DeltaIndex::new(&pool, index.clone(), options).unwrap());
        assert_eq!(db.num_live_elements(), index.num_elements());
        assert_eq!(db.reader().num_live_elements(), index.num_elements());
        if let Some(delta) = &delta {
            assert_eq!(delta.num_live_elements(), index.num_elements());
        }

        // Each verb cold three ways: the bulkload, then the adopted index
        // and the snapshot against it.
        let agree = |what: &str,
                     flat: &dyn Fn(&Recorder<&ConcurrentBufferPool<LoggedStore>>) -> String,
                     adopted: &dyn Fn(
            &DeltaIndex,
            &Recorder<&ConcurrentBufferPool<LoggedStore>>,
        ) -> String,
                     snapshot: &dyn Fn(&Snapshot<'_, LoggedStore>) -> String| {
            let expect = cold_low_level(&pool, flat);
            assert!(!expect.misses.is_empty(), "{layout:?} {what}: nothing read");
            let snap = cold_snapshot(&db, &expect, snapshot);
            assert_eq!(snap, expect, "{layout:?} {what}: snapshot");
            if let Some(delta) = &delta {
                let got = cold_low_level(&pool, |pool| adopted(delta, pool));
                assert_eq!(got, expect, "{layout:?} {what}: adopted index");
            }
        };
        for q in queries(&domain, 24) {
            agree(
                &format!("range {q}"),
                &|pool| {
                    let mut stats = QueryStats::default();
                    let hits = index.range_query_with_stats(pool, &q, &mut stats);
                    format!("{:?} {stats:?}", hits.unwrap())
                },
                &|delta, pool| {
                    let mut stats = QueryStats::default();
                    let hits = delta.range_query_with_stats(pool, &q, &mut stats);
                    format!("{:?} {stats:?}", hits.unwrap())
                },
                &|snap| {
                    let mut stats = QueryStats::default();
                    let hits = snap.range_with_stats(&q, &mut stats);
                    format!("{:?} {stats:?}", hits.unwrap())
                },
            );
            let q = q.inflate(domain.extents().x * 0.1);
            agree(
                &format!("aggregate {q}"),
                &|pool| {
                    let mut stats = AggregateStats::default();
                    let count = index.aggregate_count_with_stats(pool, &q, &mut stats);
                    format!("{} {stats:?}", count.unwrap())
                },
                &|delta, pool| {
                    let mut stats = AggregateStats::default();
                    let count = delta.aggregate_count_with_stats(pool, &q, &mut stats);
                    format!("{} {stats:?}", count.unwrap())
                },
                &|snap| {
                    let mut stats = AggregateStats::default();
                    let count = snap.aggregate_count_with_stats(&q, &mut stats);
                    format!("{} {stats:?}", count.unwrap())
                },
            );
        }
        for (p, k) in knn_points(&domain, 25) {
            agree(
                &format!("kNN {p} k={k}"),
                &|pool| {
                    let mut stats = KnnStats::default();
                    let knn = index.knn_query_with_stats(pool, p, k, &mut stats);
                    format!("{:?} {stats:?}", knn.unwrap())
                },
                &|delta, pool| {
                    let mut stats = KnnStats::default();
                    let knn = delta.knn_query_with_stats(pool, p, k, &mut stats);
                    format!("{:?} {stats:?}", knn.unwrap())
                },
                &|snap| {
                    let mut stats = KnnStats::default();
                    let knn = snap.knn_with_stats(p, k, &mut stats);
                    format!("{:?} {stats:?}", knn.unwrap())
                },
            );
        }

        // A self-join: the bulkload, the adopted index and the snapshot
        // as both sides give the same pairs and counters.
        let eps = domain.extents().x * 2e-3;
        let engine = JoinEngine::new(eps);
        let flat = engine
            .join(
                &pool,
                JoinInput::Flat(&index),
                &pool,
                JoinInput::Flat(&index),
            )
            .unwrap();
        assert!(
            flat.stats.pairs > index.num_elements(),
            "{layout:?}: no pairs"
        );
        let reader = db.reader();
        let snap = reader.join(&reader, eps).unwrap();
        assert_eq!(snap.pairs, flat.pairs, "{layout:?}: snapshot join pairs");
        assert_eq!(snap.stats, flat.stats, "{layout:?}: snapshot join stats");
        if let Some(delta) = &delta {
            let adopted = engine
                .join(&pool, delta.into(), &pool, delta.into())
                .unwrap();
            assert_eq!(adopted.pairs, flat.pairs, "{layout:?}: adopted join pairs");
            assert_eq!(adopted.stats, flat.stats, "{layout:?}: adopted join stats");
        }
    }
}

#[test]
fn batched_queries_match_serial() {
    let (entries, domain) = dataset(20_000, 26);
    let options = updatable(domain);
    let mut db = FlatDb::create(MemStore::new(), DbOptions::default().with_index(options));
    db.build_from(entries.clone()).unwrap();

    let ranges = range_queries(
        &domain,
        &WorkloadConfig {
            count: 50,
            volume_fraction: 5e-3,
            proportion_range: (1.0, 3.0),
            seed: 27,
        },
    );
    let points = knn_queries(
        &domain,
        &KnnConfig {
            count: 50,
            k_range: (1, 24),
            seed: 28,
        },
    );

    // Batches of every shape — empty, one query (no thread spawned), fewer
    // queries than client threads, exactly as many, many more — answer
    // index-aligned and bit-identical to the serial verbs, counters
    // included.
    let assert_batches_match_serial = |db: &FlatDb<MemStore>, state: &str| {
        let snap = db.reader();
        for len in [0, 1, 3, 8, 50] {
            let outcome = db
                .query()
                .ranges(ranges[..len].iter().copied())
                .run_batch()
                .unwrap();
            assert_eq!(outcome.results.len(), len, "{state}: range batch of {len}");
            assert_eq!(outcome.query_stats.len(), len);
            for (i, q) in ranges[..len].iter().enumerate() {
                let mut stats = QueryStats::default();
                let serial = snap.range_with_stats(q, &mut stats).unwrap();
                assert_eq!(outcome.results[i], serial, "{state}: range {i} of {len}");
                assert_eq!(outcome.query_stats[i], stats, "{state}: range {i} of {len}");
            }

            let outcome = db
                .query()
                .knns(points[..len].iter().copied())
                .run_knn_batch()
                .unwrap();
            assert_eq!(outcome.results.len(), len, "{state}: kNN batch of {len}");
            assert_eq!(outcome.query_stats.len(), len);
            for (i, &(p, k)) in points[..len].iter().enumerate() {
                let mut stats = KnnStats::default();
                let serial = snap.knn_with_stats(p, k, &mut stats).unwrap();
                assert_eq!(outcome.results[i], serial, "{state}: kNN {i} of {len}");
                assert_eq!(outcome.query_stats[i], stats, "{state}: kNN {i} of {len}");
            }
        }
    };
    assert_batches_match_serial(&db, "base");

    // On the base state the batch also equals the low-level calls.
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options).unwrap();
    let outcome = db
        .query()
        .ranges(ranges.iter().copied())
        .run_batch()
        .unwrap();
    for (i, q) in ranges.iter().enumerate() {
        assert_eq!(outcome.results[i], index.range_query(&pool, q).unwrap());
    }

    // The same over a delta layer with tombstones and inserted partitions.
    let doomed: Vec<u64> = entries
        .iter()
        .map(|e| e.id)
        .filter(|i| i % 4 == 0)
        .collect();
    let fresh: Vec<Entry> = (0..700)
        .map(|i| {
            let t = i as f64 / 700.0;
            Entry::new(
                5_000_000 + i,
                Aabb::cube(domain.min.lerp(&domain.max, 0.05 + 0.9 * t), 0.4),
            )
        })
        .collect();
    let mut writer = db.writer().unwrap();
    assert_eq!(writer.delete(&doomed).unwrap(), doomed.len());
    writer.insert(fresh).unwrap();
    drop(writer);
    assert_batches_match_serial(&db, "delta");
}

#[test]
fn updates_match_low_level_delta_ops_page_for_page() {
    let (entries, domain) = dataset(9_000, 29);
    let options = updatable(domain);

    // Façade side.
    let mut db = FlatDb::create(MemStore::new(), DbOptions::default().with_index(options));
    db.build_from(entries.clone()).unwrap();

    // Low-level side: same build, same delta ops, by hand.
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options).unwrap();
    let mut delta = DeltaIndex::new(&pool, index, options).unwrap();

    // Scripted churn: insert a batch, delete a mixed batch (some of the
    // inserts, some originals, one partition wiped wholesale).
    let fresh: Vec<Entry> = (0..500)
        .map(|i| {
            let t = i as f64 / 500.0;
            Entry::new(
                1_000_000 + i,
                Aabb::cube(domain.min.lerp(&domain.max, 0.1 + 0.8 * t), 0.4),
            )
        })
        .collect();
    let mut victims: Vec<u64> = (0..800).map(|i| i * 7 % 9_000).collect();
    victims.extend((0..100).map(|i| 1_000_000 + i));
    victims.sort_unstable();
    victims.dedup();

    {
        let mut writer = db.writer().unwrap();
        writer.insert(fresh.clone()).unwrap();
        writer.delete(&victims).unwrap();
    }
    delta.insert_batch(&mut pool, fresh).unwrap();
    let ll_deleted = delta.delete_batch(&mut pool, &victims).unwrap();

    assert_stores_identical(&*db.store(), &*pool.store(), "after insert+delete");
    assert_eq!(db.num_live_elements(), delta.num_live_elements());
    assert_eq!(db.delta().unwrap().num_tombstones(), delta.num_tombstones());
    assert!(ll_deleted > 0);

    for q in queries(&domain, 30) {
        assert_eq!(
            db.reader().range(&q).unwrap(),
            delta.range_query(&pool, &q).unwrap(),
            "delta range for {q}"
        );
    }
    for (p, k) in knn_points(&domain, 31) {
        assert_eq!(
            db.reader().knn(p, k).unwrap(),
            delta.knn_query(&pool, p, k).unwrap(),
            "delta kNN for {p}"
        );
    }

    // Compaction: same pages again, and byte-identical to each other.
    {
        let mut writer = db.writer().unwrap();
        writer.compact().unwrap();
    }
    delta.compact(&mut pool).unwrap();
    assert_stores_identical(&*db.store(), &*pool.store(), "after compact");
}

#[test]
fn flat_error_displays_and_chains_sources() {
    use std::error::Error;

    // A façade-level error with no storage cause.
    let mut db = FlatDb::create_in_memory(DbOptions::default());
    db.build_from(Vec::new()).unwrap();
    let err = db.build_from(Vec::new()).unwrap_err();
    assert!(matches!(err, FlatError::Build(_)));
    assert!(err.to_string().contains("already holds an index"), "{err}");
    assert!(err.source().is_none());

    // A storage-backed error keeps the full source chain.
    let missing = std::env::temp_dir().join("flat-repro-db-api-definitely-missing.flatdb");
    let err = FlatError::from(FileStore::open(&missing).unwrap_err());
    assert!(matches!(err, FlatError::Storage(_)), "{err}");
    let storage = err.source().expect("storage source");
    assert!(
        storage.source().is_some(),
        "io::Error should chain under StorageError"
    );
    // Display mentions each layer's contribution.
    assert!(err.to_string().contains("storage error"), "{err}");
    assert!(err.to_string().contains("I/O error"), "{err}");
}

#[test]
fn bad_caller_input_is_a_typed_error_not_a_panic() {
    let (entries, domain) = dataset(3_000, 606);
    let options = DbOptions::default().with_index(updatable(domain));

    // A join distance that is negative or not finite is a query error on
    // both façades — rejected up front, whatever the shard geometry.
    let mut db = FlatDb::create_in_memory(options);
    db.build_from(entries.clone()).unwrap();
    let shard_options = ShardOptions {
        index: updatable(domain),
        ..ShardOptions::default()
    };
    let sharded = ShardedDb::build_in_memory(2, entries.clone(), shard_options).unwrap();
    for eps in [-1.0, f64::NAN, f64::INFINITY] {
        let err = db.reader().join(&db.reader(), eps).unwrap_err();
        assert!(matches!(err, FlatError::Query(_)), "eps {eps}: {err}");
        let err = sharded.join(&sharded, eps).unwrap_err();
        assert!(
            matches!(err, FlatError::Query(_)),
            "sharded eps {eps}: {err}"
        );
    }
    assert!(!db
        .reader()
        .join(&db.reader(), 0.0)
        .unwrap()
        .pairs
        .is_empty());

    // The bulkload accepts a repeated application id; the first writer's
    // adoption scan finds it. That is an error about the data — the
    // session stays usable, and asking again gives the same answer.
    let mut repeated = entries.clone();
    repeated[7].id = repeated[8].id;
    let mut db = FlatDb::create_in_memory(options);
    db.build_from(repeated.clone()).unwrap();
    let everything = Aabb::cube(domain.center(), 1e6);
    for _ in 0..2 {
        let err = db.writer().map(drop).unwrap_err();
        assert!(
            matches!(err, FlatError::Storage(_)) && err.to_string().contains("twice"),
            "{err}"
        );
        assert_eq!(
            db.reader().range(&everything).unwrap().len(),
            repeated.len()
        );
        assert!(db.delta().is_none(), "a failed adoption must not publish");
    }

    // Adopting a bulkload as a delta layer checks what the first writer
    // checks, and says so in the same words; options that disagree with
    // the index's layout are refused too.
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 12);
    let mbr_only = FlatOptions {
        layout: LeafLayout::MbrOnly,
        ..updatable(domain)
    };
    let no_domain = FlatOptions {
        domain: None,
        ..updatable(domain)
    };
    for (options, needle) in [
        (mbr_only, "stable element ids"),
        (no_domain, "fixed tiling domain"),
    ] {
        let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options).unwrap();
        let err = DeltaIndex::new(&pool, index, options).unwrap_err();
        assert!(matches!(err, FlatError::Update(_)), "{err}");
        assert!(err.to_string().contains(needle), "{err}");
        let db = FlatDb::create_in_memory(DbOptions::default().with_index(options));
        let writer_err = db.writer().map(drop).unwrap_err();
        assert_eq!(err.to_string(), writer_err.to_string());
    }
    let (index, _) = FlatIndex::build(&mut pool, entries.clone(), mbr_only).unwrap();
    let err = DeltaIndex::new(&pool, index, updatable(domain)).unwrap_err();
    assert!(matches!(err, FlatError::Update(_)), "{err}");
    assert!(err.to_string().contains("disagree"), "{err}");
}

#[test]
fn bad_build_options_are_typed_errors_not_panics() {
    let (entries, domain) = dataset(200, 707);
    let no_budget = DbOptions::default().with_memory_budget(0);
    let shrinking = |scale| {
        DbOptions::default().with_index(FlatOptions {
            partition_volume_scale: scale,
            ..updatable(domain)
        })
    };
    for options in [no_budget, shrinking(0.5), shrinking(f64::NAN)] {
        // Checked before the first entry is pulled, whatever the input.
        for input in [entries.clone(), Vec::new()] {
            let mut db = FlatDb::create_in_memory(options);
            let err = db.build_from(input.clone()).unwrap_err();
            assert!(matches!(err, FlatError::Build(_)), "{err}");
            let err = db.build_streaming(input).unwrap_err();
            assert!(matches!(err, FlatError::Build(_)), "{err}");
            assert_eq!(db.store().num_pages(), 0, "a refused build writes nothing");
        }
    }
    for shard_options in [
        ShardOptions {
            index: shrinking(0.5).index,
            ..ShardOptions::default()
        },
        ShardOptions {
            pool_pages: 0,
            ..ShardOptions::default()
        },
    ] {
        let err = ShardedDb::build_in_memory(2, entries.clone(), shard_options)
            .map(drop)
            .unwrap_err();
        assert!(matches!(err, FlatError::Build(_)), "{err}");
    }

    // A zero-page cache is refused by every fallible FlatDb constructor,
    // and a durable constructor refuses `Durability::Off`, before it
    // touches the store: a durable file and an empty one keep their bytes.
    let dir = std::env::temp_dir().join("flat-repro-db-api-options");
    std::fs::create_dir_all(&dir).unwrap();
    let [durable, empty] = ["durable", "empty"].map(|n| dir.join(n));
    let off = DbOptions::updatable(domain);
    let wal = off.with_durability(Durability::Wal);
    let mut db = FlatDb::create_durable(FileStore::create(&durable).unwrap(), wal).unwrap();
    db.build_from(entries).unwrap();
    drop(db);
    drop(FileStore::create(&empty).unwrap());
    let bytes = || [&durable, &empty].map(|p| std::fs::read(p).unwrap());
    let before = bytes();
    let no_cache = |options: DbOptions| DbOptions {
        pool_pages: 0,
        ..options
    };
    for err in [
        FlatDb::open_durable(FileStore::open(&durable).unwrap(), no_cache(wal)).map(drop),
        FlatDb::create_durable(FileStore::open(&empty).unwrap(), no_cache(wal)).map(drop),
        FlatDb::create_durable(FileStore::open(&empty).unwrap(), off).map(drop),
    ] {
        let err = err.unwrap_err();
        assert!(matches!(err, FlatError::Build(_)), "{err}");
    }
    let err = FlatDb::open_durable(FileStore::open(&durable).unwrap(), off)
        .map(drop)
        .unwrap_err();
    assert!(matches!(err, FlatError::Persist(_)), "{err}");
    assert!(before == bytes(), "a refused open or create changed a file");
    assert!(before[1].is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_shrinking_scale_is_refused_before_any_commit() {
    let (entries, domain) = dataset(500, 808);
    let everything = Aabb::cube(domain.center(), 1e6);
    let options = |scale| {
        DbOptions::default().with_index(FlatOptions {
            partition_volume_scale: scale,
            ..updatable(domain)
        })
    };
    // An updatable database with no bulkload: a compaction would rebuild
    // with the shrinking scale, so the first writer's adoption refuses
    // it, and the insert + compact path is an error, never a panic
    // inside a commit. Asking again gives the same answer.
    for scale in [0.5, f64::NAN] {
        let db = FlatDb::create_in_memory(options(scale));
        for _ in 0..2 {
            let err = db
                .writer()
                .and_then(|mut writer| {
                    writer.insert(entries.clone())?;
                    writer.compact().map(drop)
                })
                .unwrap_err();
            assert!(
                matches!(err, FlatError::Update(_)) && err.to_string().contains("must not shrink"),
                "scale {scale}: {err}"
            );
        }
        assert!(db.reader().range(&everything).unwrap().is_empty());
    }

    // On a durable database the refusal logs nothing: the file reopens
    // with nothing to replay, and under a scale that can update it the
    // same insert and compaction commit.
    let dir = std::env::temp_dir().join("flat-repro-db-api-shrinking-scale");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db");
    let wal = |scale| options(scale).with_durability(Durability::Wal);
    let db = FlatDb::create_durable(FileStore::create(&path).unwrap(), wal(0.5)).unwrap();
    assert!(matches!(db.writer().map(drop), Err(FlatError::Update(_))));
    drop(db);
    for scale in [0.5, 1.0] {
        let (db, report) =
            FlatDb::open_durable(FileStore::open(&path).unwrap(), wal(scale)).unwrap();
        assert_eq!(
            report.replayed, 0,
            "scale {scale}: a refused write was logged"
        );
        let Ok(mut writer) = db.writer() else {
            assert_eq!(scale, 0.5, "a sound scale must be writable");
            continue;
        };
        writer.insert(entries.clone()).unwrap();
        writer.compact().unwrap();
        drop(writer);
        assert_eq!(db.reader().range(&everything).unwrap().len(), entries.len());
    }
    std::fs::remove_dir_all(&dir).ok();
}
