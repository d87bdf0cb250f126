//! Façade equivalence: every [`FlatDb`] path — build (spilling or not),
//! range and kNN (serial and batched), insert/delete/compact, persist/open —
//! must produce results (and, where observable, pages) **bit-identical**
//! to the pre-façade low-level calls it routes to.

use flat_repro::prelude::*;

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

#[test]
fn serial_queries_match_low_level_bit_for_bit() {
    let (entries, domain) = dataset(20_000, 23);
    let options = FlatOptions {
        domain: Some(domain),
        ..FlatOptions::default()
    };
    let mut db = FlatDb::create(MemStore::new(), DbOptions::default().with_index(options));
    db.build_from(entries.clone()).unwrap();
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(&mut pool, entries, options).unwrap();

    for q in queries(&domain, 24) {
        let mut db_stats = QueryStats::default();
        let mut ll_stats = QueryStats::default();
        let db_hits = db.reader().range_with_stats(&q, &mut db_stats).unwrap();
        let ll_hits = index
            .range_query_with_stats(&pool, &q, &mut ll_stats)
            .unwrap();
        assert_eq!(db_hits, ll_hits, "range results for {q}");
        assert_eq!(db_stats, ll_stats, "range stats for {q}");
    }
    for (p, k) in knn_points(&domain, 25) {
        let db_knn = db.reader().knn(p, k).unwrap();
        let ll_knn = index.knn_query(&pool, p, k).unwrap();
        assert_eq!(db_knn, ll_knn, "kNN results for {p} k={k}");
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
fn persisted_file_is_byte_identical_to_low_level_save() {
    let dir = std::env::temp_dir().join("flat-repro-db-api");
    std::fs::create_dir_all(&dir).unwrap();
    let facade_path = dir.join("facade.flatdb");
    let manual_path = dir.join("manual.flatdb");
    let (entries, domain) = dataset(8_000, 32);
    let options = FlatOptions {
        domain: Some(domain),
        ..FlatOptions::default()
    };

    // Façade: build in memory, persist to a file.
    let mut db = FlatDb::create(MemStore::new(), DbOptions::default().with_index(options));
    db.build_from(entries.clone()).unwrap();
    let descriptor = db.persist(&facade_path).unwrap();

    // Low level: build straight into a file store, save the descriptor.
    let store = FileStore::create(&manual_path).unwrap();
    let mut pool = ConcurrentBufferPool::new(store, 1 << 14);
    let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options).unwrap();
    let manual_descriptor = index.save(&mut pool).unwrap();
    drop(pool);

    assert_eq!(descriptor, manual_descriptor, "descriptor page ids");
    let facade_bytes = std::fs::read(&facade_path).unwrap();
    let manual_bytes = std::fs::read(&manual_path).unwrap();
    assert_eq!(facade_bytes, manual_bytes, "persisted files differ");

    // And the round trip serves the same bits as the in-memory original.
    let reopened = FlatDb::open_file(&facade_path, DbOptions::default()).unwrap();
    assert_eq!(reopened.num_live_elements(), entries.len() as u64);
    for q in queries(&domain, 33) {
        assert_eq!(
            reopened.reader().range(&q).unwrap(),
            db.reader().range(&q).unwrap(),
            "reopened range for {q}"
        );
    }
    std::fs::remove_file(&facade_path).ok();
    std::fs::remove_file(&manual_path).ok();
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
    let err = FlatDb::open_file(&missing, DbOptions::default()).unwrap_err();
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
    // promotion scan finds it. That is an error about the data — the
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
        assert!(db.delta().is_none(), "a failed promotion must not publish");
    }
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
    // touches the store: a plain file, a durable one and an empty one all
    // keep their bytes.
    let dir = std::env::temp_dir().join("flat-repro-db-api-options");
    std::fs::create_dir_all(&dir).unwrap();
    let [plain, durable, empty] = ["plain", "durable", "empty"].map(|n| dir.join(n));
    let off = DbOptions::updatable(domain);
    let wal = off.with_durability(Durability::Wal);
    let mut db = FlatDb::create_in_memory(DbOptions::updatable(domain));
    db.build_from(entries.clone()).unwrap();
    db.persist(&plain).unwrap();
    let mut db = FlatDb::create_durable(FileStore::create(&durable).unwrap(), wal).unwrap();
    db.build_from(entries).unwrap();
    drop(db);
    drop(FileStore::create(&empty).unwrap());
    let bytes = || [&plain, &durable, &empty].map(|p| std::fs::read(p).unwrap());
    let before = bytes();
    let no_cache = |options: DbOptions| DbOptions {
        pool_pages: 0,
        ..options
    };
    for err in [
        FlatDb::open_file(&plain, no_cache(DbOptions::updatable(domain))).map(drop),
        FlatDb::open_file(&durable, no_cache(wal)).map(drop),
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
    assert!(before[2].is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
