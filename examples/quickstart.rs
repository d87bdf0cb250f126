//! Quickstart: one [`FlatDb`] session from build to reopen — generate a
//! brain model, index it into a database file, query it serially and
//! batched, mutate it, and recover it from the file.
//!
//! This is the façade walkthrough; see `index_comparison.rs` for the
//! low-level crate APIs (paper-literal reproduction).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use flat_repro::prelude::*;

fn main() {
    // 1. Generate a synthetic neuron model: 50 neurons of 1000 cylinder
    //    segments each, packed into the paper's (285 µm)³ tissue volume.
    let config = NeuronConfig::bbp(50, 1000, 42);
    let model = NeuronModel::generate(&config);
    println!(
        "generated {} cylinder segments in {}",
        model.len(),
        config.domain
    );

    // 2. One handle owns the pool and the index lifecycle. `updatable`
    //    selects stable element ids + the fixed domain that the write
    //    path needs; a durability mode makes it a database file (header,
    //    write-ahead log and pages) that survives the process;
    //    `build_from` runs the one bulkload pipeline, which spills past
    //    the configured memory budget (identical bits either way).
    let path = std::env::temp_dir().join("flat-quickstart.flatdb");
    let options = DbOptions::updatable(config.domain).with_durability(Durability::Wal);
    let store = FileStore::create(&path).expect("create file");
    let mut db = FlatDb::create_durable(store, options).expect("create");
    let report = db.build_from(model.entries()).expect("build");
    let index = db.index();
    println!(
        "built FLAT ({}): {} partitions, {} object + {} metadata + {} seed pages \
         ({:.1} MB) in {:.0} ms",
        if report.spilled() {
            "spilled"
        } else {
            "nothing spilled"
        },
        report.stats.num_partitions,
        index.num_object_pages(),
        index.num_meta_pages(),
        index.num_seed_inner_pages(),
        index.size_bytes() as f64 / 1e6,
        report.stats.total_time().as_secs_f64() * 1000.0,
    );
    println!(
        "neighborhood: {:.1} pointers per partition on average (median {})",
        report.stats.avg_neighbor_pointers(),
        report.stats.median_neighbor_pointers(),
    );

    // 3. Serial reads go through a cheap snapshot handle, with the
    //    paper's cold-cache protocol.
    db.clear_cache();
    db.reset_stats();
    let query = Aabb::cube(config.domain.center(), 30.0);
    let mut stats = QueryStats::default();
    let hits = db
        .reader()
        .range_with_stats(&query, &mut stats)
        .expect("query");

    println!("\nquery {query}:");
    println!("  {} segments intersect", hits.len());
    let io = db.io_stats();
    for kind in [
        PageKind::SeedInner,
        PageKind::SeedLeaf,
        PageKind::ObjectPage,
    ] {
        println!(
            "  {:>12}: {} physical page reads",
            kind.label(),
            io.kind(kind).physical_reads
        );
    }
    println!("  {} total page reads", io.total_physical_reads());
    println!(
        "  crawl processed {} metadata records, queue peaked at {}",
        stats.records_processed, stats.max_queue_len
    );

    // 4. Batches run through the fluent query builder: the same query
    //    verbs from a few client threads over one snapshot, so every
    //    query sees one epoch and their device reads overlap.
    let probes: Vec<Aabb> = (0..16)
        .map(|i| {
            Aabb::cube(
                config.domain.min + config.domain.extents() * (0.2 + 0.04 * i as f64),
                20.0,
            )
        })
        .collect();
    let outcome = db
        .query()
        .ranges(probes.iter().copied())
        .run_batch()
        .expect("batch");
    for (hits, probe) in outcome.results.iter().zip(&probes) {
        assert_eq!(hits, &db.reader().range(probe).expect("query"));
    }
    println!(
        "\nbatch of {}: {} hits, {} object pages scanned, {} physical reads",
        probes.len(),
        outcome.results.iter().map(Vec::len).sum::<usize>(),
        outcome
            .query_stats
            .iter()
            .map(|s| s.object_pages_read)
            .sum::<u64>(),
        outcome.io.total_physical_reads(),
    );

    // 5. Mutations go through an exclusive write session: delete the
    //    segments we just found, then put them back. Each batch commits
    //    to the log before any page changes.
    let victim_ids: Vec<u64> = hits.iter().take(100).map(|h| h.id).collect();
    let restore: Vec<Entry> = hits
        .iter()
        .take(100)
        .map(|h| Entry::new(h.id, h.mbr))
        .collect();
    let removed = {
        let mut writer = db.writer().expect("updatable database");
        let removed = writer.delete(&victim_ids).expect("delete");
        writer.insert(restore).expect("insert");
        removed
        // The writer's exclusive borrow ends here; readers resume.
    };
    let after = db.reader().range(&query).expect("query").len();
    println!(
        "\ndeleted {removed} segments and re-inserted them: \
         {after} hits again (was {})",
        hits.len()
    );
    assert_eq!(after, hits.len());

    // 6. Close the session and reopen the file: recovery loads the last
    //    checkpoint (the bulkload) and replays the two logged batches.
    drop(db);
    let store = FileStore::open(&path).expect("reopen file");
    let (reopened, recovery) = FlatDb::open_durable(store, options).expect("recover");
    assert_eq!(recovery.replayed, 2, "the delete and the insert batch");
    assert_eq!(
        reopened.reader().range(&query).expect("query").len(),
        hits.len()
    );
    println!(
        "\nreopened {} ({:.1} MB), replaying {} logged batches: same {} hits",
        path.display(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) as f64 / 1e6,
        recovery.replayed,
        hits.len()
    );
    drop(reopened);
    std::fs::remove_file(&path).ok();
}
