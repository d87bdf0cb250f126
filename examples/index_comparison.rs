//! Head-to-head comparison of FLAT against all four R-tree variants on the
//! same dataset and the same query — the essence of the paper's §VII in
//! one terminal screen.
//!
//! This example stays on the **low-level crate APIs** (`FlatIndex::build`,
//! `RTree::bulk_load`, explicit `ConcurrentBufferPool` management) as the
//! paper-literal reproduction path, as does `structural_neighborhood`;
//! the other examples go through the `FlatDb` / `ShardedDb` façades.
//!
//! ```sh
//! cargo run --release --example index_comparison
//! ```

use flat_repro::prelude::*;

fn run_rtree(name: &str, method: BulkLoad, entries: &[Entry], query: &Aabb) -> usize {
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let start = std::time::Instant::now();
    let tree = RTree::bulk_load(&mut pool, entries.to_vec(), method, RTreeConfig::default())
        .expect("build");
    let build = start.elapsed();
    pool.clear_cache();
    pool.reset_stats();
    let hits = tree.range_query(&pool, query).expect("query");
    let io = pool.stats();
    println!(
        "{name:>16}: {:>6} page reads  {:>7.0} ms build  height {}",
        io.total_physical_reads(),
        build.as_secs_f64() * 1000.0,
        tree.height(),
    );
    hits.len()
}

fn main() {
    let config = NeuronConfig::bbp(100, 1000, 99);
    let model = NeuronModel::generate(&config);
    let entries = model.entries();

    // A mid-sized query: a 20 µm neighborhood.
    let query = Aabb::cube(config.domain.center(), 20.0);
    println!("dataset: {} cylinders; query: {query}\n", entries.len());

    // FLAT.
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let start = std::time::Instant::now();
    let (flat, _) = FlatIndex::build(
        &mut pool,
        entries.clone(),
        FlatOptions {
            domain: Some(config.domain),
            ..FlatOptions::default()
        },
    )
    .expect("build");
    let build = start.elapsed();
    pool.clear_cache();
    pool.reset_stats();
    let flat_hits = flat.range_query(&pool, &query).expect("query");
    println!(
        "{:>16}: {:>6} page reads  {:>7.0} ms build  seed height {}",
        "FLAT",
        pool.stats().total_physical_reads(),
        build.as_secs_f64() * 1000.0,
        flat.seed_height(),
    );

    // The R-tree baselines (and the TGS extension).
    let mut counts = vec![flat_hits.len()];
    counts.push(run_rtree("PR-Tree", BulkLoad::PrTree, &entries, &query));
    counts.push(run_rtree("STR R-Tree", BulkLoad::Str, &entries, &query));
    counts.push(run_rtree(
        "Hilbert R-Tree",
        BulkLoad::Hilbert,
        &entries,
        &query,
    ));
    counts.push(run_rtree("TGS R-Tree", BulkLoad::Tgs, &entries, &query));

    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "all indexes must return the same result: {counts:?}"
    );
    println!(
        "\nall five indexes agree on the result: {} elements",
        counts[0]
    );
}
