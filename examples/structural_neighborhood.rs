//! The paper's first use case (§III-A): *structural neighborhood* —
//! detecting where neuron fibers come close to each other by issuing many
//! small range queries along a fiber, one per segment.
//!
//! The example walks one neuron's fiber and queries the 5 µm neighborhood
//! of every 10th segment on FLAT and on the PR-tree baseline. One driver
//! runs the paper's cold-cache protocol for both: it takes the index's own
//! `range_query` as a closure, so the two indexes are measured the same
//! way.
//!
//! ```sh
//! cargo run --release --example structural_neighborhood
//! ```

use flat_repro::prelude::*;

/// Walks the fiber with per-probe cold-cache range queries, returning
/// (per-probe result counts, total physical page reads).
fn walk_fiber(
    pool: &ConcurrentBufferPool<MemStore>,
    fiber: &[Point3],
    range: impl Fn(&Aabb) -> Vec<Hit>,
) -> (Vec<usize>, u64) {
    let mut counts = Vec::with_capacity(fiber.len());
    let mut reads = 0u64;
    for center in fiber {
        let probe = Aabb::cube(*center, 10.0); // ±5 µm neighborhood
        pool.clear_cache();
        let before = pool.stats();
        counts.push(range(&probe).len());
        reads += pool.stats().since(&before).total_physical_reads();
    }
    (counts, reads)
}

fn main() {
    let config = NeuronConfig::bbp(60, 1000, 7);
    let model = NeuronModel::generate(&config);
    let entries = model.entries();
    println!("model: {} segments from {} neurons", entries.len(), 60);

    // Build FLAT and the strongest R-tree baseline, each in its own pool.
    let mut flat_pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (flat, _) = FlatIndex::build(
        &mut flat_pool,
        entries.clone(),
        FlatOptions {
            domain: Some(config.domain),
            ..FlatOptions::default()
        },
    )
    .expect("build");
    let mut pr_pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let pr = RTree::bulk_load(
        &mut pr_pool,
        entries,
        BulkLoad::PrTree,
        RTreeConfig::default(),
    )
    .expect("build");

    // Walk the first neuron's fiber: the neighborhood of every 10th
    // segment, i.e. all elements within 5 µm of the segment center.
    let fiber: Vec<Point3> = model
        .cylinders
        .iter()
        .zip(&model.neuron_of)
        .filter(|(_, &n)| n == 0)
        .step_by(10)
        .map(|(c, _)| c.p0.lerp(&c.p1, 0.5))
        .collect();
    println!("walking {} probe points along neuron 0\n", fiber.len());

    let (flat_counts, flat_reads) = walk_fiber(&flat_pool, &fiber, |q| {
        flat.range_query(&flat_pool, q).expect("query")
    });
    let (pr_counts, pr_reads) = walk_fiber(&pr_pool, &fiber, |q| {
        pr.range_query(&pr_pool, q).expect("query")
    });
    assert_eq!(flat_counts, pr_counts, "indexes disagree on some probe");
    let touching: usize = flat_counts.iter().sum();

    println!("results: {touching} neighborhood elements found along the fiber");
    for (label, reads) in [("FLAT", flat_reads), ("PR-Tree", pr_reads)] {
        println!("{label:>12}: {reads:>6} page reads");
    }
    println!(
        "FLAT reads {:.1}x less data for the structural-neighborhood walk",
        pr_reads as f64 / flat_reads as f64
    );
}
