//! The paper's first use case (§III-A): *structural neighborhood* —
//! detecting where neuron fibers come close to each other by issuing many
//! small range queries along a fiber, one per segment.
//!
//! The example walks one neuron's fiber and queries the 5 µm neighborhood
//! of every 10th segment through **one generic driver** over the
//! [`SpatialIndex`] trait — the same code path measures FLAT and the
//! PR-tree baseline, which is exactly what the trait exists for.
//!
//! ```sh
//! cargo run --release --example structural_neighborhood
//! ```

use flat_repro::prelude::*;

/// Walks the fiber over any index kind: per-probe cold-cache queries,
/// returning (per-probe result counts, total physical page reads).
fn walk_fiber<I: SpatialIndex>(
    index: &I,
    pool: &ConcurrentBufferPool<MemStore>,
    fiber: &[Point3],
) -> (Vec<usize>, u64) {
    let mut counts = Vec::with_capacity(fiber.len());
    let mut reads = 0u64;
    for center in fiber {
        let probe = Aabb::cube(*center, 10.0); // ±5 µm neighborhood
        pool.clear_cache();
        let before = pool.stats();
        counts.push(index.range(pool, &probe).expect("query").len());
        reads += pool.stats().since(&before).total_physical_reads();
    }
    (counts, reads)
}

fn main() {
    let config = NeuronConfig::bbp(60, 1000, 7);
    let model = NeuronModel::generate(&config);
    let entries = model.entries();
    println!("model: {} segments from {} neurons", entries.len(), 60);

    // Build FLAT and the strongest R-tree baseline through the same trait.
    let mut flat_pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let flat = FlatIndex::build_index(
        &mut flat_pool,
        entries.clone(),
        FlatOptions {
            domain: Some(config.domain),
            ..FlatOptions::default()
        },
    )
    .expect("build");
    let mut pr_pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let pr = RTree::build_index(&mut pr_pool, entries, BulkLoad::PrTree.into()).expect("build");

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

    let (flat_counts, flat_reads) = walk_fiber(&flat, &flat_pool, &fiber);
    let (pr_counts, pr_reads) = walk_fiber(&pr, &pr_pool, &fiber);
    assert_eq!(flat_counts, pr_counts, "indexes disagree on some probe");
    let touching: usize = flat_counts.iter().sum();

    let model_time = DiskModel::sas_10k();
    println!("results: {touching} neighborhood elements found along the fiber");
    for (label, reads) in [("FLAT", flat_reads), ("PR-Tree", pr_reads)] {
        println!(
            "{label:>12}: {reads:>6} page reads  ({:>7.1} ms simulated disk time)",
            model_time.io_time_for_reads(reads).as_secs_f64() * 1000.0
        );
    }
    println!(
        "FLAT reads {:.1}x less data for the structural-neighborhood walk",
        pr_reads as f64 / flat_reads as f64
    );
}
