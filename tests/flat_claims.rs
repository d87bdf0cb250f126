//! Direct tests of the paper's §IV complexity claims: "The complexity of
//! the seed phase is in the order of the height of the tree and the crawl
//! phase depends on the size of the result set. At the same time, the
//! approach does not need to retrieve hierarchically stored information."

use flat_repro::prelude::*;

fn build_at(
    density: usize,
    sweep_entries: &[Entry],
    domain: Aabb,
) -> (ConcurrentBufferPool<MemStore>, FlatIndex) {
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(
        &mut pool,
        sweep_entries[..density].to_vec(),
        FlatOptions {
            domain: Some(domain),
            ..FlatOptions::default()
        },
    )
    .expect("build");
    (pool, index)
}

fn neuron_sweep(n: usize) -> (Vec<Entry>, Aabb) {
    let mut config = NeuronConfig::bbp(n / 1000, 1000, 5);
    // Density-preserving domain, as in the benchmark harness.
    let edge = 285.0 * (n as f64 / 450e6).cbrt();
    config.domain = Aabb::new(Point3::splat(0.0), Point3::splat(edge));
    config.segment_length = edge * (85.0 / n as f64).cbrt() * 0.4;
    config.radius_range = (config.segment_length * 0.1, config.segment_length * 0.3);
    config.long_probability = 0.0;
    let model = NeuronModel::generate(&config);
    (model.entries(), config.domain)
}

/// The seed phase reads O(height) pages regardless of density: the
/// seed-tree inner reads per query must stay within a small constant
/// across a 4× density range.
#[test]
fn seed_cost_is_density_independent() {
    let (entries, domain) = neuron_sweep(120_000);
    let queries: Vec<Aabb> = (0..20)
        .map(|i| {
            let t = i as f64 / 20.0;
            Aabb::cube(
                domain.min.lerp(&domain.max, 0.2 + 0.6 * t),
                domain.extents().x * 0.05,
            )
        })
        .collect();

    let mut seed_reads = Vec::new();
    for density in [30_000, 60_000, 120_000] {
        let (pool, index) = build_at(density, &entries, domain);
        let mut total = 0u64;
        for q in &queries {
            pool.clear_cache();
            let before = pool.stats();
            let _ = index.range_query(&pool, q).expect("query");
            total += pool
                .stats()
                .since(&before)
                .kind(PageKind::SeedInner)
                .physical_reads;
        }
        seed_reads.push(total as f64 / queries.len() as f64);
    }
    // 4× the data: seed-directory reads stay within +2 pages per query.
    assert!(
        seed_reads[2] <= seed_reads[0] + 2.0,
        "seed reads grew with density: {seed_reads:?}"
    );
    assert!(
        seed_reads.iter().all(|&r| r <= 6.0),
        "seed phase too deep: {seed_reads:?}"
    );
}

/// The crawl cost tracks the result size: doubling the query volume must
/// scale object-page reads roughly with the results, never with the
/// dataset size.
#[test]
fn crawl_cost_tracks_result_size() {
    let (entries, domain) = neuron_sweep(120_000);
    let (pool, index) = build_at(120_000, &entries, domain);

    let mut points = Vec::new();
    for scale in [0.04, 0.08, 0.16] {
        let q = Aabb::cube(domain.center(), domain.extents().x * scale);
        pool.clear_cache();
        let before = pool.stats();
        let hits = index.range_query(&pool, &q).expect("query");
        let object = pool
            .stats()
            .since(&before)
            .kind(PageKind::ObjectPage)
            .physical_reads;
        assert!(!hits.is_empty());
        points.push((hits.len() as f64, object as f64));
    }
    // Reads per result must not blow up as the result grows: the largest
    // query must have the best (or near-best) reads-per-result ratio.
    let ratios: Vec<f64> = points.iter().map(|(r, o)| o / r).collect();
    assert!(
        ratios[2] <= ratios[0] * 1.25,
        "crawl does not amortize: ratios {ratios:?} for points {points:?}"
    );
}

/// No hierarchical retrieval: for a large query, directory-style reads
/// (seed inner pages) must be a vanishing share of FLAT's I/O.
#[test]
fn no_hierarchical_retrieval_on_large_queries() {
    let (entries, domain) = neuron_sweep(120_000);
    let (pool, index) = build_at(120_000, &entries, domain);
    let q = Aabb::cube(domain.center(), domain.extents().x * 0.5);
    pool.clear_cache();
    pool.reset_stats();
    let hits = index.range_query(&pool, &q).expect("query");
    assert!(hits.len() > 1000);
    let stats = pool.stats();
    let inner = stats.kind(PageKind::SeedInner).physical_reads;
    let total = stats.total_physical_reads();
    assert!(
        (inner as f64) < total as f64 * 0.02,
        "directory reads {inner} of {total} are not negligible"
    );
}

/// Metadata record order is an I/O-layout choice only: results must be
/// identical under both orders.
#[test]
fn meta_order_does_not_change_results() {
    use flat_repro::core::MetaOrder;
    let (entries, domain) = neuron_sweep(60_000);
    let mut results = Vec::new();
    for order in [MetaOrder::Hilbert, MetaOrder::StrOutput] {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(
            &mut pool,
            entries.clone(),
            FlatOptions {
                domain: Some(domain),
                meta_order: order,
                ..FlatOptions::default()
            },
        )
        .expect("build");
        let q = Aabb::cube(domain.center(), domain.extents().x * 0.2);
        let mut mbrs: Vec<u64> = index
            .range_query(&pool, &q)
            .expect("query")
            .iter()
            .map(|h| h.mbr.min.x.to_bits() ^ h.mbr.max.z.to_bits().rotate_left(17))
            .collect();
        mbrs.sort_unstable();
        results.push(mbrs);
    }
    assert_eq!(results[0], results[1]);
    assert!(!results[0].is_empty());
}
