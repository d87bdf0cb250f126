//! Regenerates every table and figure of the paper in one run.
//!
//! Respects `FLAT_SCALE`, `FLAT_QUERIES` and `FLAT_RESULTS_DIR`.
use flat_bench::figures::{
    ablation, analysis, build, build_scale, concurrency, join, knn, lss, motivation, mvcc, other,
    shard, sn, update, wal, Context,
};
use flat_bench::Scale;
use std::time::Instant;

/// The experiment suites this binary runs, with their dedicated binaries.
const SUITES: &[(&str, &str)] = &[
    ("motivation", "fig02_rtree_overlap"),
    ("build", "fig10_build_time, fig11_index_size"),
    ("build-scale", "exp_build_scale"),
    ("sn", "fig03/12/13/14/15"),
    ("lss", "fig04/16/17/18/19"),
    (
        "analysis",
        "fig20/21, exp_element_volume, exp_aspect_ratio, exp_overheads, exp_disk_models",
    ),
    (
        "ablation",
        "exp_meta_order, exp_bulk_vs_insert, exp_bulkload_strategies",
    ),
    ("concurrency", "exp_concurrency"),
    ("sharded-serving", "exp_shard"),
    ("join", "exp_join"),
    ("knn", "exp_knn"),
    ("update", "exp_update"),
    ("mvcc", "exp_mvcc"),
    ("durability", "exp_wal"),
    ("other-datasets", "fig22, fig23"),
];

fn main() {
    // `--list`/`--help`: print the suite map and exit without building
    // anything — cheap wiring for CI smoke checks.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .iter()
        .any(|a| a == "--list" || a == "--help" || a == "-h")
    {
        println!("run_all — regenerates every table and figure of the paper in one run.");
        println!(
            "Env knobs: FLAT_SCALE, FLAT_QUERIES, FLAT_RESULTS_DIR, FLAT_TAIL, FLAT_SPILL_BUDGET."
        );
        println!("Suites (each also available as its own binary):");
        for (suite, bins) in SUITES {
            println!("  {suite:<14} {bins}");
        }
        return;
    }
    if let Some(unknown) = args.first() {
        eprintln!("unknown argument {unknown:?}; try --list");
        std::process::exit(2);
    }

    let start = Instant::now();
    let scale = Scale::from_env();
    println!(
        "FLAT reproduction — full evaluation run (densities {:?}, {} queries per workload)\n",
        scale.densities, scale.queries
    );
    let ctx = Context::new(scale.clone());

    println!("=== Motivation (Section III) ===\n");
    motivation::fig02_rtree_overlap(&ctx).emit();

    println!("=== Time to index & index size (Sections VII-B, VII-C) ===\n");
    for table in build::build_suite(&ctx) {
        table.emit();
    }

    println!("=== Streaming out-of-core build (extension) ===\n");
    build_scale::exp_build_scale(&ctx).emit();

    println!("=== SN benchmark (Sections III-A, VII-D) ===\n");
    for table in sn::sn_suite(&ctx) {
        table.emit();
    }

    println!("=== LSS benchmark (Sections III-B, VII-D) ===\n");
    for table in lss::lss_suite(&ctx) {
        table.emit();
    }

    println!("=== FLAT analysis (Section VII-E) ===\n");
    analysis::fig20_pointer_distribution(&ctx).emit();
    let analysis_elements = scale.max_density().min(100_000);
    analysis::fig21_partition_volume(analysis_elements, scale.seed).emit();
    analysis::exp_element_volume(analysis_elements, scale.seed).emit();
    analysis::exp_aspect_ratio(analysis_elements, scale.seed).emit();
    analysis::exp_overheads(&ctx).emit();
    analysis::exp_disk_models(&ctx).emit();

    println!("=== Ablations (extensions, see DESIGN.md) ===\n");
    ablation::exp_meta_order(&ctx).emit();
    ablation::exp_bulk_vs_insert(&ctx, scale.densities[scale.densities.len() / 2]).emit();
    ablation::exp_bulkload_strategies(&ctx).emit();

    println!("=== Concurrent query streams (extension) ===\n");
    concurrency::exp_concurrency(&ctx).emit();

    println!("=== Sharded serving layer (extension) ===\n");
    shard::emit_with_json(&shard::exp_shard(&ctx));

    println!("=== Spatial joins (extension) ===\n");
    join::emit_with_json(&join::exp_join(&ctx));

    println!("=== kNN (extension) ===\n");
    knn::exp_knn(&ctx).emit();

    println!("=== Dynamic updates & compaction (extension) ===\n");
    update::exp_update(&ctx).emit();

    println!("=== MVCC snapshots under live ingest (extension) ===\n");
    mvcc::emit_with_json(&mvcc::exp_mvcc(&ctx));

    println!("=== Durability: WAL & crash recovery (extension) ===\n");
    wal::emit_with_json(&wal::exp_wal(&ctx));

    println!("=== Other data sets (Section VIII) ===\n");
    let per_million = (1000.0 * scale.max_density() as f64 / 450_000.0) as usize;
    let (fig22, fig23) =
        other::other_datasets_suite(per_million.max(10), scale.queries, scale.seed);
    fig22.emit();
    fig23.emit();

    println!(
        "Done in {:.1}s. CSVs in {}.",
        start.elapsed().as_secs_f64(),
        flat_bench::report::results_dir().display()
    );
}
