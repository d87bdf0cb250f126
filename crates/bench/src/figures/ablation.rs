//! Design-choice ablations (extensions beyond the paper's figures,
//! called out in DESIGN.md).

use super::analysis::SAS_10K_US;
use super::Context;
use crate::indexes::{BuiltIndex, IndexKind};
use crate::report::{fmt_f64, fmt_mb, fmt_secs, Table};
use crate::runner::run_workload;
use flat_core::{FlatIndex, FlatOptions, MetaOrder};
use flat_rtree::{leaf_capacity, BulkLoad, LeafLayout, RTree, RTreeConfig};
use flat_storage::{ConcurrentBufferPool, MemStore, PageKind};

/// Metadata packing order ablation: the paper requires "spatially close
/// records on the same leaf page" (§V-B.2) without fixing an order. This
/// measures the SN-benchmark I/O of Hilbert-ordered records (our default)
/// against raw STR output order.
pub fn exp_meta_order(ctx: &Context) -> Table {
    let mut table = Table::new(
        "exp_meta_order",
        "SN benchmark, densest data set: metadata record order ablation",
        &[
            "record order",
            "total page reads",
            "metadata page reads",
            "object page reads",
        ],
    );
    let domain = ctx.sweep.domain();
    let queries = ctx.scale.sn_workload(&domain);
    let entries = ctx.sweep.at(ctx.scale.max_density());

    for (name, order) in [
        ("Hilbert (default)", MetaOrder::Hilbert),
        ("STR output", MetaOrder::StrOutput),
    ] {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), ctx.scale.pool_pages);
        let (index, _) = FlatIndex::build(
            &mut pool,
            entries.clone(),
            FlatOptions {
                domain: Some(domain),
                meta_order: order,
                ..FlatOptions::default()
            },
        )
        .expect("in-memory build");
        let mut total = 0u64;
        let mut meta = 0u64;
        let mut object = 0u64;
        for q in &queries {
            pool.clear_cache();
            let before = pool.stats();
            let _ = index.range_query(&pool, q).expect("in-memory query");
            let delta = pool.stats().since(&before);
            total += delta.total_physical_reads();
            meta += delta.kind(PageKind::SeedLeaf).physical_reads;
            object += delta.kind(PageKind::ObjectPage).physical_reads;
        }
        table.push_row(vec![
            name.to_string(),
            total.to_string(),
            meta.to_string(),
            object.to_string(),
        ]);
    }
    table
}

/// Bulkload-vs-insertion ablation, quantifying the paper's claim that
/// "bulkloaded trees outperform other R-Tree variants such as the R*-Tree,
/// primarily due to better page utilization" (§VII).
pub fn exp_bulk_vs_insert(ctx: &Context, elements: usize) -> Table {
    let mut table = Table::new(
        "exp_bulk_vs_insert",
        "STR bulkload vs dynamic (Guttman) insertion: utilization and SN I/O",
        &[
            "construction",
            "leaf pages",
            "fill factor [%]",
            "index size [MB]",
            "build time [s]",
            "SN page reads",
        ],
    );
    let domain = ctx.sweep.domain();
    let entries = ctx.sweep.at(elements);
    let queries = ctx.scale.sn_workload(&domain);
    let cap = leaf_capacity(LeafLayout::MbrOnly) as f64;

    // Bulkloaded.
    {
        let built = BuiltIndex::build(
            IndexKind::Str,
            entries.clone(),
            domain,
            ctx.scale.pool_pages,
        );
        let outcome = run_workload(&built, &queries, SAS_10K_US);
        let tree = built.as_rtree().expect("STR is an R-tree");
        let fill = elements as f64 / (tree.num_leaf_pages() as f64 * cap) * 100.0;
        table.push_row(vec![
            "STR bulkload".to_string(),
            tree.num_leaf_pages().to_string(),
            fmt_f64(fill),
            fmt_mb(tree.size_bytes()),
            fmt_secs(built.build_time),
            outcome.page_reads().to_string(),
        ]);
    }

    // Insertion-built.
    {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), ctx.scale.pool_pages);
        let start = std::time::Instant::now();
        let mut tree = RTree::new_empty(RTreeConfig::default());
        for e in &entries {
            tree.insert(&mut pool, *e).expect("in-memory insert");
        }
        let build_time = start.elapsed();
        pool.reset_stats();
        let mut total = 0u64;
        for q in &queries {
            pool.clear_cache();
            let before = pool.stats();
            let _ = tree.range_query(&pool, q).expect("in-memory query");
            total += pool.stats().since(&before).total_physical_reads();
        }
        let fill = elements as f64 / (tree.num_leaf_pages() as f64 * cap) * 100.0;
        table.push_row(vec![
            "Guttman insertion".to_string(),
            tree.num_leaf_pages().to_string(),
            fmt_f64(fill),
            fmt_mb(tree.size_bytes()),
            fmt_secs(build_time),
            total.to_string(),
        ]);
    }
    table
}

/// Bulkload-strategy ablation on the neuron data: all four packing
/// strategies side by side (TGS is the extension the paper discusses but
/// does not measure).
pub fn exp_bulkload_strategies(ctx: &Context) -> Table {
    let mut table = Table::new(
        "exp_bulkload_strategies",
        "Bulkload strategies on the densest neuron data set",
        &[
            "strategy",
            "build time [s]",
            "leaf pages",
            "SN page reads",
            "LSS page reads",
        ],
    );
    let domain = ctx.sweep.domain();
    let entries = ctx.sweep.at(ctx.scale.max_density());
    let sn = ctx.scale.sn_workload(&domain);
    let lss = ctx.scale.lss_workload(&domain);

    for method in [
        BulkLoad::Str,
        BulkLoad::Hilbert,
        BulkLoad::PrTree,
        BulkLoad::Tgs,
    ] {
        let kind = match method {
            BulkLoad::Str => IndexKind::Str,
            BulkLoad::Hilbert => IndexKind::Hilbert,
            BulkLoad::PrTree => IndexKind::PrTree,
            BulkLoad::Tgs => IndexKind::Tgs,
        };
        let built = BuiltIndex::build(kind, entries.clone(), domain, ctx.scale.pool_pages);
        let sn_outcome = run_workload(&built, &sn, SAS_10K_US);
        let lss_outcome = run_workload(&built, &lss, SAS_10K_US);
        let tree = built.as_rtree().expect("R-tree ablation");
        table.push_row(vec![
            method.label().to_string(),
            fmt_secs(built.build_time),
            tree.num_leaf_pages().to_string(),
            sn_outcome.page_reads().to_string(),
            lss_outcome.page_reads().to_string(),
        ]);
    }
    table
}
