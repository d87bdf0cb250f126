//! ε-distance join (extension): the link-graph co-crawl
//! ([`flat_core::JoinEngine`]) vs the classical R-tree index
//! nested-loop join, on the paired mesh-vs-nbody workload.
//!
//! The baseline indexes the inner (particle) dataset with an STR-packed
//! R-tree and, for every outer (mesh) element, runs one ε-inflated
//! range query through the tree — paying the root-to-leaf descent per
//! element. The co-crawl instead sweeps the outer dataset's partitions
//! in storage order and crawls the inner link graph from the previous
//! partition's partners, so most sweep steps touch no directory at all
//! ([`flat_core::JoinStats::frontier_reuses`]). Both methods are exact;
//! the driver asserts their pair sets are identical before timing wins
//! are reported. A sharded fan-out row shows the same join routed
//! through [`flat_core::ShardedDb`] coverage pairs.

use super::Context;
use crate::report::{fmt_f64, Table};
use flat_core::{FlatIndex, FlatOptions, JoinEngine, JoinInput, ShardOptions, ShardedDb};
use flat_data::join::{mesh_vs_nbody, JoinWorkload, JoinWorkloadConfig};
use flat_rtree::{BulkLoad, LeafLayout, RTree, RTreeConfig, TraversalStats};
use flat_storage::{ConcurrentBufferPool, MemStore};
use std::time::Instant;

/// Shards of the fan-out row.
pub const JOIN_SHARDS: usize = 4;

/// The paired workload at the context's scale: half the sweep's maximum
/// element count per side.
pub fn workload(ctx: &Context) -> JoinWorkload {
    let per_side = (ctx.scale.max_density() / 2).max(500);
    mesh_vs_nbody(&JoinWorkloadConfig::mesh_vs_nbody(
        per_side,
        per_side,
        ctx.scale.seed ^ 0x4a4f_494e,
    ))
}

/// One method's run: the sorted pair set plus cost counters.
struct JoinRun {
    pairs: Vec<(u64, u64)>,
    millis: f64,
    pages: u64,
}

/// The R-tree index nested-loop join: one ε-inflated range query per
/// outer element, Euclidean-verified. Pages = tree nodes visited.
fn rtree_nested(w: &JoinWorkload, pool: &ConcurrentBufferPool<MemStore>, tree: &RTree) -> JoinRun {
    let eps2 = w.eps * w.eps;
    let mut stats = TraversalStats::default();
    let mut pairs = Vec::new();
    let start = Instant::now();
    for ea in &w.outer {
        let q = ea.mbr.inflate(w.eps);
        for hit in tree
            .range_query_with_stats(pool, &q, &mut stats)
            .expect("in-memory query cannot fail")
        {
            if ea.mbr.distance_sq(&hit.mbr) <= eps2 {
                pairs.push((ea.id, hit.id));
            }
        }
    }
    let millis = start.elapsed().as_secs_f64() * 1e3;
    pairs.sort_unstable();
    JoinRun {
        pairs,
        millis,
        pages: stats.inner_visits + stats.leaf_visits,
    }
}

/// Join comparison: co-crawl vs R-tree nested loop, plus the sharded
/// fan-out. Emitting the table also writes `BENCH_join.json`, the record
/// the join benchmarks are tracked by.
pub fn exp_join(ctx: &Context) -> Table {
    let w = workload(ctx);
    let mut table = Table::new(
        "exp_join",
        "ε-distance join, mesh vs n-body: link-graph co-crawl vs R-tree \
         index nested loop (both exact, identical pair sets)",
        &[
            "method",
            "outer",
            "inner",
            "eps",
            "pairs",
            "time ms",
            "pages touched",
            "seed descents",
            "frontier reuses",
            "speedup vs R-tree",
        ],
    );
    table.record = Some("BENCH_join");
    let options = FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(w.domain),
        ..FlatOptions::default()
    };

    // The baseline: STR R-tree over the inner side, id-carrying leaves.
    let mut rtree_pool = ConcurrentBufferPool::new(MemStore::new(), ctx.scale.pool_pages);
    let rtree = RTree::bulk_load(
        &mut rtree_pool,
        w.inner.clone(),
        BulkLoad::Str,
        RTreeConfig {
            layout: LeafLayout::WithIds,
            ..RTreeConfig::default()
        },
    )
    .expect("in-memory build cannot fail");
    let baseline = rtree_nested(&w, &rtree_pool, &rtree);

    // The co-crawl over two FLAT indexes.
    let mut pool_outer = ConcurrentBufferPool::new(MemStore::new(), ctx.scale.pool_pages);
    let (index_outer, _) = FlatIndex::build(&mut pool_outer, w.outer.clone(), options)
        .expect("in-memory build cannot fail");
    let mut pool_inner = ConcurrentBufferPool::new(MemStore::new(), ctx.scale.pool_pages);
    let (index_inner, _) = FlatIndex::build(&mut pool_inner, w.inner.clone(), options)
        .expect("in-memory build cannot fail");
    let start = Instant::now();
    let cocrawl = JoinEngine::new(w.eps)
        .join(
            &pool_outer,
            JoinInput::Flat(&index_outer),
            &pool_inner,
            JoinInput::Flat(&index_inner),
        )
        .expect("in-memory join cannot fail");
    let cocrawl_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        cocrawl.pairs, baseline.pairs,
        "co-crawl and nested-loop joins must agree exactly"
    );

    // The sharded fan-out: the same join over coverage pairs.
    let shard_options = ShardOptions {
        index: options,
        ..ShardOptions::default()
    };
    let db_outer = ShardedDb::build_in_memory(JOIN_SHARDS, w.outer.clone(), shard_options)
        .expect("in-memory build cannot fail");
    let db_inner = ShardedDb::build_in_memory(JOIN_SHARDS, w.inner.clone(), shard_options)
        .expect("in-memory build cannot fail");
    let start = Instant::now();
    let sharded = db_outer
        .join(&db_inner, w.eps)
        .expect("in-memory join cannot fail");
    let sharded_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        sharded.pairs, baseline.pairs,
        "sharded fan-out must agree with the flat join"
    );

    let speedup = |ms: f64| {
        if ms > 0.0 {
            format!("{:.2}x", baseline.millis / ms)
        } else {
            "-".to_string()
        }
    };
    let mut push = |method: &str,
                    pairs: usize,
                    ms: f64,
                    pages: u64,
                    descents: String,
                    reuses: String,
                    speedup: String| {
        table.push_row(vec![
            method.to_string(),
            w.outer.len().to_string(),
            w.inner.len().to_string(),
            fmt_f64(w.eps),
            pairs.to_string(),
            fmt_f64(ms),
            pages.to_string(),
            descents,
            reuses,
            speedup,
        ]);
    };
    push(
        "R-tree nested loop",
        baseline.pairs.len(),
        baseline.millis,
        baseline.pages,
        "-".into(),
        "-".into(),
        "1.00x".into(),
    );
    push(
        "FLAT co-crawl",
        cocrawl.pairs.len(),
        cocrawl_ms,
        cocrawl.stats.object_pages_read + cocrawl.stats.crawl_records,
        cocrawl.stats.seed_descents.to_string(),
        cocrawl.stats.frontier_reuses.to_string(),
        speedup(cocrawl_ms),
    );
    push(
        &format!("sharded co-crawl K={JOIN_SHARDS}"),
        sharded.pairs.len(),
        sharded_ms,
        sharded.stats.object_pages_read + sharded.stats.crawl_records,
        sharded.stats.seed_descents.to_string(),
        sharded.stats.frontier_reuses.to_string(),
        speedup(sharded_ms),
    );
    table
}
