//! `exp_build_scale` (extension): the bulkload with nothing spilled vs
//! the same bulkload spilling, at increasing dataset size.
//!
//! For every density step the driver runs the `FlatIndexBuilder` pipeline
//! (external sort → slab tiling → neighbor sweep → streamed metadata)
//! twice — once through `FlatIndex::build` (a budget no input reaches)
//! and once at `FLAT_SPILL_BUDGET` — then
//!
//! * verifies the two indexes are **bit-identical**, page by page (the
//!   run aborts if they are not: spilling must change no byte);
//! * reports build time for both and throughput for the spilled one; and
//! * reports the spilled build's **peak resident state**: entries in
//!   memory at once, partitions held *with their elements* (one slab's
//!   worth by construction), the neighbor sweep's window, and how much
//!   was spilled to scratch pages.
//!
//! The interesting shape: total partitions grow linearly with N while the
//! peak-resident columns grow like N^⅔ (one slab) — the memory bound that
//! lets the build scale to the paper's "bigger than main memory" datasets.
//!
//! The spill budget (entries buffered per sort run) defaults to 32 768 so
//! the external-sort machinery is actually exercised at bench scale;
//! override with `FLAT_SPILL_BUDGET`.

use super::Context;
use crate::report::{fmt_mb, fmt_secs, Table};
use flat_core::{FlatIndex, FlatIndexBuilder, FlatOptions};
use flat_storage::{ConcurrentBufferPool, MemStore, Page, PageId, PageStore};
use std::time::Instant;

/// Default entries buffered per external-sort run.
pub const DEFAULT_SPILL_BUDGET: usize = 32_768;

/// The spill budget, honoring `FLAT_SPILL_BUDGET`.
pub fn spill_budget_from_env() -> usize {
    std::env::var("FLAT_SPILL_BUDGET")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_SPILL_BUDGET)
}

/// `true` if every page of both stores holds identical bytes.
fn stores_identical(
    a: &ConcurrentBufferPool<MemStore>,
    b: &ConcurrentBufferPool<MemStore>,
) -> bool {
    if a.store().num_pages() != b.store().num_pages() {
        return false;
    }
    let (mut pa, mut pb) = (Page::new(), Page::new());
    for i in 0..a.store().num_pages() {
        a.store().read_page(PageId(i), &mut pa).unwrap();
        b.store().read_page(PageId(i), &mut pb).unwrap();
        if pa.bytes() != pb.bytes() {
            return false;
        }
    }
    true
}

/// Runs the experiment over the context's density sweep.
pub fn exp_build_scale(ctx: &Context) -> Table {
    let budget = spill_budget_from_env();
    let mut table = Table::new(
        "exp_build_scale",
        "Unspilled vs spilled build: throughput and peak resident state \
         (spilled index verified bit-identical per row)",
        &[
            "density",
            "unspilled [s]",
            "spilled [s]",
            "spilled [kelem/s]",
            "partitions",
            "peak res. entries",
            "peak res. partitions",
            "sweep window",
            "slabs",
            "spilled",
            "runs",
            "identical",
        ],
    );

    let options = FlatOptions {
        domain: Some(ctx.sweep.domain()),
        ..FlatOptions::default()
    };
    for &density in ctx.sweep.densities() {
        let entries = ctx.sweep.at(density);

        let mut pool_whole = ConcurrentBufferPool::new(MemStore::new(), 1 << 17);
        let t0 = Instant::now();
        let (_, _) = FlatIndex::build(&mut pool_whole, entries.clone(), options).unwrap();
        let whole_time = t0.elapsed();

        let mut pool_spilled = ConcurrentBufferPool::new(MemStore::new(), 1 << 17);
        let t1 = Instant::now();
        let (_, stats, streaming) = FlatIndexBuilder::new(options)
            .spill_budget(budget)
            .build(&mut pool_spilled, entries)
            .unwrap();
        let spilled_time = t1.elapsed();

        let identical = stores_identical(&pool_whole, &pool_spilled);
        assert!(
            identical,
            "the build at budget {budget} diverged from the unspilled build at density {density}"
        );

        table.push_row(vec![
            ctx.scale.density_label(density),
            fmt_secs(whole_time),
            fmt_secs(spilled_time),
            format!(
                "{:.0}",
                density as f64 / spilled_time.as_secs_f64() / 1000.0
            ),
            stats.num_partitions.to_string(),
            streaming.peak_resident_entries.to_string(),
            streaming.peak_resident_partitions.to_string(),
            streaming.peak_sweep_window.to_string(),
            streaming.num_slabs.to_string(),
            fmt_mb(streaming.spill.spilled_bytes),
            streaming.spill.runs.to_string(),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table
}
