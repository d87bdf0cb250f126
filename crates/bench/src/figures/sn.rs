//! The SN (structural neighborhood) benchmark suite: Figures 3, 12, 13, 14
//! and 15 from one measurement sweep.

use super::analysis::SAS_10K_US;
use super::Context;
use crate::indexes::{BuiltIndex, IndexKind};
use crate::report::{fmt_f64, fmt_mb, fmt_secs, Table};
use crate::runner::{run_workload, WorkloadOutcome};
use flat_storage::PageKind;
use std::collections::HashMap;

/// Runs the SN workload for every index at every density and derives the
/// five SN tables:
///
/// 1. `fig03` — PR-tree page reads per result element (the motivation
///    table of §III-A),
/// 2. `fig12` — total page reads (thousands),
/// 3. `fig13` — execution time (simulated I/O + measured CPU),
/// 4. `fig14` — data-retrieved breakdown (FLAT: seed/metadata/object;
///    PR-tree: non-leaf/leaf), in MB,
/// 5. `fig15` — page reads per result element for all indexes.
pub fn sn_suite(ctx: &Context) -> Vec<Table> {
    let domain = ctx.sweep.domain();
    let queries = ctx.scale.sn_workload(&domain);

    let outcomes = run_paper_set(ctx, &queries);
    tables_from_outcomes(
        ctx,
        &outcomes,
        "sn",
        "SN benchmark",
        &["fig03", "fig12", "fig13", "fig14", "fig15"],
    )
}

/// Builds the four paper indexes and runs `queries` against each, at every
/// density. The four contenders of one density run on scoped worker
/// threads: each owns its private pool and store, so the paper's
/// single-threaded query protocol is preserved per index while the suite
/// finishes sooner on multi-core machines.
pub(super) fn run_paper_set(
    ctx: &Context,
    queries: &[flat_geom::Aabb],
) -> HashMap<(usize, IndexKind), WorkloadOutcome> {
    let domain = ctx.sweep.domain();
    let mut outcomes: HashMap<(usize, IndexKind), WorkloadOutcome> = HashMap::new();
    for &density in ctx.sweep.densities() {
        let entries = ctx.sweep.at(density);
        std::thread::scope(|scope| {
            let handles: Vec<_> = IndexKind::PAPER_SET
                .into_iter()
                .map(|kind| {
                    let entries = entries.clone();
                    scope.spawn(move || {
                        let built = BuiltIndex::build(kind, entries, domain, ctx.scale.pool_pages);
                        (kind, run_workload(&built, queries, SAS_10K_US))
                    })
                })
                .collect();
            for handle in handles {
                let (kind, outcome) = handle.join().expect("bench worker panicked");
                outcomes.insert((density, kind), outcome);
            }
        });
    }
    outcomes
}

/// Shared table derivation for the SN and LSS suites (the two benchmarks
/// report the same five views).
pub(super) fn tables_from_outcomes(
    ctx: &Context,
    outcomes: &HashMap<(usize, IndexKind), WorkloadOutcome>,
    tag: &str,
    title: &str,
    names: &[&str; 5],
) -> Vec<Table> {
    let densities = ctx.sweep.densities();

    let mut per_result_pr = Table::new(
        &format!("{}_{}_pr_per_result", names[0], tag),
        &format!("{title}: page reads per result element on the PR-Tree"),
        &["density", "page reads per result", "results per query"],
    );
    let mut total_reads = Table::new(
        &format!("{}_{}_page_reads", names[1], tag),
        &format!("{title}: total page reads [thousands]"),
        &["density", "FLAT", "PR-Tree", "STR R-Tree", "Hilbert R-Tree"],
    );
    let mut time = Table::new(
        &format!("{}_{}_time", names[2], tag),
        &format!("{title}: execution time [s] (simulated SAS disk + measured CPU)"),
        &["density", "FLAT", "PR-Tree", "STR R-Tree", "Hilbert R-Tree"],
    );
    let mut breakdown = Table::new(
        &format!("{}_{}_breakdown", names[3], tag),
        &format!(
            "{title}: data retrieved [MB] — FLAT (seed tree / metadata / object) vs PR-Tree (non-leaf / leaf)"
        ),
        &[
            "density",
            "FLAT seed",
            "FLAT metadata",
            "FLAT object",
            "PR non-leaf",
            "PR leaf",
            "result size",
        ],
    );
    let mut per_result = Table::new(
        &format!("{}_{}_per_result", names[4], tag),
        &format!("{title}: page reads per result element"),
        &["density", "FLAT", "PR-Tree", "STR R-Tree", "Hilbert R-Tree"],
    );

    for &density in densities {
        let label = ctx.scale.density_label(density);
        let get = |kind: IndexKind| &outcomes[&(density, kind)];

        let pr = get(IndexKind::PrTree);
        per_result_pr.push_row(vec![
            label.clone(),
            fmt_f64(pr.reads_per_result()),
            fmt_f64(pr.results as f64 / pr.queries.max(1) as f64),
        ]);

        let order = [
            IndexKind::Flat,
            IndexKind::PrTree,
            IndexKind::Str,
            IndexKind::Hilbert,
        ];
        let mut reads_row = vec![label.clone()];
        let mut time_row = vec![label.clone()];
        let mut per_result_row = vec![label.clone()];
        for kind in order {
            let o = get(kind);
            reads_row.push(fmt_f64(o.page_reads() as f64 / 1000.0));
            time_row.push(fmt_secs(o.total_time()));
            per_result_row.push(fmt_f64(o.reads_per_result()));
        }
        total_reads.push_row(reads_row);
        time.push_row(time_row);
        per_result.push_row(per_result_row);

        let flat = get(IndexKind::Flat);
        breakdown.push_row(vec![
            label,
            fmt_mb(flat.bytes_read_of(PageKind::SeedInner)),
            fmt_mb(flat.bytes_read_of(PageKind::SeedLeaf)),
            fmt_mb(flat.bytes_read_of(PageKind::ObjectPage)),
            fmt_mb(pr.bytes_read_of(PageKind::RTreeInner)),
            fmt_mb(pr.bytes_read_of(PageKind::RTreeLeaf)),
            fmt_mb(flat.result_bytes()),
        ]);
    }
    vec![per_result_pr, total_reads, time, breakdown, per_result]
}
