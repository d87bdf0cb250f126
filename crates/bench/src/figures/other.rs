//! §VIII / Figures 22–23: FLAT vs the PR-tree on the other scientific data
//! sets (Nuage n-body snapshots, the brain surface mesh, the Lucy statue).

use super::analysis::SAS_10K_US;
use crate::indexes::{BuiltIndex, IndexKind};
use crate::report::{fmt_mb, fmt_secs, Table};
use crate::runner::run_workload;
use flat_data::mesh::{mesh_entries, MeshConfig};
use flat_data::nbody::{nbody_entries, NBodyConfig};
use flat_data::workload::{range_queries, WorkloadConfig};
use flat_geom::Aabb;
use flat_rtree::Entry;

/// The five §VIII datasets with their paper sizes in millions of elements.
/// `per_million` elements are generated per paper-million (1000 =
/// 1/1000 scale).
fn datasets(per_million: usize, seed: u64) -> Vec<(&'static str, Vec<Entry>, Aabb)> {
    let n = |millions: f64| (millions * per_million as f64) as usize;
    let mut out = Vec::new();

    let dm = NBodyConfig::dark_matter(n(16.8), seed ^ 1);
    out.push(("Nuage (dark matter)", nbody_entries(&dm), dm.domain));

    let stars = NBodyConfig::stars(n(16.8), seed ^ 2);
    out.push(("Nuage (stars)", nbody_entries(&stars), stars.domain));

    let gas = NBodyConfig::gas(n(12.4), seed ^ 3);
    out.push(("Nuage (gas)", nbody_entries(&gas), gas.domain));

    let brain = MeshConfig::brain(n(173.0), seed ^ 4);
    out.push(("Brain Mesh", mesh_entries(&brain), brain.domain));

    let lucy = MeshConfig::statue(n(252.0), seed ^ 5);
    out.push(("Lucy Statue", mesh_entries(&lucy), lucy.domain));

    out
}

/// Runs the §VIII comparison and returns `(fig22, fig23)`:
///
/// * Figure 22 — index size and building time for FLAT vs the PR-tree on
///   each dataset;
/// * Figure 23 — execution time and speedup for "small volume" and "large
///   volume" query sets (fractions scaled like the main benchmarks).
pub fn other_datasets_suite(per_million: usize, queries: usize, seed: u64) -> (Table, Table) {
    let mut fig22 = Table::new(
        "fig22_other_datasets",
        "Index size [MB] and building time [s] for each data set",
        &[
            "dataset",
            "elements",
            "FLAT size",
            "PR size",
            "FLAT build",
            "PR build",
        ],
    );
    let mut fig23 = Table::new(
        "fig23_other_speedup",
        "Execution time [s] and speedup of small and large volume queries",
        &[
            "dataset",
            "small FLAT",
            "small PR",
            "small speedup %",
            "large FLAT",
            "large PR",
            "large speedup %",
        ],
    );

    // Query volumes: the paper's fractions (5·10⁻⁷ / 5·10⁻⁴ of the data
    // set volume) scaled by the same 1000/per_million factor as the main
    // benchmarks so per-query result sizes stay in the paper's regime.
    let volume_scale = 1000.0 / per_million as f64 * 1000.0;
    let small_fraction = (flat_data::workload::SN_VOLUME_FRACTION * volume_scale).min(0.05);
    let large_fraction = (flat_data::workload::LSS_VOLUME_FRACTION * volume_scale).min(0.05);

    for (name, entries, domain) in datasets(per_million, seed) {
        let count = entries.len();
        let flat = BuiltIndex::build(IndexKind::Flat, entries.clone(), domain, 1 << 17);
        let pr = BuiltIndex::build(IndexKind::PrTree, entries, domain, 1 << 17);

        fig22.push_row(vec![
            name.to_string(),
            count.to_string(),
            fmt_mb(flat.size_bytes()),
            fmt_mb(pr.size_bytes()),
            fmt_secs(flat.build_time),
            fmt_secs(pr.build_time),
        ]);

        let mut row = vec![name.to_string()];
        for fraction in [small_fraction, large_fraction] {
            let config = WorkloadConfig {
                count: queries,
                volume_fraction: fraction,
                proportion_range: (1.0, 4.0),
                seed: seed ^ fraction.to_bits(),
            };
            let qs = range_queries(&domain, &config);
            let flat_outcome = run_workload(&flat, &qs, SAS_10K_US);
            let pr_outcome = run_workload(&pr, &qs, SAS_10K_US);
            let speedup = (pr_outcome.total_time().as_secs_f64()
                - flat_outcome.total_time().as_secs_f64())
                / pr_outcome.total_time().as_secs_f64().max(1e-12)
                * 100.0;
            row.push(fmt_secs(flat_outcome.total_time()));
            row.push(fmt_secs(pr_outcome.total_time()));
            row.push(format!("{speedup:.0}"));
        }
        fig23.push_row(row);
    }
    (fig22, fig23)
}
