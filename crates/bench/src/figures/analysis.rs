//! §VII-E: FLAT analysis — pointer distributions (Figure 20), partition
//! size (Figure 21), element volume and aspect ratio effects, and the
//! memory/computation overhead measurements.

use super::Context;
use crate::indexes::{BuiltIndex, IndexKind};
use crate::report::{fmt_f64, Table};
use crate::runner::run_workload;
use flat_core::neighbors::NeighborSweep;
use flat_core::partition::{partition, Partition};
use flat_core::QueryStats;
use flat_data::uniform::{uniform_entries, UniformConfig};
use flat_rtree::{leaf_capacity, LeafLayout};

/// Figure 20: the distribution of neighbor-pointer counts per partition for
/// data sets of increasing density. The paper's observation: "the median
/// stays the same … and appears to converge at 30".
pub fn fig20_pointer_distribution(ctx: &Context) -> Table {
    // The paper plots 5 of the 9 densities.
    let densities: Vec<usize> = ctx.sweep.densities().iter().copied().step_by(2).collect();
    let mut columns: Vec<String> = vec!["pointer bin".to_string()];
    columns.extend(densities.iter().map(|&d| ctx.scale.density_label(d)));
    let mut table = Table::new(
        "fig20_pointer_distribution",
        "Partitions per neighbor-pointer bin, for increasing density",
        &columns.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );

    let mut histograms: Vec<Vec<u32>> = Vec::new();
    let mut medians = Vec::new();
    let mut means = Vec::new();
    for &density in &densities {
        let domain = ctx.sweep.domain();
        let built = BuiltIndex::build(
            IndexKind::Flat,
            ctx.sweep.at(density),
            domain,
            ctx.scale.pool_pages,
        );
        let stats = built.flat_stats.as_ref().expect("FLAT build stats");
        histograms.push(stats.neighbor_counts.clone());
        medians.push(stats.median_neighbor_pointers());
        means.push(stats.avg_neighbor_pointers());
    }

    let max_count = histograms
        .iter()
        .flat_map(|h| h.iter().copied())
        .max()
        .unwrap_or(0) as usize;
    let bin_width = 5usize;
    for bin_start in (0..=max_count).step_by(bin_width) {
        let mut row = vec![format!("{}-{}", bin_start, bin_start + bin_width - 1)];
        for hist in &histograms {
            let count = hist
                .iter()
                .filter(|&&c| (c as usize) >= bin_start && (c as usize) < bin_start + bin_width)
                .count();
            row.push(count.to_string());
        }
        table.push_row(row);
    }
    let mut median_row = vec!["median".to_string()];
    median_row.extend(medians.iter().map(|m| m.to_string()));
    table.push_row(median_row);
    let mut mean_row = vec!["mean".to_string()];
    mean_row.extend(means.iter().map(|m| fmt_f64(*m)));
    table.push_row(mean_row);
    table
}

/// Total neighbor pointers of a tiling, from the plane sweep the bulkload
/// runs (only the total is kept, so the partitions are numbered in sweep
/// order).
fn neighbor_pointers(parts: &[Partition]) -> u64 {
    let mut by_min_x: Vec<&Partition> = parts.iter().collect();
    by_min_x.sort_by(|a, b| a.partition_mbr.min.x.total_cmp(&b.partition_mbr.min.x));
    let mut sweep = NeighborSweep::new();
    let mut retired = Vec::new();
    for (i, p) in by_min_x.into_iter().enumerate() {
        sweep.push(i as u32, p.page_mbr, p.partition_mbr, &mut retired);
        retired.clear();
    }
    sweep.finish(&mut retired)
}

/// Figure 21: average partition volume vs average number of neighbor
/// pointers, on uniform data with artificially inflated partitions.
pub fn fig21_partition_volume(elements: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "fig21_partition_volume",
        "Avg partition volume vs avg neighbor pointers (uniform data, inflated partitions)",
        &[
            "volume scale",
            "avg partition volume [µm³]",
            "avg neighbor pointers",
        ],
    );
    let config = UniformConfig::scaled_baseline(elements, seed);
    let entries = uniform_entries(&config);
    let capacity = leaf_capacity(LeafLayout::MbrOnly);
    let base = partition(entries, capacity, Some(config.domain));
    for scale in [1.0, 1.5, 2.0, 3.0, 4.0] {
        let mut parts = base.clone();
        if scale > 1.0 {
            for p in &mut parts {
                p.partition_mbr = p.partition_mbr.scale_volume(scale);
            }
        }
        let total = neighbor_pointers(&parts);
        let avg_volume =
            parts.iter().map(|p| p.partition_mbr.volume()).sum::<f64>() / parts.len() as f64;
        table.push_row(vec![
            fmt_f64(scale),
            fmt_f64(avg_volume),
            fmt_f64(total as f64 / parts.len() as f64),
        ]);
    }
    table
}

/// §VII-E.1, first experiment: growing the element volume grows the
/// pointer count ("increasing the object size by a factor of 5 incurs a
/// 10% increase in pointers").
pub fn exp_element_volume(elements: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "exp_element_volume",
        "Avg neighbor pointers vs element volume (uniform data)",
        &[
            "element volume [µm³]",
            "avg neighbor pointers",
            "increase vs baseline [%]",
        ],
    );
    let capacity = leaf_capacity(LeafLayout::MbrOnly);
    let mut baseline = None;
    for factor in [1.0, 2.0, 3.0, 4.0, 5.0] {
        let config = UniformConfig {
            element_volume: 18.0 * factor,
            ..UniformConfig::scaled_baseline(elements, seed)
        };
        let entries = uniform_entries(&config);
        let parts = partition(entries, capacity, Some(config.domain));
        let total = neighbor_pointers(&parts);
        let avg = total as f64 / parts.len() as f64;
        let base = *baseline.get_or_insert(avg);
        table.push_row(vec![
            fmt_f64(18.0 * factor),
            fmt_f64(avg),
            fmt_f64((avg / base - 1.0) * 100.0),
        ]);
    }
    table
}

/// §VII-E.1, second experiment: element aspect ratio vs pointer count
/// ("the average number increases linearly from 17.4 to 22.9").
pub fn exp_aspect_ratio(elements: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "exp_aspect_ratio",
        "Avg neighbor pointers vs element aspect ratio (uniform data, constant volume)",
        &[
            "length range [µm]",
            "max aspect ratio",
            "avg neighbor pointers",
        ],
    );
    let capacity = leaf_capacity(LeafLayout::MbrOnly);
    for (lo, hi) in [
        (1.0, 1.0),
        (5.0, 10.0),
        (5.0, 20.0),
        (5.0, 28.0),
        (5.0, 35.0),
    ] {
        let config = UniformConfig {
            length_range: (lo, hi),
            ..UniformConfig::scaled_baseline(elements, seed)
        };
        let entries = uniform_entries(&config);
        let parts = partition(entries, capacity, Some(config.domain));
        let total = neighbor_pointers(&parts);
        table.push_row(vec![
            format!("{lo}-{hi}"),
            fmt_f64(hi / lo),
            fmt_f64(total as f64 / parts.len() as f64),
        ]);
    }
    table
}

/// §VII-E.2: memory and computation overhead of FLAT query evaluation —
/// crawl bookkeeping relative to the result size ("remains at 0.9 % of the
/// size of the result set") and the simulated disk share of execution time
/// ("between 97.8 % and 98.8 %").
pub fn exp_overheads(ctx: &Context) -> Table {
    let mut table = Table::new(
        "exp_overheads",
        "FLAT memory & computation overhead during query evaluation (densest data set)",
        &[
            "benchmark",
            "bookkeeping / result size [%]",
            "disk share of time [%]",
            "MBR tests per result",
        ],
    );
    let domain = ctx.sweep.domain();
    let density = ctx.scale.max_density();
    let built = BuiltIndex::build(
        IndexKind::Flat,
        ctx.sweep.at(density),
        domain,
        ctx.scale.pool_pages,
    );
    let flat = built.as_flat().expect("built FLAT").clone();

    for (name, queries) in [
        ("SN", ctx.scale.sn_workload(&domain)),
        ("LSS", ctx.scale.lss_workload(&domain)),
    ] {
        let mut stats = QueryStats::default();
        for q in &queries {
            built.pool.clear_cache();
            let _ = flat
                .range_query_with_stats(&built.pool, q, &mut stats)
                .expect("in-memory query");
        }
        // Disk share from the same workload re-run through the runner (to
        // price the I/O at the paper's device cost).
        let fresh = BuiltIndex::build(
            IndexKind::Flat,
            ctx.sweep.at(density),
            domain,
            ctx.scale.pool_pages,
        );
        let outcome = run_workload(&fresh, &queries, SAS_10K_US);

        let result_bytes = (stats.result_count * 48).max(1);
        table.push_row(vec![
            name.to_string(),
            fmt_f64(stats.bookkeeping_bytes() as f64 / result_bytes as f64 * 100.0),
            fmt_f64(outcome.disk_share() * 100.0),
            fmt_f64(stats.mbr_tests as f64 / stats.result_count.max(1) as f64),
        ]);
    }
    table
}

/// Cost of one random 4 KB read on the paper's device, a 10 000 RPM SAS
/// disk (§VII-A), in µs: ≈4 ms average seek, 3 ms rotational latency (half
/// a revolution at 10 kRPM) and 40 µs of transfer at ≈100 MB/s.
pub(crate) const SAS_10K_US: f64 = 7_040.0;

/// Cost of one random 4 KB read on a commodity 7 200 RPM SATA disk, in µs:
/// ≈8.5 ms seek, 4.2 ms rotational latency and 50 µs of transfer at
/// ≈80 MB/s.
pub(crate) const SATA_7200_US: f64 = 12_750.0;

/// Cost of one random 4 KB read on a SATA SSD, in µs: no positioning cost
/// to speak of. FLAT's time advantage shrinks as positioning cost shrinks,
/// but the page-read counts are unchanged.
pub(crate) const SSD_US: f64 = 70.0;

/// Extension ablation: the same SN workload priced on different storage
/// devices — FLAT's *time* advantage shrinks on an SSD while the page-read
/// advantage is device-independent.
pub fn exp_disk_models(ctx: &Context) -> Table {
    let mut table = Table::new(
        "exp_disk_models",
        "SN benchmark, densest data set: FLAT vs PR-Tree across storage devices",
        &["device", "FLAT time [s]", "PR-Tree time [s]", "speedup"],
    );
    let domain = ctx.sweep.domain();
    let queries = ctx.scale.sn_workload(&domain);
    let density = ctx.scale.max_density();

    let flat = BuiltIndex::build(
        IndexKind::Flat,
        ctx.sweep.at(density),
        domain,
        ctx.scale.pool_pages,
    );
    let pr = BuiltIndex::build(
        IndexKind::PrTree,
        ctx.sweep.at(density),
        domain,
        ctx.scale.pool_pages,
    );

    for (name, read_cost_us) in [
        ("SAS 10k (paper)", SAS_10K_US),
        ("SATA 7.2k", SATA_7200_US),
        ("SSD", SSD_US),
    ] {
        let flat_outcome = run_workload(&flat, &queries, read_cost_us);
        let pr_outcome = run_workload(&pr, &queries, read_cost_us);
        let speedup = pr_outcome.total_time().as_secs_f64()
            / flat_outcome.total_time().as_secs_f64().max(1e-12);
        table.push_row(vec![
            name.to_string(),
            crate::report::fmt_secs(flat_outcome.total_time()),
            crate::report::fmt_secs(pr_outcome.total_time()),
            format!("{:.2}x", speedup),
        ]);
    }
    table
}
