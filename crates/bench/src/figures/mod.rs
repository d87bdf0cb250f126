//! One driver per figure/table of the paper.
//!
//! Figures that share a measurement pass are produced together: the SN
//! suite yields Figures 3, 12, 13, 14 and 15 from a single sweep; the LSS
//! suite yields Figures 4, 16, 17, 18 and 19; the build suite yields
//! Figures 10 and 11.

pub mod ablation;
pub mod analysis;
pub mod build;
pub mod build_scale;
pub mod concurrency;
pub mod join;
pub mod knn;
pub mod lss;
pub mod motivation;
pub mod mvcc;
pub mod other;
pub mod shard;
pub mod sn;
pub mod update;
pub mod wal;

use crate::datasets::DensitySweep;
use crate::Scale;
use flat_storage::DiskModel;

/// Shared state for a benchmarking session: the scale, the generated
/// density sweep, and the disk model pricing the I/O.
pub struct Context {
    /// Experiment scale.
    pub scale: Scale,
    /// The neuron-model density sweep (generated once).
    pub sweep: DensitySweep,
    /// Disk cost model (the paper's 10 kRPM SAS array by default).
    pub model: DiskModel,
}

impl Context {
    /// Generates the sweep for `scale`.
    pub fn new(scale: Scale) -> Context {
        let sweep = DensitySweep::generate(&scale);
        Context {
            scale,
            sweep,
            model: DiskModel::sas_10k(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke test: every figure driver runs at smoke scale and
    /// produces non-empty, well-formed tables. This is the cross-crate
    /// integration test for the whole harness.
    #[test]
    fn all_figures_run_at_smoke_scale() {
        let ctx = Context::new(Scale::smoke());

        let fig02 = motivation::fig02_rtree_overlap(&ctx);
        assert_eq!(fig02.rows.len(), ctx.scale.densities.len());

        let sn_tables = sn::sn_suite(&ctx);
        assert_eq!(sn_tables.len(), 5);
        for t in &sn_tables {
            assert_eq!(t.rows.len(), ctx.scale.densities.len(), "{}", t.name);
        }

        let lss_tables = lss::lss_suite(&ctx);
        assert_eq!(lss_tables.len(), 5);

        let build_tables = build::build_suite(&ctx);
        assert_eq!(build_tables.len(), 2);

        // Asserts the spilled build is bit-identical per density step.
        let scale_table = build_scale::exp_build_scale(&ctx);
        assert_eq!(scale_table.rows.len(), ctx.scale.densities.len());
        assert!(scale_table.rows.iter().all(|r| r.last().unwrap() == "yes"));

        let fig20 = analysis::fig20_pointer_distribution(&ctx);
        assert!(!fig20.rows.is_empty());

        let fig21 = analysis::fig21_partition_volume(1_000, ctx.scale.seed);
        assert_eq!(fig21.rows.len(), 5);

        let volume = analysis::exp_element_volume(1_000, ctx.scale.seed);
        assert_eq!(volume.rows.len(), 5);

        let aspect = analysis::exp_aspect_ratio(1_000, ctx.scale.seed);
        assert!(aspect.rows.len() >= 4);

        let overheads = analysis::exp_overheads(&ctx);
        assert_eq!(overheads.rows.len(), 2); // SN and LSS

        let (fig22, fig23) = other::other_datasets_suite(50, 10, ctx.scale.seed);
        assert_eq!(fig22.rows.len(), 5);
        assert_eq!(fig23.rows.len(), 5);

        let meta_order = ablation::exp_meta_order(&ctx);
        assert_eq!(meta_order.rows.len(), 2);

        let knn = knn::exp_knn(&ctx);
        // One row per client count plus the batch verb's; the driver itself
        // asserts the batch is bit-identical to serial.
        assert_eq!(knn.rows.len(), knn::CLIENT_STEPS.len() + 1);
        // Every mode answers the same workload: identical neighbor counts.
        let counts: Vec<&String> = knn.rows.iter().map(|r| &r[5]).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]));

        let concurrent = concurrency::exp_concurrency(&ctx);
        assert_eq!(concurrent.rows.len(), concurrency::THREAD_STEPS.len() + 1);
        // Every mode answers the same workload identically.
        let results: Vec<&String> = concurrent.rows.iter().map(|r| &r[3]).collect();
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "thread counts disagree: {results:?}"
        );

        let sharded = shard::exp_shard(&ctx);
        // Unsharded baseline plus one row per shard count.
        assert_eq!(sharded.rows.len(), 1 + shard::SHARD_STEPS.len());
        // The schedulers actually carried traffic on the sharded rows.
        for row in sharded.rows.iter().skip(1) {
            assert_ne!(row[6], "-", "missing scheduler stats: {row:?}");
        }
        assert!(sharded.to_json().contains("\"rows\""));

        // R-tree nested loop, FLAT co-crawl, sharded co-crawl; the driver
        // itself asserts all three produce identical pair sets.
        let joined = join::exp_join(&ctx);
        assert_eq!(joined.rows.len(), 3);
        assert_ne!(joined.rows[0][4], "0", "join selected no pairs");
        let counts: Vec<&String> = joined.rows.iter().map(|r| &r[4]).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]));
        // The sweep reuses the frontier far more often than it reseeds.
        let reuses: u64 = joined.rows[1][8].parse().unwrap();
        let descents: u64 = joined.rows[1][7].parse().unwrap();
        assert!(
            reuses > descents,
            "co-crawl reseeded more than it reused ({descents} vs {reuses})"
        );
        assert!(joined.to_json().contains("\"rows\""));

        let bulk_vs_insert = ablation::exp_bulk_vs_insert(&ctx, 5_000);
        assert_eq!(bulk_vs_insert.rows.len(), 2);

        let strategies = ablation::exp_bulkload_strategies(&ctx);
        assert_eq!(strategies.rows.len(), 4);

        // Base + churn steps + compact; the driver itself asserts the
        // compacted pages are byte-identical to a fresh rebuild.
        let updates = update::exp_update(&ctx);
        assert_eq!(updates.rows.len(), 2 + update::CHURN_STEPS);
        assert_eq!(updates.rows.last().unwrap().last().unwrap(), "yes");

        // One row per durability mode plus the group-commit reruns; every
        // durable run recovered from a simulated crash to the non-durable
        // baseline's query answers (the driver itself asserts the
        // equivalence).
        let durability = wal::exp_wal(&ctx);
        assert_eq!(
            durability.rows.len(),
            wal::modes().len() + wal::grouped_modes().len()
        );
        for row in durability.rows.iter().skip(1) {
            assert_eq!(row.last().unwrap(), "yes", "{row:?}");
        }
        assert!(durability.to_json().contains("\"rows\""));

        // Idle / mvcc / exclusive writer regimes; the driver itself
        // asserts every regime's final answers match the brute-force
        // serial-path oracle, and the mvcc churn writer committed batches
        // while the fleet was reading.
        let snapshots = mvcc::exp_mvcc(&ctx);
        assert_eq!(snapshots.rows.len(), 3);
        for row in &snapshots.rows {
            assert_eq!(row.last().unwrap(), "yes", "{row:?}");
        }
        assert_ne!(snapshots.rows[1][3], "0", "mvcc writer never committed");
        assert!(snapshots.to_json().contains("\"rows\""));
    }
}
