//! One driver per figure/table of the paper.
//!
//! Figures that share a measurement pass are produced together: the SN
//! suite yields Figures 3, 12, 13, 14 and 15 from a single sweep; the LSS
//! suite yields Figures 4, 16, 17, 18 and 19; the build suite yields
//! Figures 10 and 11. [`SUITES`] lists every pass `run_all` can run.

pub mod ablation;
pub mod analysis;
pub mod build;
pub mod build_scale;
pub mod concurrency;
pub mod join;
pub mod knn;
pub mod lss;
pub mod motivation;
pub mod other;
pub mod sn;

use crate::datasets::DensitySweep;
use crate::report::Table;
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

/// One measurement pass of `run_all` and the tables it yields.
pub struct Suite {
    /// The name `run_all <name>` selects.
    pub name: &'static str,
    /// What the suite measures, with the paper section and figures.
    pub section: &'static str,
    /// Runs the pass and returns its tables, in print order.
    pub run: fn(&Context) -> Vec<Table>,
}

/// Every suite, in the order `run_all` with no argument runs them.
pub const SUITES: &[Suite] = &[
    Suite {
        name: "motivation",
        section: "R-tree overlap grows with density (§III; Fig. 2)",
        run: |ctx| vec![motivation::fig02_rtree_overlap(ctx)],
    },
    Suite {
        name: "build",
        section: "Time to index & index size (§VII-B, §VII-C; Figs. 10, 11)",
        run: build::build_suite,
    },
    Suite {
        name: "build-scale",
        section: "Streaming out-of-core build, spilled vs unspilled (extension)",
        run: |ctx| vec![build_scale::exp_build_scale(ctx)],
    },
    Suite {
        name: "sn",
        section: "SN benchmark (§III-A, §VII-D; Figs. 3, 12-15)",
        run: sn::sn_suite,
    },
    Suite {
        name: "lss",
        section: "LSS benchmark (§III-B, §VII-D; Figs. 4, 16-19)",
        run: lss::lss_suite,
    },
    Suite {
        name: "analysis",
        section: "FLAT analysis: pointers, shapes, overheads, devices (§VII-E; Figs. 20, 21)",
        run: |ctx| {
            let elements = ctx.scale.max_density().min(100_000);
            let seed = ctx.scale.seed;
            vec![
                analysis::fig20_pointer_distribution(ctx),
                analysis::fig21_partition_volume(elements, seed),
                analysis::exp_element_volume(elements, seed),
                analysis::exp_aspect_ratio(elements, seed),
                analysis::exp_overheads(ctx),
                analysis::exp_disk_models(ctx),
            ]
        },
    },
    Suite {
        name: "ablation",
        section: "Metadata order, bulkload vs insertion, bulkload strategies (extension)",
        run: |ctx| {
            let middle = ctx.scale.densities[ctx.scale.densities.len() / 2];
            vec![
                ablation::exp_meta_order(ctx),
                ablation::exp_bulk_vs_insert(ctx, middle),
                ablation::exp_bulkload_strategies(ctx),
            ]
        },
    },
    Suite {
        name: "concurrency",
        section: "SN throughput from 1-8 clients and run_batch (extension)",
        run: |ctx| vec![concurrency::exp_concurrency(ctx)],
    },
    Suite {
        name: "join",
        section: "ε-join co-crawl vs R-tree nested loop; writes BENCH_join.json (extension)",
        run: |ctx| vec![join::exp_join(ctx)],
    },
    Suite {
        name: "knn",
        section: "kNN exactness and throughput, clients and run_knn_batch (extension)",
        run: |ctx| vec![knn::exp_knn(ctx)],
    },
    Suite {
        name: "other-datasets",
        section: "Other data sets (§VIII; Figs. 22, 23)",
        run: |ctx| {
            let scale = &ctx.scale;
            let per_million = (1000.0 * scale.max_density() as f64 / 450_000.0) as usize;
            let (fig22, fig23) =
                other::other_datasets_suite(per_million.max(10), scale.queries, scale.seed);
            vec![fig22, fig23]
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke test: every suite `run_all` knows runs at smoke
    /// scale and produces non-empty, well-formed tables. This is the
    /// cross-crate integration test for the whole harness.
    #[test]
    fn all_figures_run_at_smoke_scale() {
        let ctx = Context::new(Scale::smoke());
        let densities = ctx.scale.densities.len();
        for (i, suite) in SUITES.iter().enumerate() {
            // `run_all <name>` runs the first suite of that name.
            assert!(SUITES[..i].iter().all(|s| s.name != suite.name));
            let tables = (suite.run)(&ctx);
            assert!(!tables.is_empty(), "{}", suite.name);
            for t in &tables {
                assert!(!t.rows.is_empty(), "{}: {} is empty", suite.name, t.name);
            }
            let table = |name: &str| -> &Table {
                let found = tables.iter().find(|t| t.name == name);
                found.unwrap_or_else(|| panic!("{}: no table {name}", suite.name))
            };
            match suite.name {
                "motivation" => assert_eq!(table("fig02_rtree_overlap").rows.len(), densities),
                "build" => assert_eq!(tables.len(), 2),
                "build-scale" => {
                    // Asserts the spilled build is bit-identical per density step.
                    let rows = &table("exp_build_scale").rows;
                    assert_eq!(rows.len(), densities);
                    assert!(rows.iter().all(|r| r.last().unwrap() == "yes"));
                }
                "sn" | "lss" => {
                    assert_eq!(tables.len(), 5);
                    for t in &tables {
                        assert_eq!(t.rows.len(), densities, "{}", t.name);
                    }
                }
                "analysis" => {
                    assert_eq!(table("fig21_partition_volume").rows.len(), 5);
                    assert_eq!(table("exp_element_volume").rows.len(), 5);
                    assert!(table("exp_aspect_ratio").rows.len() >= 4);
                    // SN and LSS.
                    assert_eq!(table("exp_overheads").rows.len(), 2);
                    assert_eq!(table("exp_disk_models").rows.len(), 3);
                }
                "ablation" => {
                    assert_eq!(table("exp_meta_order").rows.len(), 2);
                    assert_eq!(table("exp_bulk_vs_insert").rows.len(), 2);
                    assert_eq!(table("exp_bulkload_strategies").rows.len(), 4);
                }
                "concurrency" => {
                    let rows = &table("exp_concurrency").rows;
                    assert_eq!(rows.len(), concurrency::THREAD_STEPS.len() + 1);
                    // Every mode answers the same workload identically.
                    let results: Vec<&String> = rows.iter().map(|r| &r[3]).collect();
                    assert!(
                        results.windows(2).all(|w| w[0] == w[1]),
                        "thread counts disagree: {results:?}"
                    );
                }
                "join" => {
                    // R-tree nested loop, FLAT co-crawl, sharded co-crawl; the
                    // driver itself asserts all three produce identical pair sets.
                    let joined = table("exp_join");
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
                    assert_eq!(joined.record, Some("BENCH_join"));
                    assert!(joined.to_json().contains("\"rows\""));
                }
                "knn" => {
                    // One row per client count plus the batch verb's; the
                    // driver itself asserts the batch is bit-identical to serial.
                    let rows = &table("exp_knn").rows;
                    assert_eq!(rows.len(), knn::CLIENT_STEPS.len() + 1);
                    // Every mode answers the same workload: identical neighbor counts.
                    let counts: Vec<&String> = rows.iter().map(|r| &r[5]).collect();
                    assert!(counts.windows(2).all(|w| w[0] == w[1]));
                }
                "other-datasets" => {
                    assert_eq!(table("fig22_other_datasets").rows.len(), 5);
                    assert_eq!(table("fig23_other_speedup").rows.len(), 5);
                }
                other => panic!("suite {other} has no assertions here"),
            }
        }
    }
}
