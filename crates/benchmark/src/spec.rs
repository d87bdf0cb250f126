//! The benchmark's contract: workloads, metrics, units and bounds.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`flat-benchmark spec`), and a test asserts the committed file still
//! matches, so the file, the code that emits metrics and the README
//! glossary cannot drift apart.

use crate::json::Json;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, pages, bytes).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "resident_reads",
        why: "FlatDb over memory, cache 16x the index, 1 client: device wait is zero, so cache-hit copy, decode, predicate and crawl bookkeeping are the whole cost",
    },
    WorkloadSpec {
        name: "device_reads",
        why: "ShardedDb K=2 over a 150 us queue-depth-8 device model, cache 1/8 of the index, 2 clients: the paper's device-bound regime, where only fewer pages, hits or overlap help",
    },
    WorkloadSpec {
        name: "churn_durable",
        why: "durable FlatDb, 1 writer committing 0.5 % batches with WAL, checkpoints and compaction beside 1 reader alternating SN and kNN, then crash-recover cycles: reads taxed by writes",
    },
    WorkloadSpec {
        name: "join_analytics",
        why: "mesh-vs-n-body epsilon-joins, then aggregates over the clustered particle side, 1 client: the link graph under the co-crawl kernel and the containment early-exit",
    },
];

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// `BENCHMARK.json`'s bound: the share of the parent's median the
    /// metric may worsen by, on any workload and any seed, before the
    /// acceptance driver rejects a change. Only metrics every workload
    /// reports have one.
    pub bound: Option<f64>,
    /// Per-layer counts that repeat exactly for one seed: `compare`
    /// demands equality instead of a ratio band.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// A user-facing metric: what someone querying or updating the database
/// feels. Measured with tracing off, by the workloads that exercise it.
#[derive(Debug, Clone, Copy)]
pub struct UserMetric {
    /// Name, unit, direction and (if every workload reports it) the
    /// `BENCHMARK.json` bound.
    pub spec: MetricSpec,
    /// The workloads that report it.
    pub on: &'static [&'static str],
    /// `compare`'s band for two result sets of one seed on one machine:
    /// the share of `a`'s median by which `b`'s may be worse.
    pub band: f64,
    /// Workloads on which the value is a deterministic count for a seed:
    /// there `compare` demands equality.
    pub exact_on: &'static [&'static str],
}

const RESIDENT: &str = "resident_reads";
const DEVICE: &str = "device_reads";
const CHURN: &str = "churn_durable";
const JOIN: &str = "join_analytics";
const ALL: &[&str] = &[RESIDENT, DEVICE, CHURN, JOIN];
/// Who issues SN and kNN reads, LSS reads, aggregates.
const SN_KNN: &[&str] = &[RESIDENT, DEVICE, CHURN];
const LSS: &[&str] = &[RESIDENT, DEVICE];
const AGG: &[&str] = &[RESIDENT, JOIN];

const fn user(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
    band: f64,
    exact_on: &'static [&'static str],
    bound: Option<f64>,
) -> UserMetric {
    UserMetric {
        spec: MetricSpec {
            name,
            unit,
            better,
            bound,
            exact: false,
        },
        on,
        band,
        exact_on,
    }
}

/// The user-facing metrics, with the bands the issue that introduced the
/// benchmark gave them.
///
/// The four that every workload reports also carry a `BENCHMARK.json`
/// bound, which has a different job from the band: the acceptance driver
/// compares medians of runs on *different seeds*, and its contract wants
/// each bound at least three times the spread (quartile distance over
/// median) of ten such runs, 25 % at most. Measured per workload on the
/// 2-core sandbox this was written on: the cold page count spreads
/// 1.4–4.1 % across seeds and the bytes 0.02–0.17 %, so 10 % and 1 %.
/// `query_per_s` spreads 2.4–3.1 % on `device_reads` but 6–19 % on the
/// CPU-bound workloads — the shared host speeds up and slows down by that
/// much for tens of seconds at a time, which a median within a run cannot
/// cancel, and on `join_analytics` the size of the pair set, and with it
/// the cost of a join, depends on the seed — so it takes the 25 % cap and
/// misses the factor of three. `setup_s` (each run reports the median of
/// five sub-second set-ups; 9–26 %) takes the widest bound, as the
/// contract asks.
pub const USER_METRICS: [UserMetric; 13] = [
    user("setup_s", "s", Lower, ALL, 0.15, &[], Some(0.25)),
    user("query_per_s", "1/s", Higher, ALL, 0.10, &[], Some(0.25)),
    user("sn_p50_us", "us", Lower, SN_KNN, 0.10, &[], None),
    user("lss_p50_us", "us", Lower, LSS, 0.10, &[], None),
    user("knn_p50_us", "us", Lower, SN_KNN, 0.10, &[], None),
    user("agg_p50_us", "us", Lower, AGG, 0.10, &[], None),
    user("join_s", "s", Lower, &[JOIN], 0.10, &[], None),
    // Serial cold count passes repeat exactly; `device_reads` counts over
    // its timed phase, whose operation set differs from run to run.
    user(
        "phys_reads_per_query",
        "pages",
        Lower,
        ALL,
        0.05,
        &[RESIDENT, CHURN, JOIN],
        Some(0.10),
    ),
    user(
        "update_elems_per_s",
        "1/s",
        Higher,
        &[CHURN],
        0.10,
        &[],
        None,
    ),
    user("commit_p50_ms", "ms", Lower, &[CHURN], 0.10, &[], None),
    user("commit_p90_ms", "ms", Lower, &[CHURN], 0.10, &[], None),
    user("recovery_s", "s", Lower, &[CHURN], 0.15, &[], None),
    // A bulk-load is deterministic; under churn the footprint is the
    // median over however many compaction cycles the run got through.
    user(
        "stored_bytes_per_elem",
        "B",
        Lower,
        ALL,
        0.01,
        &[RESIDENT, DEVICE, JOIN],
        Some(0.01),
    ),
];

/// `BENCHMARK.json`'s end-to-end metrics: the user-facing metrics every
/// workload reports. The acceptance driver reads every one of them from
/// every run, so a metric only some workloads exercise cannot be listed
/// there; `compare` gates those (see [`workload_specific`]).
pub fn end_to_end() -> impl Iterator<Item = &'static MetricSpec> {
    USER_METRICS
        .iter()
        .filter(|m| m.on.len() == WORKLOADS.len())
        .map(|m| &m.spec)
}

/// The user-facing metrics only some workloads report, for `workload`.
pub fn workload_specific(workload: &str) -> impl Iterator<Item = &'static MetricSpec> + '_ {
    USER_METRICS
        .iter()
        .filter(move |m| m.on.len() < WORKLOADS.len() && m.on.contains(&workload))
        .map(|m| &m.spec)
}

/// The user-facing metric called `name`.
pub fn user_metric(name: &str) -> Option<&'static UserMetric> {
    USER_METRICS.iter().find(|m| m.spec.name == name)
}

/// Per-layer metrics, named after the module that owns the layer. A
/// traced run emits all of them; a layer the workload does not exercise
/// reports 0.
pub const PER_LAYER: [MetricSpec; 58] = [
    // PageStore — the device.
    count("store.reads_per_query", "pages", Lower),
    layer("store.read_wait_us_per_query", "us", Lower),
    layer("store.write_bytes_per_user_byte", "ratio", Lower),
    layer("store.syncs_per_commit", "count", Lower),
    layer("store.sync_us_per_commit", "us", Lower),
    // ConcurrentBufferPool — the page cache.
    count("cache.logical_reads_per_query", "pages", Lower),
    layer("cache.hit_rate", "ratio", Higher),
    layer("cache.hit_ns_per_read", "ns", Lower),
    // DiskScheduler — demand/prefetch lanes in front of the device.
    layer("scheduler.self_us_per_query", "us", Lower),
    layer("scheduler.demand_wait_us_mean", "us", Lower),
    layer("scheduler.demand_service_us_mean", "us", Lower),
    layer("scheduler.coalesced_share", "ratio", Higher),
    layer("scheduler.demand_queue_max", "count", Lower),
    layer("scheduler.prefetch_useful_share", "ratio", Higher),
    // VersionedPool — MVCC pins and copy-on-write.
    layer("versioned.pin_ns_per_read", "ns", Lower),
    layer("versioned.self_ms_per_commit", "ms", Lower),
    layer("versioned.cow_pages_per_commit", "pages", Lower),
    layer("versioned.retained_versions_max", "count", Lower),
    layer("versioned.reclaimed_versions", "count", Higher),
    // FlatIndex — seed + crawl, kNN, aggregates.
    layer("index.self_us_per_sn", "us", Lower),
    layer("index.self_us_per_lss", "us", Lower),
    layer("index.self_us_per_knn", "us", Lower),
    layer("index.self_us_per_agg", "us", Lower),
    count("index.records_per_result", "ratio", Lower),
    count("index.mbr_tests_per_result", "ratio", Lower),
    count("index.object_pages_per_query", "pages", Lower),
    count("index.seed_probe_pages_per_query", "pages", Lower),
    count("index.knn_records_expanded_per_query", "count", Lower),
    count("index.agg_pages_skipped_share", "ratio", Higher),
    // DeltaIndex — the update layer.
    layer("delta.read_slowdown_at_2pct", "ratio", Lower),
    layer("delta.read_slowdown_at_8pct", "ratio", Lower),
    layer("delta.apply_ms_per_batch", "ms", Lower),
    layer("delta.compact_ms", "ms", Lower),
    layer("delta.fraction_at_compact", "ratio", Lower),
    // Wal / DurableStore — logging, checkpoints, recovery.
    layer("wal.bytes_per_commit", "B", Lower),
    layer("durable.self_ms_per_commit", "ms", Lower),
    layer("durable.checkpoint_ms", "ms", Lower),
    layer("durable.checkpoint_pages", "pages", Lower),
    layer("durable.replayed_records", "count", Lower),
    layer("durable.recovery_ms", "ms", Lower),
    // FlatDb — the session facade.
    layer("db.facade_ns_per_query", "ns", Lower),
    layer("db.self_ms_per_commit", "ms", Lower),
    layer("db.build_elems_per_s", "1/s", Higher),
    layer("db.sn_p99_us", "us", Lower),
    layer("db.knn_p99_us", "us", Lower),
    layer("db.read_p99_us_during_commit", "us", Lower),
    layer("db.commit_p50_ms", "ms", Lower),
    layer("db.commit_p90_ms", "ms", Lower),
    layer("db.update_elems_per_s", "1/s", Higher),
    layer("db.join_ms", "ms", Lower),
    // ShardedDb — the router.
    layer("shard.route_us_per_query", "us", Lower),
    layer("shard.k2_speedup", "ratio", Higher),
    layer("shard.join_ms", "ms", Lower),
    // JoinEngine — the co-crawl kernel.
    layer("join.ns_per_page", "ns", Lower),
    count("join.pages_touched", "count", Lower),
    count("join.seed_descents", "count", Lower),
    count("join.frontier_reuse_ratio", "ratio", Higher),
    // (element tests ÷ result pairs; and the tracing tax itself)
    count("join.element_tests_per_pair", "ratio", Lower),
];

/// Tracing overhead is reported with the per-layer set but is a property
/// of the benchmark, not of a layer.
pub const TRACE_OVERHEAD: MetricSpec = layer("trace_overhead_pct", "%", Lower);

/// Every metric a traced run emits, in emission order.
pub fn per_layer_metrics() -> impl Iterator<Item = &'static MetricSpec> {
    PER_LAYER.iter().chain(std::iter::once(&TRACE_OVERHEAD))
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricSpec| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "crates/benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("crates/benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(end_to_end().map(metric).collect())),
        (
            "per_layer",
            Json::Arr(per_layer_metrics().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = HashSet::new();
        for m in end_to_end().chain(per_layer_metrics()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name));
            assert!(names.insert(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.why.len()
            );
        }
        for m in end_to_end() {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(per_layer_metrics().all(|m| m.bound.is_none()));
        assert!((1..=16).contains(&end_to_end().count()));
        assert!((1..=128).contains(&per_layer_metrics().count()));
        let setup = end_to_end().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = end_to_end().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the widest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().to_pretty().len() < 64 * 1024);
    }

    #[test]
    fn user_metrics_name_their_workloads_and_gates() {
        let mut names = HashSet::new();
        for m in &USER_METRICS {
            assert!(names.insert(m.spec.name), "duplicate {}", m.spec.name);
            assert!(!m.on.is_empty() && m.on.iter().all(|w| workload(w).is_some()));
            assert!(m.exact_on.iter().all(|w| m.on.contains(w)));
            assert!(m.band > 0.0 && m.band <= 0.15);
            // BENCHMARK.json can bound exactly what every workload reports.
            assert_eq!(m.spec.bound.is_some(), m.on.len() == WORKLOADS.len());
        }
        for w in WORKLOADS.map(|w| w.name) {
            let reported = end_to_end().count() + workload_specific(w).count();
            let expected = USER_METRICS.iter().filter(|m| m.on.contains(&w)).count();
            assert_eq!(reported, expected);
        }
        assert!(user_metric("join_s").is_some_and(|m| m.on == [JOIN]));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with: cargo run --release -p flat-benchmark -- spec > BENCHMARK.json"
        );
    }
}
