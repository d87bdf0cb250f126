//! Every workload, untraced and traced, at a twentieth of the default
//! dataset: each run must emit exactly the metrics `BENCHMARK.json`
//! names, finite and in the declared unit, and no operation may fail.

use flat_benchmark::json::Json;
use flat_benchmark::report::{listing, result_line};
use flat_benchmark::spec;
use flat_benchmark::workloads::{run, RunConfig};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`.
fn declared(document: &Json, section: &str) -> Vec<(String, String)> {
    document
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

fn smoke(workload: &str, traced: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.2,
        traced,
        elements: 20_000,
        ops_scale: 0.02,
    }
}

#[test]
fn every_workload_emits_every_declared_metric_and_nothing_fails() {
    let document = benchmark_json();
    let workloads: Vec<String> = document
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(
        workloads,
        spec::WORKLOADS.map(|w| w.name.to_string()).to_vec()
    );

    for workload in &workloads {
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(&smoke(workload, traced))
                .unwrap_or_else(|e| panic!("{workload} traced={traced}: {e}"));
            let context = format!("{workload} traced={traced}\n{}", listing(&result));
            assert_eq!(result.checker.failed, 0, "{context}");
            assert!(result.checker.attempted >= 1, "{context}");

            // Exactly the declared metrics, once each, in order, in unit.
            let emitted: Vec<(String, String)> = result
                .metrics
                .iter()
                .map(|(m, _)| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, declared(&document, section), "{context}");
            for (metric, value) in &result.metrics {
                assert!(value.is_finite(), "{} = {value}\n{context}", metric.name);
                if !traced {
                    assert!(*value > 0.0, "{} = {value}\n{context}", metric.name);
                }
            }
            // Beside them, the user-facing metrics of this workload alone.
            let own: Vec<&str> = result.specific.iter().map(|(m, _)| m.name).collect();
            let expected: Vec<&str> = if traced {
                Vec::new()
            } else {
                spec::workload_specific(workload).map(|m| m.name).collect()
            };
            assert_eq!(own, expected, "{context}");
            for (metric, value) in &result.specific {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{} = {value}\n{context}",
                    metric.name
                );
            }
            assert_eq!(result.trace.is_some(), traced);

            // The last line of output is the driver's result object.
            let line = Json::parse(&result_line(&result)).expect("result line parses");
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
            assert_eq!(metrics.len(), result.metrics.len());
            for (_, entry) in metrics {
                assert!(entry.get("value").and_then(Json::as_f64).is_some());
                assert!(entry.get("unit").and_then(Json::as_str).is_some());
            }
        }
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    // The deterministic columns of the ladder: same seed, same counts.
    let a = run(&smoke("resident_reads", true)).unwrap();
    let b = run(&smoke("resident_reads", true)).unwrap();
    let mut compared = 0;
    for ((metric, x), (_, y)) in a.metrics.iter().zip(&b.metrics) {
        if metric.exact {
            assert_eq!(x, y, "{} changed between identical runs", metric.name);
            compared += 1;
        }
    }
    assert!(compared >= 8, "only {compared} exact metrics compared");
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run(&smoke("no_such_workload", false)).is_err());
}
