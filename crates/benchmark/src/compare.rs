//! `compare <a.jsonl> <b.jsonl>`: gates two result sets of one seed
//! (files written with `run --out`) on every user-facing metric.
//!
//! For every workload and every metric it reports, the medians of the two
//! sides are compared against the metric's band ([`UserMetric::band`]) —
//! a ratio band, since times never repeat exactly. Where either side's
//! own run-to-run spread is wider than the band the verdict is
//! `unresolved`, not `ok`, unless every run of `b` reads better than
//! every run of `a`. Counts that are deterministic for a seed — the
//! serial cold page counts, the bytes of a bulk-load, the traced runs'
//! page and record counts — must match exactly.

use crate::json::Json;
use crate::spec::{self, Better, UserMetric};
use crate::stats;
use std::collections::BTreeMap;

/// One side's runs of one workload: metric name → one value per run.
type Runs = BTreeMap<String, Vec<f64>>;

/// The records of one result file, grouped for comparison.
#[derive(Debug, Default)]
pub struct ResultSet {
    /// Untraced runs: workload → metric → values.
    pub untraced: BTreeMap<String, Runs>,
    /// Traced runs: (workload, seed) → metric → values.
    pub traced: BTreeMap<(String, u64), Runs>,
    /// Records whose `correct` flag was false.
    pub incorrect: usize,
}

/// Parses a `--out` file: one JSON record per line.
pub fn parse_results(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let field = |name: &str| {
            record
                .get(name)
                .ok_or_else(|| format!("line {}: no {name:?} field", number + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let traced = field("traced")?.as_bool().unwrap_or(false);
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        if field("correct")?.as_bool() != Some(true) {
            set.incorrect += 1;
        }
        let runs = if traced {
            set.traced.entry((workload, seed)).or_default()
        } else {
            set.untraced.entry(workload).or_default()
        };
        for section in ["metrics", "specific"] {
            for (name, entry) in field(section)?.as_obj().unwrap_or_default() {
                if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                    runs.entry(name.clone()).or_default().push(value);
                }
            }
        }
    }
    Ok(set)
}

/// The outcome for one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the band (or better), or an exact count that held.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the band.
    Regression,
    /// Spread exceeds the band, so the comparison decides nothing.
    Unresolved,
    /// A count that must repeat exactly differs between or within sides.
    CountChanged,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The wider of the two sides' own run-to-run spreads (0 with fewer
/// than two runs a side).
fn spread_of(a: &[f64], b: &[f64]) -> f64 {
    [a, b]
        .iter()
        .filter_map(|runs| stats::relative_spread(runs))
        .fold(0.0, f64::max)
}

/// Judges `metric` on `workload` from both sides' runs.
pub fn judge(metric: &UserMetric, workload: &str, a: &[f64], b: &[f64]) -> Verdict {
    if metric.exact_on.contains(&workload) {
        return if a.iter().chain(b).all(|v| *v == a[0]) {
            Verdict::Ok
        } else {
            Verdict::CountChanged
        };
    }
    let better = metric.spec.better;
    if spread_of(a, b) > metric.band {
        let b_always_better = a
            .iter()
            .all(|x| b.iter().all(|y| worsening(better, *x, *y) < 0.0));
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(better, stats::median(a), stats::median(b)) > metric.band {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// Compares two result sets; returns the report and whether anything
/// regressed (or a deterministic count changed).
pub fn compare(a: &ResultSet, b: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut failed = false;
    let mut unresolved = 0;
    out.push_str(&format!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "a median", "b median", "worse%", "band%", "spread%"
    ));
    for workload in spec::WORKLOADS.map(|w| w.name) {
        let (Some(runs_a), Some(runs_b)) = (a.untraced.get(workload), b.untraced.get(workload))
        else {
            continue;
        };
        for metric in spec::USER_METRICS
            .iter()
            .filter(|m| m.on.contains(&workload))
        {
            let name = metric.spec.name;
            let (Some(va), Some(vb)) = (runs_a.get(name), runs_b.get(name)) else {
                continue;
            };
            let verdict = judge(metric, workload, va, vb);
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let band = if metric.exact_on.contains(&workload) {
                "exact".to_string()
            } else {
                format!("{:.1}", metric.band * 100.0)
            };
            out.push_str(&format!(
                "{:<16} {:<24} {:>14.4} {:>14.4} {:>8.2} {:>7} {:>7.2}  {}\n",
                workload,
                name,
                ma,
                mb,
                worsening(metric.spec.better, ma, mb) * 100.0,
                band,
                spread_of(va, vb) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                    Verdict::CountChanged => "COUNT CHANGED",
                }
            ));
            failed |= matches!(verdict, Verdict::Regression | Verdict::CountChanged);
            unresolved += usize::from(verdict == Verdict::Unresolved);
        }
    }
    // Deterministic counts of traced runs with the same seed on both sides.
    let mut counts_checked = 0;
    for (key, runs_a) in &a.traced {
        let Some(runs_b) = b.traced.get(key) else {
            continue;
        };
        for metric in spec::per_layer_metrics().filter(|m| m.exact) {
            let (Some(va), Some(vb)) = (runs_a.get(metric.name), runs_b.get(metric.name)) else {
                continue;
            };
            counts_checked += 1;
            if va.iter().chain(vb).any(|v| *v != va[0]) {
                out.push_str(&format!(
                    "{:<16} {:<24} {:>14.4} {:>14.4} {:>8} {:>7} {:>7}  COUNT CHANGED (traced, seed {})\n",
                    key.0, metric.name, va[0], vb[0], "-", "exact", "-", key.1
                ));
                failed = true;
            }
        }
    }
    out.push_str(&format!(
        "{counts_checked} traced counts compared exactly; {unresolved} unresolved; \
         {} incorrect runs in a, {} in b\n",
        a.incorrect, b.incorrect
    ));
    failed |= a.incorrect + b.incorrect > 0;
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn banded(better: Better) -> UserMetric {
        UserMetric {
            spec: spec::MetricSpec {
                name: "m",
                unit: "x",
                better,
                bound: None,
                exact: false,
            },
            on: &["w", "serial"],
            band: 0.10,
            exact_on: &["serial"],
        }
    }

    #[test]
    fn verdicts_follow_the_band_and_the_spread() {
        let latency = banded(Better::Lower);
        let judge = |metric: &UserMetric, a: &[f64], b: &[f64]| super::judge(metric, "w", a, b);
        let quiet = [100.0, 101.0, 99.0];
        assert_eq!(judge(&latency, &quiet, &[105.0, 104.0, 106.0]), Verdict::Ok);
        assert_eq!(
            judge(&latency, &quiet, &[115.0, 114.0, 116.0]),
            Verdict::Regression
        );
        assert_eq!(judge(&latency, &quiet, &[50.0, 51.0, 49.0]), Verdict::Ok);
        // Spread wider than the band: nothing can be concluded …
        let noisy = [100.0, 140.0, 80.0];
        assert_eq!(
            judge(&latency, &noisy, &[105.0, 150.0, 70.0]),
            Verdict::Unresolved
        );
        // … unless every b run beats every a run.
        assert_eq!(judge(&latency, &noisy, &[60.0, 70.0, 50.0]), Verdict::Ok);
        let rate = banded(Better::Higher);
        assert_eq!(
            judge(&rate, &[1000.0, 1001.0], &[850.0, 851.0]),
            Verdict::Regression
        );
        assert_eq!(
            judge(&rate, &[1000.0, 1001.0], &[1200.0, 1201.0]),
            Verdict::Ok
        );
        // Single runs have no spread; the medians decide.
        assert_eq!(judge(&latency, &[100.0], &[120.0]), Verdict::Regression);
        // Where the metric is a deterministic count, only equality passes:
        // a 1 % rise is inside any band and still a change.
        assert_eq!(
            super::judge(&latency, "serial", &[221.5, 221.5], &[221.5]),
            Verdict::Ok
        );
        assert_eq!(
            super::judge(&latency, "serial", &[221.5, 221.5], &[223.7]),
            Verdict::CountChanged
        );
        assert_eq!(judge(&latency, &[221.5, 221.5], &[223.7]), Verdict::Ok);
    }

    fn record(
        workload: &str,
        traced: bool,
        seed: u64,
        section: &str,
        name: &str,
        value: f64,
    ) -> String {
        let metrics = Json::obj([(
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str("x"))]),
        )]);
        let (m, s) = if section == "metrics" {
            (metrics, Json::Obj(vec![]))
        } else {
            (Json::Obj(vec![]), metrics)
        };
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("traced", Json::Bool(traced)),
            ("correct", Json::Bool(true)),
            ("metrics", m),
            ("specific", s),
        ])
        .to_line()
    }

    #[test]
    fn compares_files_per_workload_and_checks_counts_exactly() {
        let a = [
            record("resident_reads", false, 42, "specific", "sn_p50_us", 100.0),
            record("resident_reads", false, 42, "specific", "sn_p50_us", 102.0),
            record(
                "resident_reads",
                false,
                42,
                "metrics",
                "phys_reads_per_query",
                221.5,
            ),
            record("join_analytics", false, 42, "specific", "join_s", 0.10),
            record(
                "resident_reads",
                true,
                42,
                "metrics",
                "cache.logical_reads_per_query",
                424.0,
            ),
        ]
        .join("\n");
        let same = parse_results(&a).unwrap();
        let (report, failed) = compare(&same, &same);
        assert!(!failed, "{report}");
        assert!(report.contains("1 traced counts compared"));

        let b = [
            record("resident_reads", false, 42, "specific", "sn_p50_us", 100.0),
            record(
                "resident_reads",
                false,
                42,
                "metrics",
                "phys_reads_per_query",
                223.0,
            ),
            record("join_analytics", false, 42, "specific", "join_s", 0.14),
            record(
                "resident_reads",
                true,
                42,
                "metrics",
                "cache.logical_reads_per_query",
                425.0,
            ),
        ]
        .join("\n");
        let (report, failed) = compare(&same, &parse_results(&b).unwrap());
        assert!(failed);
        assert!(
            report.contains("join_s") && report.contains("REGRESSION"),
            "{report}"
        );
        assert_eq!(report.matches("COUNT CHANGED").count(), 2, "{report}");
        assert!(parse_results("{not json").is_err());
    }
}
