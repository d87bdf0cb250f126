//! Rendering a [`RunResult`]: the human-readable listing, the one-line
//! result object the acceptance driver reads, and the full record that
//! `--out` appends and `compare` reads back.

use crate::json::Json;
use crate::spec::{self, MetricSpec};
use crate::workloads::RunResult;

fn metrics_json(metrics: &[(&'static MetricSpec, f64)]) -> Json {
    Json::obj(metrics.iter().map(|(m, value)| {
        (
            m.name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// The result object printed as the last line of standard output:
/// exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(result: &RunResult) -> String {
    Json::obj([
        ("correct", Json::Bool(result.checker.failed == 0)),
        ("attempted", Json::Num(result.checker.attempted as f64)),
        ("failed", Json::Num(result.checker.failed as f64)),
        ("metrics", metrics_json(&result.metrics)),
    ])
    .to_line()
}

/// Who measured: recorded with `--out` so a stored result says where it
/// came from.
pub fn environment() -> Json {
    let command_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

/// The full record of a run: configuration, outcome, contract metrics,
/// workload-specific metrics and (for traced runs) the span summary.
pub fn record(result: &RunResult, environment: Json) -> Json {
    let config = &result.config;
    Json::obj([
        ("workload", Json::str(config.workload.as_str())),
        ("seed", Json::Num(config.seed as f64)),
        ("seconds", Json::Num(config.seconds)),
        ("traced", Json::Bool(config.traced)),
        ("elements", Json::Num(config.elements as f64)),
        ("ops_scale", Json::Num(config.ops_scale)),
        ("environment", environment),
        ("correct", Json::Bool(result.checker.failed == 0)),
        ("attempted", Json::Num(result.checker.attempted as f64)),
        ("failed", Json::Num(result.checker.failed as f64)),
        ("metrics", metrics_json(&result.metrics)),
        ("specific", metrics_json(&result.specific)),
        ("trace", result.trace.clone().unwrap_or(Json::Null)),
    ])
}

/// The human-readable listing: a header, one line per metric with its
/// unit, the notes (sample counts, layer table), and any failures.
pub fn listing(result: &RunResult) -> String {
    let config = &result.config;
    let mut out = format!(
        "# flat-benchmark {} seed={} seconds={} trace={} elements={} ops_scale={} nproc={}\n",
        config.workload,
        config.seed,
        config.seconds,
        u8::from(config.traced),
        config.elements,
        config.ops_scale,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut line = |m: &MetricSpec, value: f64, tag: &str| {
        out.push_str(&format!(
            "{:<40} {:>16.4} {}{}\n",
            m.name, value, m.unit, tag
        ));
    };
    // User-facing metrics carry the band `compare` holds them to on this
    // workload; per-layer metrics carry nothing.
    let workload = config.workload.as_str();
    for (m, value) in result.metrics.iter().chain(&result.specific) {
        let tag = match spec::user_metric(m.name) {
            Some(user) if user.exact_on.contains(&workload) => "   [exact for a seed]".into(),
            Some(user) => format!("   [band {:.0} %]", user.band * 100.0),
            None => String::new(),
        };
        line(m, *value, &tag);
    }
    for note in &result.notes {
        out.push_str(&format!("# {note}\n"));
    }
    out.push_str(&format!(
        "# failed_ops {} of {} attempted\n",
        result.checker.failed, result.checker.attempted
    ));
    for message in &result.checker.messages {
        out.push_str(&format!("# FAILED: {message}\n"));
    }
    out
}
