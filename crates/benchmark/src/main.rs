//! Command line of the benchmark.
//!
//! ```text
//! flat-benchmark run [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>]
//!                    [--ops-scale <x>] [--out <file>]
//! flat-benchmark compare <a.jsonl> <b.jsonl>
//! flat-benchmark spec
//! ```
//!
//! `run` prints every metric by name with its unit and ends its standard
//! output with one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`); it exits non-zero when any operation failed or diverged
//! from its oracle. Without `--workload` it runs all four in turn. A traced
//! run also writes its span summary to
//! `target/flat-benchmark/trace-<workload>.json` under the current directory.

use flat_benchmark::json::Json;
use flat_benchmark::workloads::{self, RunConfig};
use flat_benchmark::{compare, report, spec};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  flat-benchmark run [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>]
                     [--ops-scale <x>] [--out <file>]
  flat-benchmark compare <a.jsonl> <b.jsonl>
  flat-benchmark spec";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    ops_scale: f64,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        ops_scale: 1.0,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot parse {text:?}"))
        }
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = number(flag, value()?)?,
            "--seconds" => parsed.seconds = number(flag, value()?)?,
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--ops-scale" => parsed.ops_scale = number(flag, value()?)?,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if !(parsed.ops_scale > 0.0 && parsed.ops_scale.is_finite()) {
        return Err("--ops-scale must be positive".into());
    }
    Ok(parsed)
}

/// Where a traced run's span summary goes: under `target/`, which the
/// repository already ignores.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from("target/flat-benchmark").join(format!("trace-{workload}.json"))
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let names: Vec<String> = match &args.workload {
        Some(name) => vec![name.clone()],
        None => spec::WORKLOADS.map(|w| w.name.to_string()).to_vec(),
    };
    let environment = args.out.as_ref().map(|_| report::environment());
    let mut all_correct = true;
    for name in names {
        let config = RunConfig {
            ops_scale: args.ops_scale,
            ..RunConfig::new(&name, args.seed, args.seconds, args.traced)
        };
        let result = workloads::run(&config)?;
        all_correct &= result.checker.failed == 0;
        if let (Some(path), Some(environment)) = (&args.out, &environment) {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            writeln!(
                file,
                "{}",
                report::record(&result, environment.clone()).to_line()
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        if let Some(trace) = &result.trace {
            let path = trace_path(&config.workload);
            let document = Json::obj([
                ("workload", Json::str(config.workload.as_str())),
                ("seed", Json::Num(config.seed as f64)),
                ("elements", Json::Num(config.elements as f64)),
                ("spans", trace.clone()),
            ]);
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(&path, document.to_pretty())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        // One write, so the result object is the last line even if
        // something else shares the stream.
        let mut text = report::listing(&result);
        text.push_str(&report::result_line(&result));
        text.push('\n');
        std::io::stdout()
            .write_all(text.as_bytes())
            .map_err(|e| format!("stdout: {e}"))?;
    }
    Ok(all_correct)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two result files".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse_results(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (report, failed) = compare::compare(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(!failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => run(rest),
        Some((command, rest)) if command == "compare" => compare_files(rest),
        Some((command, [])) if command == "spec" => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
