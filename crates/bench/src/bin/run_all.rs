//! Regenerates the paper's tables and figures: `run_all [suite]`.
//!
//! With no argument every suite of `flat_bench::figures::SUITES` runs in
//! order; with a suite name only that one does. `--list` prints the
//! suites. An unknown suite or a malformed scale knob exits 2.
//!
//! Respects `FLAT_SCALE`, `FLAT_QUERIES`, `FLAT_TAIL`, `FLAT_RESULTS_DIR`
//! and (for `build-scale`) `FLAT_SPILL_BUDGET`.
use flat_bench::figures::{Context, SUITES};
use flat_bench::Scale;
use std::process::exit;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suites: Vec<_> = match args.as_slice() {
        [] => SUITES.iter().collect(),
        [flag] if matches!(flag.as_str(), "--list" | "--help" | "-h") => {
            println!("usage: run_all [suite]   (no suite: run all of them)");
            println!(
                "Env knobs: FLAT_SCALE, FLAT_QUERIES, FLAT_TAIL, FLAT_RESULTS_DIR, FLAT_SPILL_BUDGET."
            );
            println!("Suites:");
            for suite in SUITES {
                println!("  {:<15} {}", suite.name, suite.section);
            }
            return;
        }
        [name] => match SUITES.iter().find(|s| s.name == name.as_str()) {
            Some(suite) => vec![suite],
            None => {
                eprintln!("unknown suite {name:?}; try --list");
                exit(2);
            }
        },
        _ => {
            eprintln!("usage: run_all [suite]; try --list");
            exit(2);
        }
    };
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("run_all: {e}");
        exit(2);
    });

    let start = Instant::now();
    println!(
        "FLAT reproduction (densities {:?}, {} queries per workload)\n",
        scale.densities, scale.queries
    );
    let ctx = Context::new(scale);
    for suite in suites {
        println!("=== {}: {} ===\n", suite.name, suite.section);
        for table in (suite.run)(&ctx) {
            table.emit();
        }
    }
    println!(
        "Done in {:.1}s. CSVs in {}.",
        start.elapsed().as_secs_f64(),
        flat_bench::report::results_dir().display()
    );
}
