//! The repository's benchmark.
//!
//! One command builds seeded inputs, runs a workload through the
//! library's **public** API only, checks every answer against a
//! brute-force oracle, and prints every metric by name with its unit:
//!
//! ```text
//! cargo run --release -p flat-benchmark -- run --workload resident_reads --seed 42 --seconds 20 --trace 0
//! ```
//!
//! * [`spec`] — the contract: four workloads, the user-facing metrics with
//!   their regression bounds, the per-layer metrics (`BENCHMARK.json` is
//!   generated from it).
//! * [`workloads`] — the workloads; each has an untraced run (user-facing
//!   metrics) and a traced run (per-layer metrics).
//! * [`ladder`] — the read ladder: one script entered at every layer from
//!   `PageStore` to `ShardedDb`, self time by subtraction.
//! * [`trace`], [`crash`] — the benchmark-side wrappers around the two
//!   public page traits: `SpanStore`, `SpanPool`, `CrashStore`.
//! * [`oracle`] — brute-force reference answers.
//! * [`compare`] — holds two result sets of one seed to each metric's band.
//!
//! See the crate `README.md` for the metric glossary, what each workload
//! loads and bypasses, and how the metrics are expected to interact.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod crash;
pub mod inputs;
pub mod json;
pub mod ladder;
pub mod oracle;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
