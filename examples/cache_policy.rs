//! Cache-policy ledger: records the logical page reads of the
//! `device_reads` benchmark script and replays them under four
//! replacement rules, printing misses per page kind as JSON.
//!
//! For each of seeds 42 and 7 it bulkloads the benchmark's neuron dataset
//! into one index, runs the whole script (SN, LSS and kNN, as the
//! benchmark issues them) one operation after another through a cold
//! zero-worker cache with as many frames as the benchmark's two shard
//! caches together, and replays the recorded trace under
//!
//! * `lru_16_shards` — plain LRU in each of the cache's 16 lock shards
//!   (the rule before element pages went cold);
//! * `lru_global` — plain LRU over one list of the same frames;
//! * `min_16_shards` — Belady's MIN in each lock shard, the fewest misses
//!   any rule over those shards can get;
//! * `elements_cold_16_shards` — the cache's rule: a read sends an object
//!   page to the cold end of its shard's LRU, any other read to the hot
//!   end. The program checks that this replay equals the misses of the
//!   cache itself (`cache`).
//!
//! A serial trace is a bound on what a rule can do with these reads, not
//! the benchmark's concurrent run: there, two clients interleave, kNN
//! visits both shards of a `ShardedDb`, and announced fetches land while
//! other reads go on.
//!
//! ```sh
//! cargo run --release --example cache_policy            # 450 000 elements
//! cargo run --release --example cache_policy -- 60000   # a quick run
//! ```

#[path = "../tests/common/cache_replay.rs"]
mod cache_replay;

use cache_replay::{distinct, elements_cold, global_lru, min, reads, record, sharded_lru, PerKind};
use flat_benchmark::inputs::{neuron_dataset, script, OpKind};
use flat_benchmark::workloads::{device, DEFAULT_ELEMENTS};
use flat_repro::prelude::*;

const SEEDS: [u64; 2] = [42, 7];

fn main() {
    let elements = match std::env::args().nth(1).map(|arg| arg.parse::<usize>()) {
        None => DEFAULT_ELEMENTS,
        Some(Ok(elements)) if elements > 0 => elements,
        Some(_) => {
            eprintln!("usage: cache_policy [elements, at least 1]");
            std::process::exit(2)
        }
    };
    let runs: Vec<String> = SEEDS.iter().map(|&seed| seed_run(elements, seed)).collect();
    println!("[\n{}\n]", runs.join(",\n"));
}

/// One seed's record and replays, as a JSON object.
fn seed_run(elements: usize, seed: u64) -> String {
    let data = neuron_dataset(elements, seed);
    let ops = script(&data.domain, seed, device::SCRIPT_COUNTS);
    let frames = device::SHARDS * device::pool_pages(elements);
    let run = record(&data, &ops, |_| frames);
    let rule = elements_cold(&run.trace, run.capacity);
    assert_eq!(
        rule, run.cache,
        "the replay of the cache's rule is not the cache"
    );

    let count = |kind: OpKind| ops.iter().filter(|op| op.kind() == kind).count();
    let per_op = |misses: &PerKind| misses.total() as f64 / ops.len() as f64;
    let rules = [
        ("lru_16_shards", sharded_lru(&run.trace, run.capacity)),
        ("lru_global", global_lru(&run.trace, run.capacity)),
        ("min_16_shards", min(&run.trace, run.capacity)),
        ("elements_cold_16_shards", rule),
        ("cache", run.cache),
    ];
    let misses: Vec<String> = rules
        .iter()
        .map(|(name, m)| {
            format!(
                "      \"{name}\": {{{}, \"per_op\": {:.2}}}",
                kinds(m),
                per_op(m)
            )
        })
        .collect();
    format!(
        "  {{\n    \"seed\": {seed},\n    \"elements\": {elements},\n    \
         \"ops\": {{\"sn\": {}, \"lss\": {}, \"knn\": {}}},\n    \
         \"index_pages\": {},\n    \"frames\": {},\n    \"frames_per_lock_shard\": {},\n    \
         \"reads\": {{{}}},\n    \"distinct_pages\": {{{}}},\n    \
         \"misses\": {{\n{}\n    }}\n  }}",
        count(OpKind::Sn),
        count(OpKind::Lss),
        count(OpKind::Knn),
        run.index_pages,
        run.capacity,
        cache_replay::shard_frames(run.capacity),
        kinds(&reads(&run.trace)),
        kinds(&distinct(&run.trace)),
        misses.join(",\n"),
    )
}

/// `"kind": count` for the kinds a FLAT query reads, plus the total.
fn kinds(counts: &PerKind) -> String {
    let kinds = [
        PageKind::SeedInner,
        PageKind::SeedLeaf,
        PageKind::ObjectPage,
    ];
    let mut fields: Vec<String> = kinds
        .iter()
        .map(|&kind| format!("\"{}\": {}", kind.label(), counts.of(kind)))
        .collect();
    fields.push(format!("\"total\": {}", counts.total()));
    fields.join(", ")
}
