//! The page cache's replacement rule, pinned against replays of the same
//! reads: a serial structural-neighbourhood + kNN script over neuron data
//! runs through a cold zero-worker cache one eighth of the index, and the
//! recorded trace is replayed under Belady's MIN and under plain LRU in
//! each lock shard (the rule before element pages went cold). Every count
//! is exact: a zero-worker cache fetches each miss on the reading thread,
//! so one script gives one trace and one miss count.

#[path = "common/cache_replay.rs"]
mod cache_replay;

use cache_replay::{elements_cold, min, record, sharded_lru};
use flat_benchmark::inputs::{neuron_dataset, script};
use flat_repro::prelude::*;

/// Neuron segments indexed: large enough that the seed tree and the
/// metadata pages outgrow an eighth of the index.
const ELEMENTS: usize = 60_000;

/// SN and kNN operations of the script (no LSS, no aggregates).
const OPS: [usize; 4] = [300, 0, 300, 0];

#[test]
fn element_pages_go_cold_and_the_cache_misses_far_less_than_lru() {
    let data = neuron_dataset(ELEMENTS, 42);
    let ops = script(&data.domain, 42, OPS);
    let run = record(&data, &ops, |index_pages| index_pages as usize / 8);
    let (real, lru) = (run.cache, sharded_lru(&run.trace, run.capacity));
    let best = min(&run.trace, run.capacity).total();
    // The replay models the cache exactly.
    assert_eq!(elements_cold(&run.trace, run.capacity), real);
    assert!(best <= real.total(), "MIN {best} > the cache's {real:?}");
    assert!(
        real.total() as f64 <= 0.85 * lru.total() as f64,
        "the cache missed {real:?}, LRU {lru:?}: the rule saves under 15 %"
    );
    // Most of the saving is metadata the crawl comes back to.
    assert!(real.of(PageKind::SeedLeaf) < lru.of(PageKind::SeedLeaf));
}
