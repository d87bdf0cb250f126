//! Differential tests for the dynamic-update layer: after **any** scripted
//! insert/delete/compact sequence, every range and kNN query over the
//! updated `DeltaIndex` must return exactly what a from-scratch
//! `FlatIndex::build` over the surviving entries returns — and after
//! `compact()`, the pages themselves must be byte-identical to that
//! rebuild.
//!
//! This is the same bit-level discipline every prior layer was pinned by
//! (batched == serial, streamed == in-memory), extended to mutation.

use flat_repro::prelude::*;

mod common;
use common::{fresh_entries, Harness, Op};

fn run_script(initial: Vec<Entry>, domain: Aabb, seed: u64) {
    let mut harness = Harness::new(initial, domain);
    harness.assert_equivalent(seed);

    let ids: Vec<u64> = harness.survivors.keys().copied().collect();
    let script = vec![
        // Spread deletes, then a batch of fresh inserts.
        Op::Delete(ids.iter().copied().filter(|i| i % 7 == 0).collect()),
        Op::Insert(fresh_entries(600, 1_000_000, &domain, seed ^ 1)),
        // Delete from both base and delta generations, insert again.
        Op::Delete(
            ids.iter()
                .copied()
                .filter(|i| i % 5 == 1)
                .chain((1_000_000..1_000_200).step_by(3))
                .collect(),
        ),
        Op::Insert(fresh_entries(400, 2_000_000, &domain, seed ^ 2)),
        // Kill a whole spatial stripe: partitions retire, links repair.
        Op::Delete(
            harness
                .survivors
                .values()
                .filter(|e| e.mbr.center().x < domain.min.x + domain.extents().x * 0.25)
                .map(|e| e.id)
                .collect(),
        ),
        Op::Compact,
        // Keep going after compaction: the adopted index must be as
        // mutable as the original.
        Op::Insert(fresh_entries(300, 3_000_000, &domain, seed ^ 3)),
        Op::Delete((3_000_000..3_000_150).collect()),
        Op::Compact,
    ];
    for (i, op) in script.iter().enumerate() {
        harness.apply(op);
        harness.assert_equivalent(seed ^ (i as u64) << 8);
    }
    // The structural invariants held all along (spot-check at the end).
    harness
        .delta
        .check_invariants(&harness.pool, &harness.pool.store().free_pages())
        .unwrap_or_else(|e| panic!("invariants violated at script end: {e}"));
}

#[test]
fn neuron_workload_updates_match_rebuilds() {
    let config = NeuronConfig::bbp(8, 900, 1301);
    let model = NeuronModel::generate(&config);
    run_script(model.entries(), config.domain, 9001);
}

#[test]
fn uniform_workload_updates_match_rebuilds() {
    let domain = Aabb::new(Point3::splat(0.0), Point3::splat(200.0));
    let entries = uniform_entries(&UniformConfig {
        count: 7_000,
        domain,
        element_volume: 2.0,
        length_range: (1.0, 3.0),
        seed: 1302,
    });
    run_script(entries, domain, 9002);
}

#[test]
fn churn_workload_stays_equivalent_across_timesteps() {
    // The evolving-simulation scenario end to end: the data crate's churn
    // generator drives the delta layer; every timestep stays
    // query-equivalent to a rebuild over the generator's live set.
    let domain = Aabb::new(Point3::splat(0.0), Point3::splat(120.0));
    let entries = uniform_entries(&UniformConfig {
        count: 5_000,
        domain,
        element_volume: 1.0,
        length_range: (1.0, 2.0),
        seed: 1303,
    });
    let mut churn = ChurnWorkload::new(entries.clone(), domain, ChurnConfig::steady(400, 77));
    let mut harness = Harness::new(entries, domain);
    for step in 0..4 {
        let batch = churn.step();
        harness.apply(&Op::Delete(batch.deletes.clone()));
        harness.apply(&Op::Insert(batch.inserts.clone()));
        assert_eq!(
            harness.survivors.len(),
            churn.live().len(),
            "ground truths disagree at step {step}"
        );
        harness.assert_equivalent(4000 + step);
    }
    harness.apply(&Op::Compact);
    harness.assert_equivalent(4999);
}
