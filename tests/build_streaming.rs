//! Bulkload byte-identity: `FlatIndex::build` (nothing spills) and a
//! `FlatIndexBuilder` forced to spill must produce a **bit-identical**
//! index — same page ids, same page bytes — on the paper's dataset
//! families, and both must hit the page digests recorded below. The built
//! indexes must also answer queries identically, which pins the
//! equivalence end to end. A fixed script of inserts and deletes over a
//! bulkload is pinned to a recorded digest too.

use flat_repro::core::meta::{
    decode_meta_record, max_neighbors_per_record, meta_leaf_len, MetaRecordId,
};
use flat_repro::core::MetaOrder;
use flat_repro::prelude::*;

mod common;
use common::store_digest;

/// Byte dump of every page in the pool's store, in allocation order.
fn pages_of(pool: &ConcurrentBufferPool<MemStore>) -> Vec<Vec<u8>> {
    let store = pool.store();
    let mut page = Page::new();
    (0..store.num_pages())
        .map(|i| {
            store.read_page(PageId(i), &mut page).unwrap();
            page.bytes().to_vec()
        })
        .collect()
}

type UnspilledBuild = (ConcurrentBufferPool<MemStore>, FlatIndex);
type SpilledBuild = (ConcurrentBufferPool<MemStore>, FlatIndex, StreamingStats);

/// Builds `entries` through `FlatIndex::build` and through a builder
/// with `spill_budget`, and asserts page-level identity; returns the two
/// (pool, index) pairs for further checks.
fn build_both(
    entries: Vec<Entry>,
    options: FlatOptions,
    spill_budget: usize,
) -> (UnspilledBuild, SpilledBuild) {
    let mut pool_whole = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index_whole, _) = FlatIndex::build(&mut pool_whole, entries.clone(), options).unwrap();

    let mut pool_spilled = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index_spilled, _, streaming) = FlatIndexBuilder::new(options)
        .spill_budget(spill_budget)
        .build(&mut pool_spilled, entries)
        .unwrap();

    let whole_pages = pages_of(&pool_whole);
    let spilled_pages = pages_of(&pool_spilled);
    assert_eq!(
        spilled_pages.len(),
        whole_pages.len(),
        "page counts differ between budgets"
    );
    for (i, (a, b)) in spilled_pages.iter().zip(&whole_pages).enumerate() {
        assert_eq!(a, b, "page {i} differs between budgets");
    }

    (
        (pool_whole, index_whole),
        (pool_spilled, index_spilled, streaming),
    )
}

#[test]
fn neuron_dataset_builds_bit_identically() {
    let config = NeuronConfig::bbp(30, 400, 42);
    let model = NeuronModel::generate(&config);
    let options = FlatOptions {
        domain: Some(config.domain),
        ..FlatOptions::default()
    };
    // Budget far below the 12k entries: the entry sort spills.
    let (_, (_, _, streaming)) = build_both(model.entries(), options, 1000);
    assert!(streaming.spill.runs > 0, "expected the build to spill");
}

#[test]
fn uniform_dataset_builds_bit_identically() {
    let config = UniformConfig::scaled_baseline(15_000, 7);
    let entries = uniform_entries(&config);
    let options = FlatOptions {
        domain: Some(config.domain),
        ..FlatOptions::default()
    };
    let (_, (_, _, streaming)) = build_both(entries, options, 1200);
    assert!(streaming.spill.runs > 0, "expected the build to spill");
}

#[test]
fn streamed_build_from_a_source_never_materializes_the_dataset() {
    // The real out-of-core path: entries flow straight from the chunked
    // generator into the builder. Compare against the materialized path.
    let config = NeuronConfig::bbp(20, 300, 11);
    let options = FlatOptions {
        domain: Some(config.domain),
        ..FlatOptions::default()
    };

    let model = NeuronModel::generate(&config);
    let mut pool_whole = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (_, _) = FlatIndex::build(&mut pool_whole, model.entries(), options).unwrap();

    let mut pool_spilled = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let source = NeuronSource::new(config).into_entry_iter();
    let (index, stats, streaming) = FlatIndexBuilder::new(options)
        .spill_budget(800)
        .build(&mut pool_spilled, source)
        .unwrap();

    assert_eq!(pages_of(&pool_spilled), pages_of(&pool_whole));
    assert_eq!(index.num_elements(), model.len() as u64);
    assert_eq!(stats.num_partitions as u64, index.num_object_pages());
    // The heavy state stayed bounded: far fewer entries resident than the
    // dataset holds, and only a slab's worth of full partitions.
    assert!(streaming.peak_resident_entries < model.len() as u64 / 2);
    assert!(streaming.peak_resident_partitions < stats.num_partitions as u64);
}

#[test]
fn streamed_index_answers_queries_identically() {
    let config = UniformConfig::scaled_baseline(10_000, 19);
    let entries = uniform_entries(&config);
    let options = FlatOptions {
        domain: Some(config.domain),
        ..FlatOptions::default()
    };
    let ((pool_whole, index_whole), (pool_spilled, index_spilled, _)) =
        build_both(entries, options, 900);

    let queries = range_queries(
        &config.domain,
        &WorkloadConfig {
            count: 40,
            volume_fraction: 1e-3,
            proportion_range: (1.0, 3.0),
            seed: 5,
        },
    );
    for q in &queries {
        let a = index_whole.range_query(&pool_whole, q).unwrap();
        let b = index_spilled.range_query(&pool_spilled, q).unwrap();
        assert_eq!(a, b, "query {q} disagrees between budgets");
    }
}

#[test]
fn meta_order_and_inflation_options_stay_bit_identical() {
    let config = UniformConfig::scaled_baseline(6_000, 23);
    let entries = uniform_entries(&config);
    for options in [
        FlatOptions {
            meta_order: MetaOrder::StrOutput,
            ..FlatOptions::default()
        },
        FlatOptions {
            partition_volume_scale: 1.5,
            ..FlatOptions::default()
        },
    ] {
        build_both(entries.clone(), options, 700);
    }
}

// ---------------------------------------------------------------------
// Golden page digests
// ---------------------------------------------------------------------
//
// The byte reference of the bulkload. The digests were recorded at commit
// b584c5c, where `FlatIndex::build` was still a second, fully in-memory
// implementation (STR over the whole vector, neighbors from a temporary
// R-tree) that every build test compared the pipeline against; they pin
// the one pipeline to the bytes that implementation wrote.

/// `n` cubes with centers uniform in `[0, 100)³` and sides in
/// `[0.05, 0.5)`, from a splitmix64 stream — self-contained, so a digest
/// can only move when the bulkload's bytes do.
fn cloud(n: usize, seed: u64) -> Vec<Entry> {
    let mut state = seed;
    let mut unit = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n as u64)
        .map(|id| {
            let center = Point3::new(unit() * 100.0, unit() * 100.0, unit() * 100.0);
            Entry::new(id, Aabb::cube(center, 0.05 + unit() * 0.45))
        })
        .collect()
}

/// Stable ids and a tiling domain wider than the data.
fn with_ids() -> FlatOptions {
    FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(Aabb::new(Point3::splat(-10.0), Point3::splat(160.0))),
        ..FlatOptions::default()
    }
}

/// The recorded builds: name, input, options, a spill budget far below the
/// input's length, and the digest of the built store.
fn golden_matrix() -> Vec<(&'static str, Vec<Entry>, FlatOptions, usize, u64)> {
    let with_ids = with_ids();
    let str_output = FlatOptions {
        meta_order: MetaOrder::StrOutput,
        ..FlatOptions::default()
    };
    let inflated = FlatOptions {
        partition_volume_scale: 1.5,
        ..FlatOptions::default()
    };
    // A few enormous elements stretch their partitions across the whole
    // domain: their neighbor lists overflow one metadata record.
    let mut hubs = cloud(36_000, 5);
    for i in 0..5u64 {
        let (lo, hi) = (
            Point3::splat(1.0 + i as f64),
            Point3::splat(99.0 - i as f64),
        );
        hubs.push(Entry::new(70_000 + i, Aabb::new(lo, hi)));
    }
    vec![
        // > 2048 partitions: the two partition-level sorts spill as well.
        (
            "default, seed 7",
            cloud(200_000, 7),
            FlatOptions::default(),
            4096,
            0x15b0_2444_7ad6_05fb,
        ),
        (
            "default, seed 23",
            cloud(20_000, 23),
            FlatOptions::default(),
            600,
            0x0543_cfaa_094d_ecd1,
        ),
        (
            "ids + domain, seed 7",
            cloud(12_000, 7),
            with_ids,
            900,
            0x1871_ab52_468b_eeb8,
        ),
        (
            "ids + domain, seed 23",
            cloud(12_000, 23),
            with_ids,
            350,
            0x26f2_8023_016c_9625,
        ),
        (
            "STR output order, seed 7",
            cloud(8_000, 7),
            str_output,
            700,
            0xbf9c_a5e8_c2e1_d6ad,
        ),
        (
            "STR output order, seed 23",
            cloud(8_000, 23),
            str_output,
            128,
            0x288a_1d57_bbcf_20c8,
        ),
        (
            "inflated 1.5, seed 7",
            cloud(8_000, 7),
            inflated,
            700,
            0xf00f_22e7_ffeb_69ec,
        ),
        (
            "inflated 1.5, seed 23",
            cloud(8_000, 23),
            inflated,
            128,
            0x3882_1479_e96b_90d7,
        ),
        (
            "duplicate centers",
            (0..500)
                .map(|i| Entry::new(i, Aabb::cube(Point3::splat(5.0), 1.0)))
                .collect(),
            FlatOptions::default(),
            64,
            0x2153_c781_b59f_eaad,
        ),
        (
            "single partition",
            cloud(10, 7),
            FlatOptions::default(),
            4,
            0x73c0_bc44_3b33_5ca5,
        ),
        (
            "continuation records",
            hubs,
            with_ids,
            2000,
            0x93eb_0677_372d_f6e8,
        ),
    ]
}

#[test]
fn every_budget_writes_the_recorded_pages() {
    for (name, entries, options, tiny_budget, digest) in golden_matrix() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, stats) = FlatIndex::build(&mut pool, entries.clone(), options).unwrap();
        assert_eq!(
            store_digest(&*pool.store()),
            digest,
            "{name}: FlatIndex::build wrote {:#018x}",
            store_digest(&*pool.store())
        );
        match name {
            "single partition" => assert_eq!(stats.num_partitions, 1),
            "continuation records" => assert!(
                *stats.neighbor_counts.iter().max().unwrap() as usize > max_neighbors_per_record()
            ),
            _ => {}
        }

        for budget in [usize::MAX, tiny_budget] {
            let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
            let (built, _, streaming) = FlatIndexBuilder::new(options)
                .spill_budget(budget)
                .build(&mut pool, entries.clone())
                .unwrap();
            assert_eq!(built, index, "{name}: descriptor at budget {budget}");
            assert_eq!(
                store_digest(&*pool.store()),
                digest,
                "{name}: pages at budget {budget}"
            );
            let runs = streaming.spill.runs;
            assert_eq!(runs > 0, budget == tiny_budget, "{name}: {runs} runs");
            if name == "default, seed 7" && budget == tiny_budget {
                // The summary and the metadata sort see the same records
                // under the same budget: what is left after the entry
                // sort's runs is twice their run count.
                let entry_runs = entries.len().div_ceil(budget) as u64;
                assert!(
                    runs - entry_runs >= 4,
                    "{name}: the partition-level sorts must merge several runs each"
                );
            }
        }
    }
}

#[test]
fn compaction_writes_the_pages_of_a_fresh_build() {
    let options = with_ids();
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(&mut pool, cloud(9_000, 31), options).unwrap();
    let mut delta = DeltaIndex::new(&pool, index, options).unwrap();
    let inserted: Vec<Entry> = cloud(1_500, 32)
        .into_iter()
        .map(|e| Entry::new(e.id + 100_000, e.mbr))
        .collect();
    delta.insert_batch(&mut pool, inserted.clone()).unwrap();
    let deleted: Vec<u64> = (0..9_000)
        .step_by(7)
        .chain((100_000..101_500).step_by(5))
        .collect();
    delta.delete_batch(&mut pool, &deleted).unwrap();
    delta.compact(&mut pool).unwrap();

    let survivors: Vec<Entry> = cloud(9_000, 31)
        .into_iter()
        .chain(inserted)
        .filter(|e| !deleted.contains(&e.id))
        .collect();
    let mut fresh = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    FlatIndex::build(&mut fresh, survivors, options).unwrap();
    flat_repro::core::verify_compacted_store(&*pool.store(), &*fresh.store())
        .unwrap_or_else(|e| panic!("compaction broke byte identity: {e}"));
    assert_eq!(
        store_digest(&*fresh.store()),
        0xb982_d03f_29c8_ebe5,
        "fresh build over the survivors: {:#018x}",
        store_digest(&*fresh.store())
    );
}

// ---------------------------------------------------------------------
// Golden delta layout
// ---------------------------------------------------------------------

/// Asserts that every metadata record on an allocated page of the store
/// is one the bulkload wrote: its object page is one of the bulkload's
/// (below `base_objects`), so an insert batch wrote no record.
fn assert_every_record_is_the_bulkloads(pool: &ConcurrentBufferPool<MemStore>, base_objects: u64) {
    let store = pool.store();
    let free = store.free_pages();
    let mut page = Page::new();
    let mut records = 0;
    for id in (0..store.num_pages()).map(PageId) {
        if free.contains(&id) {
            continue;
        }
        store.read_page(id, &mut page).unwrap();
        if let Ok(count) = meta_leaf_len(&page) {
            for slot in 0..count as u16 {
                let record = decode_meta_record(&page, slot).unwrap();
                assert!(
                    record.object_page.0 < base_objects,
                    "{:?} describes {}, which the bulkload did not write",
                    MetaRecordId { page: id, slot },
                    record.object_page
                );
                records += 1;
            }
        }
    }
    assert!(records > 0, "the store holds the bulkload's records");
}

/// The byte reference of the update path: two insert batches over a
/// bulkload, which write object pages and nothing else — the second
/// merges the first's level-0 tier, freeing its pages and tiling both
/// batches as one level-1 tier over them — then deletes that retire
/// partitions, which set dead flags in place and free object pages.
/// Recorded at the change that made delta tiers merge like a binary
/// counter.
#[test]
fn updates_write_the_recorded_pages() {
    let options = FlatOptions {
        partition_volume_scale: 1.5,
        ..with_ids()
    };
    // Two elements spanning the data stretch their partitions over every
    // partition of the bulkload.
    let mut base = cloud(6_000, 41);
    base.push(Entry::new(
        90_000,
        Aabb::new(Point3::splat(1.0), Point3::splat(99.0)),
    ));
    base.push(Entry::new(
        90_001,
        Aabb::new(Point3::splat(2.0), Point3::splat(98.0)),
    ));
    let batch = |n: usize, seed: u64, first_id: u64| -> Vec<Entry> {
        cloud(n, seed)
            .into_iter()
            .map(|e| Entry::new(e.id + first_id, e.mbr))
            .collect()
    };

    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
    let (index, _) = FlatIndex::build(&mut pool, base, options).unwrap();
    let base_objects = index.num_object_pages();
    let mut delta = DeltaIndex::new(&pool, index, options).unwrap();
    let (base_pages, base_live) = (pool.store().num_pages(), delta.num_live_partitions());
    delta
        .insert_batch(&mut pool, batch(32_000, 42, 100_000))
        .unwrap();
    delta
        .insert_batch(&mut pool, batch(3_000, 43, 200_000))
        .unwrap();
    let (pages, live) = (pool.store().num_pages(), delta.num_live_partitions());
    assert_eq!(
        delta.tiers(),
        vec![(1, live - base_live)],
        "the second batch merges the first into one tier"
    );
    assert_eq!(
        pages - base_pages,
        (live - base_live) as u64,
        "the merge reuses the pages it freed, and allocates object pages alone"
    );

    let doomed: Vec<u64> = cloud(6_000, 41)
        .into_iter()
        .chain(batch(32_000, 42, 100_000))
        .chain(batch(3_000, 43, 200_000))
        .filter(|e| e.mbr.center().x < 25.0)
        .map(|e| e.id)
        .collect();
    delta.delete_batch(&mut pool, &doomed).unwrap();
    let retired = live - delta.num_live_partitions();
    assert!(retired > 1, "{retired} retired");
    assert_eq!(
        pool.store().num_pages(),
        pages,
        "a retirement allocates nothing"
    );
    assert_eq!(
        pool.store().num_free(),
        retired as u64,
        "each retirement frees its object page"
    );
    delta
        .check_invariants(&pool, &pool.store().free_pages())
        .unwrap();
    assert_every_record_is_the_bulkloads(&pool, base_objects);
    assert_eq!(
        store_digest(&*pool.store()),
        0xc230_32e1_70f0_0f98,
        "updates wrote {:#018x}",
        store_digest(&*pool.store())
    );
}
