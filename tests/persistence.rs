//! End-to-end durability: build indexes into a real file, drop every
//! in-memory handle, reopen the file in a new process-like context, and
//! query — results must match brute force exactly.

use flat_repro::prelude::*;

mod common;
use common::brute_force;

fn dataset() -> (Vec<Entry>, Aabb) {
    let config = NeuronConfig::bbp(8, 500, 77);
    let model = NeuronModel::generate(&config);
    (model.entries(), config.domain)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("flat-repro-persistence");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn flat_index_survives_reopen() {
    let (entries, domain) = dataset();
    let path = temp_path("flat.pages");
    let descriptor;
    {
        let store = FileStore::create(&path).expect("create store");
        let mut pool = ConcurrentBufferPool::new(store, 1 << 12);
        let (index, _) = FlatIndex::build(
            &mut pool,
            entries.clone(),
            FlatOptions {
                domain: Some(domain),
                ..FlatOptions::default()
            },
        )
        .expect("build");
        descriptor = index.save(&mut pool).expect("save");
        // Everything dropped here: pool, index, file handle.
    }
    {
        let store = FileStore::open(&path).expect("reopen store");
        let pool = ConcurrentBufferPool::new(store, 1 << 12);
        let index = FlatIndex::load(&pool, descriptor).expect("load");
        assert_eq!(index.num_elements(), entries.len() as u64);
        for side in [10.0, 40.0, 120.0] {
            let q = Aabb::cube(domain.center(), side);
            assert_eq!(
                index.range_query(&pool, &q).expect("query").len(),
                brute_force(&entries, &q),
                "side {side}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn rtree_survives_reopen() {
    let (entries, domain) = dataset();
    let path = temp_path("rtree.pages");
    let descriptor;
    {
        let store = FileStore::create(&path).expect("create store");
        let mut pool = ConcurrentBufferPool::new(store, 1 << 12);
        let tree = RTree::bulk_load(
            &mut pool,
            entries.clone(),
            BulkLoad::PrTree,
            RTreeConfig::default(),
        )
        .expect("build");
        descriptor = tree.save(&mut pool).expect("save");
    }
    {
        let store = FileStore::open(&path).expect("reopen store");
        let pool = ConcurrentBufferPool::new(store, 1 << 12);
        let tree = RTree::load(&pool, descriptor).expect("load");
        let q = Aabb::cube(domain.center(), 60.0);
        assert_eq!(
            tree.range_query(&pool, &q).expect("query").len(),
            brute_force(&entries, &q)
        );
        // The reloaded tree still validates structurally.
        flat_repro::rtree::validate::check_invariants(&pool, &tree).expect("invariants");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn both_indexes_share_one_file() {
    // FLAT and an R-tree can coexist in the same page file; two
    // descriptors address their respective structures.
    let (entries, domain) = dataset();
    let path = temp_path("shared.pages");
    let (flat_desc, rtree_desc);
    {
        let store = FileStore::create(&path).expect("create store");
        let mut pool = ConcurrentBufferPool::new(store, 1 << 12);
        let (index, _) = FlatIndex::build(
            &mut pool,
            entries.clone(),
            FlatOptions {
                domain: Some(domain),
                ..FlatOptions::default()
            },
        )
        .expect("build flat");
        flat_desc = index.save(&mut pool).expect("save flat");
        let tree = RTree::bulk_load(
            &mut pool,
            entries.clone(),
            BulkLoad::Str,
            RTreeConfig::default(),
        )
        .expect("build rtree");
        rtree_desc = tree.save(&mut pool).expect("save rtree");
    }
    {
        let store = FileStore::open(&path).expect("reopen");
        let pool = ConcurrentBufferPool::new(store, 1 << 12);
        let index = FlatIndex::load(&pool, flat_desc).expect("load flat");
        let tree = RTree::load(&pool, rtree_desc).expect("load rtree");
        let q = Aabb::cube(domain.center(), 45.0);
        let expected = brute_force(&entries, &q);
        assert_eq!(
            index.range_query(&pool, &q).expect("flat query").len(),
            expected
        );
        assert_eq!(
            tree.range_query(&pool, &q).expect("rtree query").len(),
            expected
        );
    }
    std::fs::remove_file(&path).ok();
}

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A tiny persisted database from a fixed-seed generator: its path and
/// the dataset's domain.
fn persist_tiny(name: &str) -> std::path::PathBuf {
    let config = UniformConfig::scaled_baseline(2_000, 42);
    let path = temp_path(name);
    let mut db = FlatDb::create_in_memory(DbOptions::updatable(config.domain));
    db.build_from(uniform_entries(&config)).expect("build");
    db.persist(&path).expect("persist");
    path
}

/// Digest of the file `persist_tiny` writes. Any change to a page format
/// or to the descriptor changes it: bump `DESCRIPTOR_VERSION` in
/// `crates/core/src/persist.rs` and pin the new value here.
const GOLDEN_FILE_DIGEST: u64 = 0x8c6a_1723_89e8_615d;

#[test]
fn persisted_file_matches_its_golden_digest() {
    let path = persist_tiny("golden.flatdb");
    let bytes = std::fs::read(&path).expect("read");
    std::fs::remove_file(&path).ok();
    let got = fnv1a(&bytes);
    assert!(
        got == GOLDEN_FILE_DIGEST,
        "persisted file format changed: {} pages, digest {got:#018x}, pinned \
         {GOLDEN_FILE_DIGEST:#018x}",
        bytes.len() / PAGE_SIZE
    );
}

#[test]
fn unknown_descriptor_version_is_refused() {
    use flat_repro::storage::StorageError;

    let path = persist_tiny("future.flatdb");
    let mut bytes = std::fs::read(&path).expect("read");
    // The descriptor is the last page: magic u32, kind u16, version u16.
    let version_at = bytes.len() - PAGE_SIZE + 6;
    assert_eq!(bytes[version_at..version_at + 2], 1u16.to_le_bytes());
    bytes[version_at..version_at + 2].copy_from_slice(&9u16.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");

    let err = FlatDb::open_file(&path, DbOptions::default()).unwrap_err();
    std::fs::remove_file(&path).ok();
    let FlatError::Storage(StorageError::Corrupt(msg)) = &err else {
        panic!("expected a corrupt-descriptor error, got {err}");
    };
    assert!(
        msg.contains("version 9") && msg.contains("reads version 1"),
        "{msg}"
    );
}
