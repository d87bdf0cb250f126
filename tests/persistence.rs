//! End-to-end durability of the one file format: a database file is the
//! logged layout of a durable [`FlatDb`] (header page, write-ahead log,
//! checkpointed pages). Build into a real file, drop every in-memory
//! handle, reopen the file and query — results must match brute force
//! exactly, the bytes must match a recorded digest, and a file that is not
//! a current durable database must be refused without being touched.

use flat_repro::prelude::*;
use flat_repro::storage::StorageError;

mod common;
use common::{brute_force, fnv1a};

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("flat-repro-persistence");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn durable(domain: Aabb) -> DbOptions {
    DbOptions::updatable(domain).with_durability(Durability::Wal)
}

/// A tiny durable database file from a fixed-seed generator, built and
/// checkpointed: its path, its elements and their domain.
fn durable_tiny(name: &str) -> (std::path::PathBuf, Vec<Entry>, Aabb) {
    let config = UniformConfig::scaled_baseline(2_000, 42);
    let entries = uniform_entries(&config);
    let path = temp_path(name);
    let store = FileStore::create(&path).expect("create store");
    let mut db = FlatDb::create_durable(store, durable(config.domain)).expect("create");
    db.build_from(entries.clone()).expect("build");
    db.checkpoint().expect("checkpoint");
    (path, entries, config.domain)
}

/// Digest of the file `durable_tiny` writes. Any change to a page format,
/// the log layout or the checkpoint snapshot (which holds the index
/// descriptor) changes it: bump `SNAPSHOT_VERSION`
/// (`crates/core/src/durable.rs`) or `HEADER_VERSION`
/// (`crates/storage/src/durable.rs`) and pin the new value here.
const GOLDEN_FILE_DIGEST: u64 = 0xce39_2c83_df88_7b0b;

#[test]
fn persisted_file_matches_its_golden_digest() {
    let (path, _, _) = durable_tiny("golden.flatdb");
    let bytes = std::fs::read(&path).expect("read");
    std::fs::remove_file(&path).ok();
    let got = fnv1a(&bytes);
    assert!(
        got == GOLDEN_FILE_DIGEST,
        "database file format changed: {} pages, digest {got:#018x}, pinned \
         {GOLDEN_FILE_DIGEST:#018x}",
        bytes.len() / PAGE_SIZE
    );
}

/// The number or hex digest that follows `marker` in `text`, read with
/// every run of whitespace as one space (so a rewrapped paragraph still
/// matches).
fn value_after(text: &str, marker: &str) -> u64 {
    let text = text.split_whitespace().collect::<Vec<_>>().join(" ");
    let start = text
        .find(marker)
        .unwrap_or_else(|| panic!("{marker:?} is not in the text"))
        + marker.len();
    let token: String = text[start..]
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .filter(|&c| c != '_')
        .collect();
    match token.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => token.parse(),
    }
    .unwrap_or_else(|e| panic!("{marker:?} is followed by {token:?}: {e}"))
}

#[test]
fn the_architecture_doc_quotes_the_current_format_constants() {
    let doc = include_str!("../docs/ARCHITECTURE.md");
    let readme = include_str!("../README.md");
    let storage = include_str!("../crates/storage/src/durable.rs");
    let core = include_str!("../crates/core/src/durable.rs");
    let header = value_after(storage, "const HEADER_VERSION: u64 = ");
    let snapshot = value_after(core, "const SNAPSHOT_VERSION: u16 = ");
    let quotes = [
        (
            "docs/ARCHITECTURE.md",
            [
                (
                    "HEADER_VERSION",
                    value_after(
                        doc,
                        "`HEADER_VERSION` (`crates/storage/src/durable.rs`, now ",
                    ),
                    header,
                ),
                (
                    "SNAPSHOT_VERSION",
                    value_after(doc, "`SNAPSHOT_VERSION` (now "),
                    snapshot,
                ),
                (
                    "GOLDEN_FILE_DIGEST",
                    value_after(doc, "digest of a tiny durable file (`"),
                    GOLDEN_FILE_DIGEST,
                ),
            ],
        ),
        (
            "README.md",
            [
                (
                    "HEADER_VERSION",
                    value_after(readme, "the header's ("),
                    header,
                ),
                (
                    "SNAPSHOT_VERSION",
                    value_after(readme, "the snapshot's ("),
                    snapshot,
                ),
                (
                    "GOLDEN_FILE_DIGEST",
                    value_after(readme, "digest of a tiny durable file (`"),
                    GOLDEN_FILE_DIGEST,
                ),
            ],
        ),
    ];
    for (file, quoted_in_file) in quotes {
        for (name, quoted, actual) in quoted_in_file {
            assert_eq!(
                quoted, actual,
                "{file} quotes {name} as {quoted:#x}, the code has {actual:#x}"
            );
        }
    }
}

#[test]
fn flat_index_survives_reopen() {
    let (path, entries, domain) = durable_tiny("reopen.flatdb");
    let store = FileStore::open(&path).expect("reopen store");
    let (db, report) = FlatDb::open_durable(store, durable(domain)).expect("open");
    assert_eq!(report.replayed, 0, "the checkpoint truncated the log");
    assert_eq!(db.num_live_elements(), entries.len() as u64);
    let reader = db.reader();
    let mut hits = 0;
    for side in [8.0, 30.0, 120.0] {
        let q = Aabb::cube(domain.center(), side);
        let expected = brute_force(&entries, &q);
        assert_eq!(
            reader.range(&q).expect("query").len(),
            expected,
            "side {side}"
        );
        hits += expected;
    }
    assert!(hits > 0, "the ranges must hold elements");
    drop(reader);
    drop(db);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_file_that_is_not_a_current_durable_database_is_refused() {
    let (path, _, domain) = durable_tiny("refused.flatdb");
    let mut future = std::fs::read(&path).expect("read");
    // The header is page 0: magic u64, then the format version u64.
    assert_eq!(future[8..16], 2u64.to_le_bytes());
    // A version-1 file: its checkpoint records lack the page count, and
    // its delta layer may link base records to delta records, which the
    // read path would report twice.
    let mut old = future.clone();
    old[8] = 1;
    future[8] = 9;
    let cases = [
        (
            "a version-1 file",
            old,
            "version 1; this build reads version 2",
        ),
        ("a future header version", future, "version 9"),
        ("an empty file", Vec::new(), "header unreadable"),
        ("zeroed pages", vec![0; 4 * PAGE_SIZE], "magic"),
    ];
    for (name, bytes, names) in cases {
        std::fs::write(&path, &bytes).expect("write");
        let store = FileStore::open(&path).expect("open store");
        let err = FlatDb::open_durable(store, durable(domain))
            .map(drop)
            .unwrap_err();
        let FlatError::Storage(StorageError::Corrupt(msg)) = &err else {
            panic!("{name}: expected a corrupt-file error, got {err}");
        };
        assert!(msg.contains(names), "{name}: {msg}");
        assert!(
            std::fs::read(&path).expect("read") == bytes,
            "{name}: the refused open changed the file"
        );
    }
    std::fs::remove_file(&path).ok();
}
