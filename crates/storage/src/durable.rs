//! The on-store layout of a durable [`crate::VersionedPool`] — page 0 is a
//! header naming the log's two head slots (`[0..8) magic, [8..16) format
//! version, [16..24) slot 0, [24..32) slot 1`) — and its recovery. The
//! pool owns the [`Wal`]; see the [`crate::versioned`] module docs for
//! how checkpoints use it.
//!
//! A crash loses what the batches since the last checkpoint wrote, but
//! the store still counts the pages they, and the log, allocated. Every
//! checkpoint records the store's page count and every page that is free
//! once it completes (the retiring log generation's pages included), and
//! [`recover`] frees each of those pages, and each page at or past the
//! count, that the surviving log does not own: a crash leaks no page.

use crate::wal::{Wal, WalRecord};
use crate::{Page, PageId, PageStore, StorageError};
use std::collections::HashSet;

/// Magic tag identifying the durable-store header page.
const HEADER_MAGIC: u64 = 0x464C_4154_4455_5231; // "FLATDUR1"

/// Durable-store format version. Version 2 added the page count to the
/// checkpoint record.
const HEADER_VERSION: u64 = 2;

/// What opening a durable pool recovered from the log
/// ([`crate::VersionedPool::open_durable`]).
#[derive(Debug)]
pub struct RecoveredLog {
    /// The opaque snapshot stored by the last committed checkpoint.
    pub snapshot: Vec<u8>,
    /// Logical records committed after that checkpoint, oldest first,
    /// for the layer above to replay.
    pub logical: Vec<Vec<u8>>,
    /// Whether a torn or corrupt log tail was detected and truncated.
    pub torn_truncated: bool,
}

/// Lays the header and the log's two slots onto an **empty** store. The
/// log holds no checkpoint yet, so [`recover`] refuses the store until
/// the caller commits one.
pub(crate) fn create_log<S: PageStore>(store: &mut S) -> Result<Wal, StorageError> {
    if store.num_pages() != 0 {
        return Err(StorageError::Corrupt(
            "durable store requires an empty backing store".into(),
        ));
    }
    let header = store.alloc()?;
    debug_assert_eq!(header, PageId(0));
    let wal = Wal::create(store)?;
    let mut page = Page::new();
    page.put_u64(0, HEADER_MAGIC);
    page.put_u64(8, HEADER_VERSION);
    page.put_u64(16, wal.slots()[0].0);
    page.put_u64(24, wal.slots()[1].0);
    store.write_page(header, &page)?;
    store.sync()?;
    Ok(wal)
}

/// Recovers a store left by a previous session (or crash): checks the
/// header, opens the newest log generation holding a committed checkpoint
/// (truncating any torn tail), frees the pages allocated after that
/// checkpoint that the log does not own, redoes its write-back —
/// idempotent, as the crash may have cut it short — and returns the log
/// with the logical records appended after it.
pub(crate) fn recover<S: PageStore>(store: &mut S) -> Result<(Wal, RecoveredLog), StorageError> {
    let mut header = Page::new();
    store
        .read_page(PageId(0), &mut header)
        .map_err(|e| StorageError::Corrupt(format!("durable store header unreadable: {e}")))?;
    if header.get_u64(0) != HEADER_MAGIC {
        return Err(StorageError::Corrupt(
            "not a durable store (header magic mismatch)".into(),
        ));
    }
    if header.get_u64(8) != HEADER_VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported durable store version {}; this build reads version {HEADER_VERSION}",
            header.get_u64(8)
        )));
    }
    let slots = [PageId(header.get_u64(16)), PageId(header.get_u64(24))];
    let (wal, records, torn_truncated) = Wal::open(store, slots)?;

    // `Wal::open` only returns generations holding a checkpoint.
    let last = records.iter().enumerate().rev().find_map(|(i, r)| match r {
        WalRecord::Checkpoint {
            pages,
            free,
            snapshot,
        } => Some((i, *pages, free.clone(), snapshot.clone())),
        _ => None,
    });
    let Some((last_ckpt, pages, free, snapshot)) = last else {
        return Err(StorageError::Corrupt(
            "the durable log holds no checkpoint".into(),
        ));
    };

    // Pages the redo must never touch: the log's own pages (the
    // allocator may have reused ids from the checkpoint's free list for
    // the current log chain), the header, and anything already free on
    // the store.
    let keep: HashSet<u64> = wal.pages().iter().map(|p| p.0).chain([0u64]).collect();
    let free_set: HashSet<u64> = free.iter().copied().collect();
    let mut store_free: HashSet<u64> = store.free_pages().iter().map(|p| p.0).collect();

    // The pages allocated after the checkpoint hold nothing it names: the
    // batches that wrote them are lost (their logical records replay and
    // allocate afresh), and the log's own are kept.
    for page in pages..store.num_pages() {
        if !keep.contains(&page) && store_free.insert(page) {
            store.free_page(PageId(page))?;
        }
    }

    // Redo the write-back: page images in log order (later images of the
    // same page win by overwriting), skipping pages whose content is moot
    // at the checkpoint (free) or owned by the log.
    for record in &records[..last_ckpt] {
        if let WalRecord::PageImage { page, bytes } = record {
            if keep.contains(page) || free_set.contains(page) || store_free.contains(page) {
                continue;
            }
            if *page >= store.num_pages() {
                return Err(StorageError::Corrupt(format!(
                    "WAL image for unallocated page#{page}"
                )));
            }
            store.write_page(PageId(*page), bytes)?;
        }
    }
    // Then the checkpoint's frees (idempotent: the crash may have
    // happened mid-write-back, after some frees already applied).
    for &page in &free {
        if keep.contains(&page) || store_free.contains(&page) || page >= store.num_pages() {
            continue;
        }
        store.free_page(PageId(page))?;
        store_free.insert(page);
    }
    store.sync()?;

    let logical = records[last_ckpt + 1..]
        .iter()
        .filter_map(|r| match r {
            WalRecord::Logical(bytes) => Some(bytes.clone()),
            _ => None,
        })
        .collect();
    Ok((
        wal,
        RecoveredLog {
            snapshot,
            logical,
            torn_truncated,
        },
    ))
}
