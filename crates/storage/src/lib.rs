//! Paged storage engine for the FLAT reproduction.
//!
//! The paper's evaluation is entirely I/O-centric: every index stores its
//! data in **4 KB disk pages** (§VII-A), performance is reported as the
//! number of *page reads* (with OS caches cleared before each query), and
//! the breakdown figures classify each read by which structure the page
//! belongs to (R-tree leaf vs non-leaf; FLAT seed tree vs metadata vs object
//! pages). This crate is the substrate that makes those measurements
//! possible:
//!
//! * [`Page`] — a fixed 4 KB buffer with little-endian scalar accessors and
//!   a sequential [`PageCursor`] for record serialization.
//! * [`PageStore`] — the backing medium; [`MemStore`] keeps pages in memory
//!   (fast, deterministic benchmarking), [`FileStore`] keeps them in a real
//!   file.
//! * [`ConcurrentBufferPool`] — the one page cache, used by every build,
//!   query and test: a lock-sharded, `Sync` LRU serving many reader
//!   threads at once (per-shard LRUs, atomic statistics) that owns its
//!   store. Reads are classified by [`PageKind`] and tallied in
//!   [`IoStats`]; [`ConcurrentBufferPool::clear_cache`] emulates the
//!   paper's cache clearing between queries. Without I/O workers
//!   ([`ConcurrentBufferPool::new`]) a miss is fetched on the calling
//!   thread; with them ([`SchedulerConfig`]) misses go through a
//!   submission queue, duplicate in-flight reads coalesce, announced reads
//!   ([`PageRead::want_pages`]) are fetched side by side, and
//!   [`SchedulerStats`] reports queue depth, coalescing, and latencies.
//! * [`PageRead`] / [`PageWrite`] — the access split: queries are shared
//!   `&self` reads, builds are exclusive `&mut` writes. Query code across
//!   the workspace takes `&impl PageRead`.
//! * [`DiskModel`] — converts physical-read counts into simulated I/O time
//!   for a configurable device (default: the paper's 10 kRPM SAS array),
//!   since the figures' execution-time series are proportional to page
//!   reads (the paper measures a 97.8–98.8 % disk-time share, §VII-E.2).
//!   [`ThrottledStore`] makes the same latency *real* for concurrency
//!   experiments by blocking each physical read.
//! * [`spill`] — spill runs and external sorting over store pages: the
//!   substrate of the streaming (out-of-core) index build, which must
//!   order datasets bigger than main memory by their STR sort keys.
//! * [`Wal`] / [`DurableStore`] — the durability layer: an append-only
//!   checksummed record log in store pages (torn tails detected and
//!   truncated on open) and a store wrapper that defers page writes into
//!   an overlay, logs them ahead, and checkpoints them back atomically.
//! * [`FaultStore`] — fault injection for the crash-recovery test
//!   harness: scripted kill-after-N-writes crashes, torn final writes,
//!   and bit flips.
//! * [`VersionedPool`] — epoch-based MVCC over the shared cache: batch
//!   writers copy-on-write the pages they touch into per-epoch undo
//!   overlays, readers pin an epoch ([`EpochPin`]) and stay wait-free
//!   while a batch runs, and old versions (plus deferred page frees)
//!   reclaim once the last reader pinned to them departs.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod access;
mod concurrent;
mod disk;
mod durable;
mod error;
mod fault;
mod page;
mod pool;
pub mod spill;
mod store;
mod sync_util;
pub mod versioned;
pub mod wal;

// `PageRead`, `PageWrite` and the benchmark shims (see access.rs).
pub use access::*;
pub use concurrent::{ConcurrentBufferPool, SchedulerConfig, SchedulerStats};
pub use disk::DiskModel;
pub use durable::{DurableStore, RecoveredLog};
pub use error::StorageError;
pub use fault::{CrashStyle, FaultStore};
pub use page::{Page, PageCursor, PAGE_SIZE};
pub use pool::{IoStats, KindStats};
pub use spill::{
    ExternalSorter, RunHandle, RunReader, RunWriter, SortedStream, SpillRecord, SpillStats,
};
pub use store::{FileStore, MemStore, PageStore, ThrottledStore};
pub use versioned::{BatchWriter, EpochPin, VersionStats, VersionedPool};
pub use wal::{Wal, WalRecord};

/// Identifies a page within a [`PageStore`].
///
/// Page ids are dense (allocation order) and never reused; multiplying by
/// [`PAGE_SIZE`] gives the byte offset in a [`FileStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Byte offset of this page in a file-backed store.
    #[inline]
    pub fn byte_offset(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// Classifies a page by the index structure it belongs to.
///
/// The classification drives the paper's breakdown figures: Fig 14/18 split
/// retrieved data into R-tree leaf vs non-leaf pages and FLAT seed-tree vs
/// metadata vs object pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Non-leaf (directory) node of an R-tree baseline.
    RTreeInner,
    /// Leaf node of an R-tree baseline (stores element MBRs).
    RTreeLeaf,
    /// Non-leaf node of FLAT's seed tree.
    SeedInner,
    /// Leaf of FLAT's seed tree — holds the metadata records (§V-B.2).
    SeedLeaf,
    /// FLAT object page — holds the spatial elements themselves (§V-B.3).
    ObjectPage,
    /// Anything else (scratch space, headers).
    Other,
}

impl PageKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [PageKind; 6] = [
        PageKind::RTreeInner,
        PageKind::RTreeLeaf,
        PageKind::SeedInner,
        PageKind::SeedLeaf,
        PageKind::ObjectPage,
        PageKind::Other,
    ];

    /// Dense index used by [`IoStats`] internally.
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            PageKind::RTreeInner => 0,
            PageKind::RTreeLeaf => 1,
            PageKind::SeedInner => 2,
            PageKind::SeedLeaf => 3,
            PageKind::ObjectPage => 4,
            PageKind::Other => 5,
        }
    }

    /// Human-readable label used in benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            PageKind::RTreeInner => "rtree-inner",
            PageKind::RTreeLeaf => "rtree-leaf",
            PageKind::SeedInner => "seed-inner",
            PageKind::SeedLeaf => "seed-leaf",
            PageKind::ObjectPage => "object",
            PageKind::Other => "other",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_byte_offset() {
        assert_eq!(PageId(0).byte_offset(), 0);
        assert_eq!(PageId(3).byte_offset(), 3 * 4096);
    }

    #[test]
    fn page_kind_indexes_are_dense_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for kind in PageKind::ALL {
            assert!(kind.index() < PageKind::ALL.len());
            assert!(seen.insert(kind.index()));
        }
    }

    #[test]
    fn page_kind_labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for kind in PageKind::ALL {
            assert!(seen.insert(kind.label()));
        }
    }
}
