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
//! * [`Page`] — a fixed 4 KB buffer, shared copy-on-write (a clone is a
//!   reference, a cache hit copies nothing), with little-endian scalar
//!   accessors and a mutable [`PageMut`] view for runs of writes.
//! * [`PageStore`] — the backing medium; [`MemStore`] keeps pages in memory
//!   (fast, deterministic benchmarking), [`FileStore`] keeps them in a real
//!   file.
//! * [`ConcurrentBufferPool`] — the one page cache, used by every build,
//!   query and test: a lock-sharded, `Sync` LRU serving many reader
//!   threads at once (per-shard LRUs, atomic statistics) that owns its
//!   store. Reads are classified by [`PageKind`] and tallied in
//!   [`IoStats`], and the kind sets the recency rule: a read sends an
//!   element page (object page, R-tree leaf) to the cold end of its LRU.
//!   [`ConcurrentBufferPool::clear_cache`] emulates the paper's cache
//!   clearing between queries. Misses go through one
//!   submission queue, duplicate in-flight reads coalesce, and
//!   [`SchedulerStats`] reports queue depth, coalescing, and latencies.
//!   Without I/O workers ([`ConcurrentBufferPool::new`]) the waiting
//!   readers fetch the misses; with them ([`SchedulerConfig`]) announced
//!   reads ([`PageRead::want_pages`]) are fetched side by side too.
//! * [`PageRead`] / [`PageWrite`] — the access split: queries are shared
//!   `&self` reads, builds are exclusive `&mut` writes. Query code across
//!   the workspace takes `&impl PageRead`.
//! * [`ThrottledStore`] — the one device model: a per-read latency behind
//!   a bounded-parallelism admission clock, blocking each physical read.
//!   The paper's queries spend 97.8–98.8 % of their time on disk
//!   (§VII-E.2), so a store that makes that latency real is what lets
//!   overlapped reads, caching and sharding show up as time saved.
//! * [`spill`] — spill runs and external sorting over store pages: the
//!   substrate of the streaming (out-of-core) index build, which must
//!   order datasets bigger than main memory by their STR sort keys.
//! * [`Wal`] — the durability layer: an append-only checksummed record
//!   log in store pages (torn tails detected and truncated on open). A
//!   durable [`VersionedPool`] owns one, logs page versions ahead of
//!   writing them back, and recovers through it ([`RecoveredLog`]).
//! * [`FaultStore`] — fault injection for the crash-recovery test
//!   harness: scripted kill-after-N-writes crashes and torn final
//!   writes.
//! * [`VersionedPool`] — epoch-based MVCC over the shared cache through
//!   one page-version map: batch writers add versions of the pages they
//!   touch, readers pin an epoch ([`EpochPin`]) and stay wait-free while
//!   a batch runs, and versions no reader needs go back to the store —
//!   at once, or at the next checkpoint of a durable pool.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod access;
mod concurrent;
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
pub use durable::RecoveredLog;
pub use error::StorageError;
pub use fault::{CrashStyle, FaultStore};
pub use page::{Page, PageMut, PAGE_SIZE};
pub use pool::{IoStats, KindStats};
pub use spill::{ExternalSorter, SortedStream, SpillRecord, SpillStats};
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

    /// `true` for the pages that hold the elements themselves — FLAT's
    /// object pages and R-tree leaves. A query reads each of them once, so
    /// the cache sends them to the cold end of its LRU on read.
    #[inline]
    pub(crate) fn holds_elements(self) -> bool {
        matches!(self, PageKind::ObjectPage | PageKind::RTreeLeaf)
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
