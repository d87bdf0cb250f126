//! The page-access split: shared reads vs exclusive writes.
//!
//! Query evaluation in this workspace never mutates pages — it only reads
//! them (and updates I/O statistics, which are atomic). Index construction
//! is the opposite: a single-owner bulkload that allocates and writes pages
//! and never races with queries. The two capabilities are therefore split
//! into two traits:
//!
//! * [`PageRead`] — shared, `&self`. Implemented by the one page cache,
//!   [`crate::ConcurrentBufferPool`] (lock-sharded, `Sync`, with or without
//!   I/O workers), and by the MVCC views over it ([`crate::VersionedPool`],
//!   [`crate::EpochPin`], [`crate::BatchWriter`]), so the same query code
//!   serves a cache owned by one thread, a cache shared across many
//!   threads, and a pinned snapshot.
//! * [`PageWrite`] — exclusive, `&mut self`. Implemented by the cache
//!   (every bulk build runs over one), by [`crate::VersionedPool`] (the
//!   non-versioned path: the exclusive borrow proves no reader is pinned)
//!   and by [`crate::BatchWriter`], the copy-on-write path that runs beside
//!   pinned readers.
//!
//! Query entry points across the workspace take `&impl PageRead`; build
//! entry points take `&mut impl PageWrite`.
//!
//! # The two read verbs
//!
//! | verb | blocks? | when it applies | accounted as |
//! |---|---|---|---|
//! | [`PageRead::read_page`] | yes | the caller needs the bytes *now* | logical read (+ physical on a miss) |
//! | [`PageRead::want_pages`] | no | the caller **will** `read_page` these pages shortly, whatever happens in between | physical read at submission; the later `read_page` is the logical read |
//!
//! An announcement is not speculation: the crawl knows its next reads
//! exactly, so the device may start on all of them at once instead of
//! hearing about them one blocking read at a time. That is also why there
//! is no third, "may read" verb: a guess lane needs its own queue, drop
//! policy and waste accounting, and nothing in this workspace has a read
//! to guess at — every caller that can name a page ahead of time is
//! certain of it. Overlap across *queries* comes from running the same
//! verbs on several client threads over one shared cache.

use crate::{ConcurrentBufferPool, IoStats, Page, PageId, PageKind, StorageError};
use std::sync::Arc;

/// Shared read access to pages, with per-[`PageKind`] I/O accounting.
///
/// Reads return an *owned* copy of the page: the 4 KB memcpy decouples the
/// caller from the cache's locking/borrowing discipline (and is noise next
/// to the I/O the pool is accounting for — index node formats are
/// deserialized into typed structures immediately after the read anyway).
pub trait PageRead {
    /// Reads page `id`, counting the access against `kind`.
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError>;

    /// Announces *certain* demand reads: the caller will [`read_page`]
    /// every listed page shortly, unconditionally. Never blocks.
    ///
    /// A cache that can overlap device fetches (a
    /// [`crate::ConcurrentBufferPool`] with I/O workers) starts fetching
    /// every listed page that is neither cached nor already in flight, as
    /// ordinary demand reads — never dropped, never deprioritized, counted
    /// in `physical_reads` when submitted — and the later `read_page` finds
    /// the page cached or joins the fetch. Caches that fetch on the calling
    /// thread ignore the announcement (the default), so on them the verb
    /// costs nothing and changes no counter.
    ///
    /// Announcing is not a promise the cache can hold the caller to: a
    /// query that errors out before reading an announced page leaves at
    /// worst one spare fetch behind. A failed announced fetch is neither
    /// cached nor reported here; the caller's own `read_page` retries and
    /// surfaces the error.
    ///
    /// [`read_page`]: PageRead::read_page
    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        let _ = pages;
    }

    // Shim, five items: `crates/benchmark` may not be edited by the changes
    // that removed the speculative lane and the other two caches. It still
    // overrides this method (trace.rs:448), calls the two accessors below
    // (ladder.rs:542), builds its scheduler rung through the first alias
    // after them (ladder.rs:295) and its churn write ladder through the
    // second (churn.rs:467). No cache implements or calls the first three;
    // all five leave with the benchmark's `scheduler.` "useful share" row
    // (ROADMAP item 1).
    #[doc(hidden)]
    fn prefetch_page(&self, id: PageId, kind: PageKind) {
        let _ = (id, kind);
    }
}

#[doc(hidden)]
impl IoStats {
    pub fn total_prefetch_reads(&self) -> u64 {
        0
    }

    pub fn total_prefetch_hits(&self) -> u64 {
        0
    }
}

#[doc(hidden)]
pub type DiskScheduler<S> = ConcurrentBufferPool<S>;

#[doc(hidden)]
pub type BufferPool<S> = ConcurrentBufferPool<S>;

/// Exclusive build-time access: page allocation, write-through writes, and
/// page reclamation.
pub trait PageWrite {
    /// Allocates a zeroed page (reusing the lowest freed page, if any —
    /// see [`crate::PageStore::alloc`]).
    fn alloc(&mut self) -> Result<PageId, StorageError>;

    /// Writes `page` through to the store, counting it against `kind`.
    fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError>;

    /// Returns page `id` to the store's free list (dropping any cached
    /// copy). The dynamic-update layer frees object pages of fully deleted
    /// partitions and compaction frees the entire old index; reads of a
    /// freed page fail until it is reallocated.
    fn free(&mut self, id: PageId) -> Result<(), StorageError>;
}

impl<P: PageRead + ?Sized> PageRead for &P {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        (**self).read_page(id, kind)
    }

    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        (**self).want_pages(pages)
    }
}

impl<P: PageRead + ?Sized> PageRead for Arc<P> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        (**self).read_page(id, kind)
    }

    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        (**self).want_pages(pages)
    }
}

impl<P: PageRead + ?Sized> PageRead for Box<P> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        (**self).read_page(id, kind)
    }

    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        (**self).want_pages(pages)
    }
}

impl<W: PageWrite + ?Sized> PageWrite for &mut W {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        (**self).alloc()
    }

    fn write(&mut self, id: PageId, page: &Page, kind: PageKind) -> Result<(), StorageError> {
        (**self).write(id, page, kind)
    }

    fn free(&mut self, id: PageId) -> Result<(), StorageError> {
        (**self).free(id)
    }
}
