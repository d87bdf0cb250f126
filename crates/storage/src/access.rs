//! The page-access split: shared reads vs exclusive writes.
//!
//! Query evaluation in this workspace never mutates pages — it only reads
//! them (and updates I/O statistics, which are atomic). Index construction
//! is the opposite: a single-owner bulkload that allocates and writes pages
//! and never races with queries. The two capabilities are therefore split
//! into two traits:
//!
//! * [`PageRead`] — shared, `&self`. Implemented by every cache in this
//!   crate — [`crate::BufferPool`] (single-threaded interior mutability),
//!   [`crate::ConcurrentBufferPool`] (lock-sharded, `Sync`),
//!   [`crate::DiskScheduler`] (submission queue + I/O workers) — and by the
//!   MVCC views over them ([`crate::VersionedPool`], [`crate::EpochPin`],
//!   [`crate::BatchWriter`]), so the same query code serves a private pool,
//!   a pool shared across many threads, and a pinned snapshot.
//! * [`PageWrite`] — exclusive, `&mut self`. Implemented by the same three
//!   caches (bulk builds mostly run over a [`crate::BufferPool`]), by
//!   [`crate::VersionedPool`] (the non-versioned path: the exclusive
//!   borrow proves no reader is pinned) and by [`crate::BatchWriter`],
//!   the copy-on-write path that runs beside pinned readers.
//!
//! Query entry points across the workspace take `&impl PageRead`; build
//! entry points take `&mut impl PageWrite`.
//!
//! # The three read verbs
//!
//! | verb | blocks? | when it applies | accounted as |
//! |---|---|---|---|
//! | [`PageRead::read_page`] | yes | the caller needs the bytes *now* | logical read (+ physical on a miss) |
//! | [`PageRead::want_pages`] | no | the caller **will** `read_page` these pages shortly, whatever happens in between | physical (demand) read at submission; the later `read_page` is the logical read |
//! | [`PageRead::prefetch_page`] | no | the caller *may* read the page — a guess | prefetch read / hit / evicted, outside the demand counters |
//!
//! An announcement is not speculation: the crawl knows its next reads
//! exactly, so the device may start on all of them at once instead of
//! hearing about them one blocking read at a time. A hint is speculation:
//! it may be dropped under load and its fetch is kept out of the paper's
//! page-reads figure.

use crate::{Page, PageId, PageKind, StorageError};
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
    /// A cache that can overlap device fetches ([`crate::DiskScheduler`])
    /// starts fetching every listed page that is neither cached nor already
    /// in flight, as ordinary demand reads — never dropped, never
    /// deprioritized, counted in `physical_reads` when submitted — and the
    /// later `read_page` finds the page cached or joins the fetch. Caches
    /// that fetch on the calling thread ignore the announcement (the
    /// default), so on them the verb costs nothing and changes no counter.
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

    /// Readahead hint: bring page `id` into the cache *speculatively*, ahead
    /// of a demand read that may or may not follow.
    ///
    /// This is the hook batched query execution hangs its crawl-ahead
    /// prefetching on: a reader that knows which pages it will (probably)
    /// touch next issues hints — typically from dedicated readahead threads,
    /// so the device wait overlaps useful work — and the later demand read
    /// becomes a cache hit.
    ///
    /// Semantics:
    /// * purely an optimization — implementations may ignore it (the default
    ///   does nothing), and errors are swallowed: a failed hint must not
    ///   fail the query, the demand read will surface any real error;
    /// * accounted separately from demand I/O: a fetch triggered by a hint
    ///   counts as a *prefetch read*, not a physical (demand) read, and a
    ///   later demand hit on the prefetched page counts as a *prefetch hit*
    ///   (see [`crate::IoStats`]), so benchmark figures can report
    ///   speculative I/O — and the share of it that was wasted — separately
    ///   from useful I/O.
    fn prefetch_page(&self, id: PageId, kind: PageKind) {
        let _ = (id, kind);
    }
}

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

    fn prefetch_page(&self, id: PageId, kind: PageKind) {
        (**self).prefetch_page(id, kind)
    }
}

impl<P: PageRead + ?Sized> PageRead for Arc<P> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        (**self).read_page(id, kind)
    }

    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        (**self).want_pages(pages)
    }

    fn prefetch_page(&self, id: PageId, kind: PageKind) {
        (**self).prefetch_page(id, kind)
    }
}

impl<P: PageRead + ?Sized> PageRead for Box<P> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        (**self).read_page(id, kind)
    }

    fn want_pages(&self, pages: &[(PageId, PageKind)]) {
        (**self).want_pages(pages)
    }

    fn prefetch_page(&self, id: PageId, kind: PageKind) {
        (**self).prefetch_page(id, kind)
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
