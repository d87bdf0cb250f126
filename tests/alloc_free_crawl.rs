//! The crawl allocates per crawl, not per record: metadata records are
//! read in place and object pages are scanned in place, so a warm query's
//! allocations are its result, queue, seen-set and scratch buffers, which
//! grow geometrically. A per-record allocation (a decoded neighbor list,
//! a copied page) would put the count in the hundreds.
//!
//! This is its own test binary because the counting allocator below is
//! the global allocator of the whole binary. Counts are kept per thread,
//! so tests running side by side do not see each other's allocations.

use flat_repro::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting allocations made by threads that
/// switched counting on.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-locals without destructors, which never
// allocate or re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (reallocations included) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// Ceiling for one warm query. The crawl's own containers grow
/// geometrically, so this does not depend on the pages a query touches;
/// one allocation per record processed would exceed it several times.
const BUDGET: u64 = 64;

/// A 100 000-element uniform index with every page cached.
fn warm_index() -> (ConcurrentBufferPool<MemStore>, FlatIndex, Aabb) {
    let config = UniformConfig::scaled_baseline(100_000, 27);
    let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 14);
    let (index, _) = FlatIndex::build(&mut pool, uniform_entries(&config), FlatOptions::default())
        .expect("in-memory build cannot fail");
    let everything = config.domain.inflate(1.0);
    index
        .range_query(&pool, &everything)
        .expect("warming query");
    (pool, index, config.domain)
}

#[test]
fn a_warm_range_query_allocates_per_crawl_not_per_record() {
    let (pool, index, domain) = warm_index();
    let query = Aabb::cube(domain.center(), domain.extent(Axis::X) * 0.45);
    let mut stats = QueryStats::default();
    // Once to fill the cache along this query's path, once counted.
    index.range_query(&pool, &query).expect("range query");
    let (hits, count) = allocations(|| index.range_query_with_stats(&pool, &query, &mut stats));
    let hits = hits.expect("range query");
    assert!(
        stats.records_processed >= 300,
        "the query must be large enough to tell per-record allocation \
         apart: {} records",
        stats.records_processed
    );
    assert!(!hits.is_empty());
    assert!(
        count <= BUDGET,
        "{count} allocations for {} records ({} hits): something allocates per record",
        stats.records_processed,
        hits.len()
    );
}

#[test]
fn a_warm_knn_query_allocates_per_crawl_not_per_record() {
    let (pool, index, domain) = warm_index();
    let point = domain.center();
    let k = 400;
    let mut stats = KnnStats::default();
    index.knn_query(&pool, point, k).expect("kNN query");
    let (neighbors, count) =
        allocations(|| index.knn_query_with_stats(&pool, point, k, &mut stats));
    assert_eq!(neighbors.expect("kNN query").len(), k);
    assert!(
        count <= BUDGET,
        "{count} allocations for {} records expanded: something allocates per record",
        stats.records_expanded
    );
}
