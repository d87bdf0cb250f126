//! Benchmark-side tracing: spans recorded around calls into the library's
//! two public page traits.
//!
//! Library code carries no spans (that is a later change); the benchmark
//! measures layers from outside by wrapping [`PageStore`] ([`SpanStore`])
//! and [`PageRead`] ([`SpanPool`]) and by opening a span around each
//! query it issues. Spans live in a preallocated in-memory buffer and are
//! summarised (and optionally written out) when the run ends.
//!
//! Traced runs are serial — one client, one query at a time. Each thread
//! keeps its own innermost open span, so spans nest by call stack on the
//! client's thread; a span opened on a thread with nothing open (a read
//! the [`flat_storage::DiskScheduler`] performs on a worker thread on the
//! client's behalf) hangs under the client's open root span instead.
//! Such children may overlap one another, so a span's self time subtracts
//! the *union* of its children's intervals.

use flat_storage::{Page, PageId, PageKind, PageRead, PageStore, StorageError, PAGE_SIZE};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name, e.g. `"store.read"`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// This span's id (allocation order).
    pub id: u32,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The query (script position) this span belongs to.
    pub query: u32,
    /// Page id for page-level spans, bytes for writes, 0 otherwise.
    pub arg: u64,
    /// [`PageKind`] index for pool reads (see [`kind_index`]), 0 otherwise.
    pub kind: u8,
    /// [`page_digest`] of the page a read returned, 0 otherwise — what a
    /// replay of the trace must reproduce.
    pub digest: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Dense index of a [`PageKind`] (its position in [`PageKind::ALL`]).
pub fn kind_index(kind: PageKind) -> u8 {
    PageKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("PageKind::ALL lists every kind") as u8
}

/// Inverse of [`kind_index`].
pub fn kind_from_index(index: u8) -> PageKind {
    PageKind::ALL[index as usize]
}

/// A cheap order-sensitive digest of a page: three words spread over the
/// page, enough to tell a wrong or stale page from the right one without
/// hashing 4 KB on every traced read.
pub fn page_digest(page: &Page) -> u64 {
    page.get_u64(0)
        ^ page.get_u64(PAGE_SIZE / 2).rotate_left(17)
        ^ page.get_u64(PAGE_SIZE - 8).rotate_left(31)
}

thread_local! {
    /// This thread's innermost open span: `(tracer address, span id)`.
    static INNERMOST: Cell<(usize, u32)> = const { Cell::new((0, NO_PARENT)) };
}

/// The span recorder shared by every wrapper of one run.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    enabled: AtomicBool,
    next_id: AtomicU32,
    /// The open root span, parent of spans other threads open.
    root: AtomicU32,
    query: AtomicU32,
    dropped: AtomicU64,
    capacity: usize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A disabled tracer with room for `capacity` spans (allocated up
    /// front, so recording never reallocates inside a measured section).
    pub fn new(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            t0: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU32::new(0),
            root: AtomicU32::new(NO_PARENT),
            query: AtomicU32::new(0),
            dropped: AtomicU64::new(0),
            capacity,
            spans: Mutex::new(Vec::with_capacity(capacity)),
        })
    }

    /// Turns recording on or off. Wrappers check this with one relaxed
    /// load per call, which is all a disabled tracer costs.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens the root span of one query (or commit): tags it and every
    /// span under it with `query` (the script position) and makes it the
    /// parent of spans that worker threads open while it lasts. One root
    /// is open at a time — traced runs are serial.
    pub fn root_span(&self, name: &'static str, query: u32) -> SpanGuard<'_> {
        self.query.store(query, Ordering::SeqCst);
        self.open(name, 0, 0, true)
    }

    /// Opens a span under this thread's innermost open span (or under the
    /// open root span when this thread has none); it closes, and is
    /// recorded, when the guard drops. Returns an inert guard while the
    /// tracer is disabled.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_with(name, 0, 0)
    }

    /// [`Tracer::span`] with a page/byte argument and a page kind.
    pub fn span_with(&self, name: &'static str, arg: u64, kind: u8) -> SpanGuard<'_> {
        self.open(name, arg, kind, false)
    }

    fn open(&self, name: &'static str, arg: u64, kind: u8, is_root: bool) -> SpanGuard<'_> {
        let mut span = Span {
            name,
            start_ns: 0,
            end_ns: 0,
            id: 0,
            parent: NO_PARENT,
            query: 0,
            arg,
            kind,
            digest: 0,
        };
        let outer = INNERMOST.get();
        if !self.enabled() {
            return SpanGuard {
                tracer: None,
                span,
                outer,
                is_root: false,
                on_this_thread: PhantomData,
            };
        }
        let me = self as *const Tracer as usize;
        span.id = self.next_id.fetch_add(1, Ordering::SeqCst);
        span.parent = if outer.0 == me && outer.1 != NO_PARENT {
            outer.1
        } else {
            self.root.load(Ordering::SeqCst)
        };
        span.query = self.query.load(Ordering::SeqCst);
        INNERMOST.set((me, span.id));
        if is_root {
            self.root.store(span.id, Ordering::SeqCst);
        }
        span.start_ns = self.t0.elapsed().as_nanos() as u64;
        SpanGuard {
            tracer: Some(self),
            span,
            outer,
            is_root,
            on_this_thread: PhantomData,
        }
    }

    fn record(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        if spans.len() < self.capacity {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans that did not fit the preallocated buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drains the recorded spans, ordered by span id (children may close
    /// before their parents, so the buffer itself is in close order).
    pub fn take(&self) -> Vec<Span> {
        // The replacement keeps the preallocation for the next phase.
        let mut spans = std::mem::replace(
            &mut *self.spans.lock().expect("span buffer lock poisoned"),
            Vec::with_capacity(self.capacity),
        );
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }
}

/// Closes its span on drop. Not `Send`: it restores the innermost span
/// of the thread that opened it.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    span: Span,
    outer: (usize, u32),
    is_root: bool,
    on_this_thread: PhantomData<*const ()>,
}

impl SpanGuard<'_> {
    /// Attaches the digest of the page this (read) span returned. Free
    /// when the tracer is disabled.
    pub fn set_page(&mut self, page: &Page) {
        if self.tracer.is_some() {
            self.span.digest = page_digest(page);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            self.span.end_ns = tracer.t0.elapsed().as_nanos() as u64;
            INNERMOST.set(self.outer);
            if self.is_root {
                tracer.root.store(NO_PARENT, Ordering::SeqCst);
            }
            tracer.record(self.span);
        }
    }
}

/// Per-name totals of a span set: call count, total time, and self time
/// (total minus the time covered by direct children).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus direct children's durations.
    pub self_ns: u64,
}

/// Aggregates spans by name. A span's self time is its duration minus
/// the part of that interval its child spans cover — the union of their
/// intervals, since reads served by worker threads overlap.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if span.parent != NO_PARENT {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for span in spans {
        let mut covered = 0;
        if let Some(intervals) = children.get_mut(&span.id) {
            intervals.sort_unstable();
            let mut reached = span.start_ns;
            for &(start, end) in intervals.iter() {
                let (start, end) = (start.max(reached), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reached = end;
                }
            }
        }
        let totals = out.entry(span.name).or_default();
        totals.count += 1;
        totals.total_ns += span.duration_ns();
        totals.self_ns += span.duration_ns() - covered;
    }
    out
}

/// Mean cost of recording one (empty) span, in nanoseconds — printed
/// with every traced run so span counts can be turned into an overhead
/// estimate.
pub fn measure_span_overhead_ns() -> f64 {
    const N: usize = 200_000;
    let tracer = Tracer::new(N);
    tracer.set_enabled(true);
    let start = Instant::now();
    for i in 0..N {
        let _span = tracer.span_with("overhead", i as u64, 0);
    }
    let elapsed = start.elapsed();
    assert_eq!(tracer.take().len(), N);
    elapsed.as_nanos() as f64 / N as f64
}

/// Page accounting a [`SpanStore`] keeps whether or not spans are being
/// recorded — the only view of a store that a [`flat_core::ShardedDb`]
/// (which never hands its stores back) leaves the benchmark.
#[derive(Debug, Default)]
pub struct StoreGauge {
    live_pages: AtomicI64,
}

impl StoreGauge {
    /// Pages allocated and not freed, summed over every store sharing
    /// this gauge.
    pub fn live_pages(&self) -> u64 {
        self.live_pages.load(Ordering::Relaxed).max(0) as u64
    }
}

/// A [`PageStore`] wrapper recording one span per store call (name,
/// page or byte count) under the current query span.
#[derive(Debug)]
pub struct SpanStore<S: PageStore> {
    inner: S,
    tracer: Arc<Tracer>,
    gauge: Arc<StoreGauge>,
}

impl<S: PageStore> SpanStore<S> {
    /// Wraps `inner`; `gauge` may be shared by several stores (shards).
    pub fn new(inner: S, tracer: Arc<Tracer>, gauge: Arc<StoreGauge>) -> SpanStore<S> {
        gauge.live_pages.fetch_add(
            inner.num_pages() as i64 - inner.num_free() as i64,
            Ordering::Relaxed,
        );
        SpanStore {
            inner,
            tracer,
            gauge,
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the store.
    pub fn into_inner(self) -> S {
        self.gauge.live_pages.fetch_sub(
            self.inner.num_pages() as i64 - self.inner.num_free() as i64,
            Ordering::Relaxed,
        );
        self.inner
    }
}

impl<S: PageStore> PageStore for SpanStore<S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        let _span = self.tracer.span("store.alloc");
        let id = self.inner.alloc()?;
        self.gauge.live_pages.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
        let _span = self.tracer.span_with("store.write", id.0, 0);
        self.inner.write_page(id, page)
    }

    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
        let mut span = self.tracer.span_with("store.read", id.0, 0);
        self.inner.read_page(id, out)?;
        span.set_page(out);
        Ok(())
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
        let _span = self.tracer.span_with("store.free", id.0, 0);
        self.inner.free_page(id)?;
        self.gauge.live_pages.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    fn free_pages(&self) -> Vec<PageId> {
        self.inner.free_pages()
    }

    fn num_free(&self) -> u64 {
        self.inner.num_free()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<(), StorageError> {
        let _span = self.tracer.span("store.sync");
        self.inner.sync()
    }
}

/// A [`PageRead`] wrapper recording one span per logical page read,
/// carrying the `(PageId, PageKind)` the index asked for — the logical
/// page trace the lower ladder rungs replay. Prefetch hints forward
/// unrecorded (they are not reads the caller waits for).
#[derive(Debug)]
pub struct SpanPool<P: PageRead> {
    inner: P,
    tracer: Arc<Tracer>,
    name: &'static str,
}

impl<P: PageRead> SpanPool<P> {
    /// Wraps `inner`, recording its reads as spans called `name` (two
    /// pools of one join use different names to keep their traces apart).
    pub fn new(inner: P, tracer: Arc<Tracer>, name: &'static str) -> SpanPool<P> {
        SpanPool {
            inner,
            tracer,
            name,
        }
    }
}

impl<P: PageRead> PageRead for SpanPool<P> {
    fn read_page(&self, id: PageId, kind: PageKind) -> Result<Page, StorageError> {
        let mut span = self.tracer.span_with(self.name, id.0, kind_index(kind));
        let page = self.inner.read_page(id, kind)?;
        span.set_page(&page);
        Ok(page)
    }

    fn prefetch_page(&self, id: PageId, kind: PageKind) {
        self.inner.prefetch_page(id, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_storage::{ConcurrentBufferPool, MemStore};

    fn stamped(value: u64) -> Page {
        let mut page = Page::new();
        page.put_u64(0, value);
        page.put_u64(PAGE_SIZE - 8, !value);
        page
    }

    fn store_with_pages(n: u64) -> MemStore {
        let mut store = MemStore::new();
        for i in 0..n {
            let id = store.alloc().unwrap();
            store.write_page(id, &stamped(i)).unwrap();
        }
        store
    }

    #[test]
    fn span_store_passes_bytes_through_and_tracks_live_pages() {
        let tracer = Tracer::new(1024);
        let gauge = Arc::new(StoreGauge::default());
        let mut store = SpanStore::new(store_with_pages(4), tracer.clone(), gauge.clone());
        assert_eq!(gauge.live_pages(), 4);
        tracer.set_enabled(true);
        let id = store.alloc().unwrap();
        store.write_page(id, &stamped(99)).unwrap();
        store.sync().unwrap();
        let mut through = Page::new();
        let mut direct = Page::new();
        for i in 0..5 {
            store.read_page(PageId(i), &mut through).unwrap();
            store.inner().read_page(PageId(i), &mut direct).unwrap();
            assert_eq!(through.bytes()[..], direct.bytes()[..]);
        }
        store.free_page(PageId(1)).unwrap();
        assert_eq!(gauge.live_pages(), 4);
        assert_eq!(store.num_pages(), 5);
        assert_eq!(store.num_free(), 1);
        assert!(store.read_page(PageId(1), &mut through).is_err());

        let totals = summarize(&tracer.take());
        assert_eq!(totals["store.alloc"].count, 1);
        assert_eq!(totals["store.write"].count, 1);
        assert_eq!(totals["store.sync"].count, 1);
        assert_eq!(totals["store.read"].count, 6);
        assert_eq!(totals["store.free"].count, 1);
        let inner = store.into_inner();
        assert_eq!(gauge.live_pages(), 0);
        assert_eq!(inner.num_pages(), 5);
    }

    #[test]
    fn spans_nest_under_the_query_that_caused_them() {
        let tracer = Tracer::new(1024);
        let gauge = Arc::new(StoreGauge::default());
        let store = SpanStore::new(store_with_pages(8), tracer.clone(), gauge);
        let cache = ConcurrentBufferPool::new(store, 4);
        let pool = SpanPool::new(&cache, tracer.clone(), "pool.read");
        tracer.set_enabled(true);
        for query in 0..2u32 {
            let _q = tracer.root_span("query", query);
            for page in 0..3 {
                let got = pool.read_page(PageId(page), PageKind::ObjectPage).unwrap();
                assert_eq!(got.get_u64(0), page);
            }
        }
        tracer.set_enabled(false);
        pool.read_page(PageId(7), PageKind::Other).unwrap(); // unrecorded
        let spans = tracer.take();
        let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let queries: Vec<&Span> = spans.iter().filter(|s| s.name == "query").collect();
        assert_eq!(queries.len(), 2);
        assert!(queries.iter().all(|q| q.parent == NO_PARENT));
        let reads: Vec<&Span> = spans.iter().filter(|s| s.name == "pool.read").collect();
        assert_eq!(reads.len(), 6);
        for read in &reads {
            let parent = by_id[&read.parent];
            assert_eq!(parent.name, "query");
            assert_eq!(parent.query, read.query);
            assert!(parent.start_ns <= read.start_ns && read.end_ns <= parent.end_ns);
            assert_eq!(kind_from_index(read.kind), PageKind::ObjectPage);
            assert_eq!(read.digest, page_digest(&stamped(read.arg)));
        }
        // Query 0 misses the cache (3 store reads under pool reads);
        // query 1 hits it.
        let store_reads: Vec<&Span> = spans.iter().filter(|s| s.name == "store.read").collect();
        assert_eq!(store_reads.len(), 3);
        for read in &store_reads {
            assert_eq!(by_id[&read.parent].name, "pool.read");
            assert_eq!(read.query, 0);
        }
        let totals = summarize(&spans);
        assert!(totals["query"].self_ns <= totals["query"].total_ns);
        assert_eq!(
            totals["pool.read"].total_ns - totals["pool.read"].self_ns,
            totals["store.read"].total_ns
        );
    }

    #[test]
    fn worker_thread_spans_hang_under_the_open_root() {
        let tracer = Tracer::new(1024);
        let gauge = Arc::new(StoreGauge::default());
        let store = SpanStore::new(store_with_pages(8), tracer.clone(), gauge);
        tracer.set_enabled(true);
        {
            let _q = tracer.root_span("query", 5);
            // Two "workers" read concurrently while the client has a pool
            // read open: neither disturbs the client's nesting.
            let _client = tracer.span("pool.read");
            std::thread::scope(|scope| {
                for page in 0..2 {
                    let store = &store;
                    scope.spawn(move || {
                        store.read_page(PageId(page), &mut Page::new()).unwrap();
                    });
                }
            });
            store.read_page(PageId(2), &mut Page::new()).unwrap();
        }
        // No root open: a stray worker read is a root itself.
        std::thread::scope(|scope| {
            scope.spawn(|| store.read_page(PageId(3), &mut Page::new()).unwrap());
        });
        let spans = tracer.take();
        let id_of = |name: &str| spans.iter().find(|s| s.name == name).unwrap().id;
        let parents: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == "store.read")
            .map(|s| s.parent)
            .collect();
        let (query, client) = (id_of("query"), id_of("pool.read"));
        assert_eq!(parents, [query, query, client, NO_PARENT]);
        assert!(spans.iter().take(4).all(|s| s.query == 5));
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            name: if parent == NO_PARENT {
                "query"
            } else {
                "store.read"
            },
            start_ns,
            end_ns,
            id,
            parent,
            query: 0,
            arg: 0,
            kind: 0,
            digest: 0,
        };
        // Children cover [10, 40) and [70, 80) of a [0, 100) parent.
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 30),
            span(2, 0, 20, 40),
            span(3, 0, 25, 35),
            span(4, 0, 70, 80),
        ];
        let totals = summarize(&spans);
        assert_eq!(totals["query"].self_ns, 100 - 30 - 10);
        assert_eq!(totals["store.read"].total_ns, 20 + 20 + 10 + 10);
        assert_eq!(totals["store.read"].self_ns, totals["store.read"].total_ns);
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let tracer = Tracer::new(2);
        tracer.set_enabled(true);
        for _ in 0..5 {
            let _s = tracer.span("x");
        }
        assert_eq!(tracer.take().len(), 2);
        assert_eq!(tracer.dropped(), 3);
    }

    #[test]
    fn span_overhead_is_measurable() {
        let ns = measure_span_overhead_ns();
        assert!(ns > 0.0 && ns < 100_000.0, "{ns} ns per span");
    }

    #[test]
    fn kind_indexes_round_trip() {
        for kind in PageKind::ALL {
            assert_eq!(kind_from_index(kind_index(kind)), kind);
        }
    }
}
