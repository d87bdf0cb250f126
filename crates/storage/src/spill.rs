//! Spill runs and external sorting over [`PageStore`] pages.
//!
//! The streaming build pipeline (FLAT's out-of-core bulkload) must order
//! datasets far bigger than main memory by their STR sort keys. This module
//! provides the classic external-sort machinery it runs on:
//!
//! * Runs — a *run* is a sorted sequence of length-prefixed records
//!   serialized as a byte stream across scratch pages of a [`PageStore`]. Records may span page boundaries, so runs
//!   waste no page space and records may be variable-size (neighbor lists
//!   are).
//! * [`ExternalSorter`] — buffers up to a configurable number of records in
//!   memory; when the buffer fills it is sorted and flushed as one run.
//!   [`ExternalSorter::finish`] turns the accumulated runs into a
//!   [`SortedStream`] that k-way-merges them. If everything fit in memory,
//!   no page is ever touched (the common small-input fast path).
//! * [`SpillStats`] — how much was spilled, how many runs, and the peak
//!   number of records resident in memory — the numbers the
//!   `exp_build_scale` benchmark reports to verify the build's memory
//!   bounds.
//!
//! Determinism: merge order is defined entirely by `Ord` on the record
//! type. Callers that need a *stable* external sort (the FLAT build does —
//! its in-memory twin uses stable sorts) embed an input sequence number in
//! the record and include it in `Ord`, making every key unique and the
//! sort order total. With unique keys, buffer sorting may be unstable and
//! run boundaries cannot affect the merged order, so the external sort is
//! bit-compatible with an in-memory stable sort.

use crate::{Page, PageId, PageStore, StorageError, PAGE_SIZE};
use std::collections::BinaryHeap;

/// A record that can be spilled to scratch pages and merged back in order.
///
/// `Ord` must be a *total* order that matches the desired sort order;
/// include a unique tiebreaker (record id or input sequence number) so
/// that external and in-memory sorts agree bit-for-bit.
pub trait SpillRecord: Sized + Ord {
    /// Appends the serialized record to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one record from exactly the bytes `encode` produced.
    fn decode(buf: &[u8]) -> Result<Self, StorageError>;
}

/// Aggregate spill accounting for one [`ExternalSorter`] (or several,
/// summed via [`SpillStats::accumulate`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Sorted runs written to scratch pages.
    pub runs: u64,
    /// Records written to runs (records that never spilled are excluded).
    pub spilled_records: u64,
    /// Bytes written to runs (length prefixes included).
    pub spilled_bytes: u64,
    /// Scratch pages allocated for runs.
    pub spill_pages: u64,
    /// Peak number of records buffered in memory at any point.
    pub peak_buffered: u64,
}

impl SpillStats {
    /// Sums `other` into `self` (peaks take the maximum).
    pub fn accumulate(&mut self, other: &SpillStats) {
        self.runs += other.runs;
        self.spilled_records += other.spilled_records;
        self.spilled_bytes += other.spilled_bytes;
        self.spill_pages += other.spill_pages;
        self.peak_buffered = self.peak_buffered.max(other.peak_buffered);
    }
}

/// Handle to one finished run: the scratch pages it occupies plus its
/// logical size. The handle itself is tiny (one `PageId` per ~4 KB of
/// spilled data).
#[derive(Debug, Clone)]
struct RunHandle {
    pages: Vec<PageId>,
    bytes: u64,
    records: u64,
}

/// Appends length-prefixed records to scratch pages as a byte stream.
struct RunWriter<'s, S: PageStore> {
    store: &'s mut S,
    page: Page,
    pos: usize,
    pages: Vec<PageId>,
    bytes: u64,
    records: u64,
    scratch: Vec<u8>,
}

impl<'s, S: PageStore> RunWriter<'s, S> {
    /// Starts a new run on `store`.
    fn new(store: &'s mut S) -> RunWriter<'s, S> {
        RunWriter {
            store,
            page: Page::new(),
            pos: 0,
            pages: Vec::new(),
            bytes: 0,
            records: 0,
            scratch: Vec::new(),
        }
    }

    /// Appends one record.
    fn push<R: SpillRecord>(&mut self, record: &R) -> Result<(), StorageError> {
        self.scratch.clear();
        record.encode(&mut self.scratch);
        let len = u32::try_from(self.scratch.len()).map_err(|_| {
            StorageError::Corrupt("spill record exceeds u32::MAX bytes".to_string())
        })?;
        let prefix = len.to_le_bytes();
        // Split borrows: move scratch out while writing (no allocation).
        let payload = std::mem::take(&mut self.scratch);
        self.write_bytes(&prefix)?;
        self.write_bytes(&payload)?;
        self.scratch = payload;
        self.records += 1;
        Ok(())
    }

    fn write_bytes(&mut self, mut data: &[u8]) -> Result<(), StorageError> {
        while !data.is_empty() {
            let room = PAGE_SIZE - self.pos;
            let take = room.min(data.len());
            self.page.bytes_mut()[self.pos..self.pos + take].copy_from_slice(&data[..take]);
            self.pos += take;
            self.bytes += take as u64;
            data = &data[take..];
            if self.pos == PAGE_SIZE {
                self.flush_page()?;
            }
        }
        Ok(())
    }

    fn flush_page(&mut self) -> Result<(), StorageError> {
        let id = self.store.alloc()?;
        self.store.write_page(id, &self.page)?;
        self.pages.push(id);
        self.page.clear();
        self.pos = 0;
        Ok(())
    }

    /// Flushes the final partial page and returns the run handle.
    fn finish(mut self) -> Result<RunHandle, StorageError> {
        if self.pos > 0 {
            self.flush_page()?;
        }
        Ok(RunHandle {
            pages: self.pages,
            bytes: self.bytes,
            records: self.records,
        })
    }
}

/// The sequential cursor over one run's byte stream: page refills,
/// length-prefix framing, record decoding. Borrows the store per call so
/// a k-way merge can share one store across all of its runs' cursors.
struct RunCursor {
    run: RunHandle,
    page: Page,
    next_page: usize,
    pos: usize,
    consumed: u64,
    scratch: Vec<u8>,
}

impl RunCursor {
    fn new(run: RunHandle) -> RunCursor {
        RunCursor {
            run,
            page: Page::new(),
            next_page: 0,
            pos: PAGE_SIZE, // force a page load on first read
            consumed: 0,
            scratch: Vec::new(),
        }
    }

    fn read_bytes<S: PageStore>(&mut self, store: &S, out: &mut [u8]) -> Result<(), StorageError> {
        let mut filled = 0;
        while filled < out.len() {
            if self.pos == PAGE_SIZE {
                let id = *self.run.pages.get(self.next_page).ok_or_else(|| {
                    StorageError::Corrupt("spill run truncated mid-record".to_string())
                })?;
                store.read_page(id, &mut self.page)?;
                self.next_page += 1;
                self.pos = 0;
            }
            let take = (out.len() - filled).min(PAGE_SIZE - self.pos);
            out[filled..filled + take]
                .copy_from_slice(&self.page.bytes()[self.pos..self.pos + take]);
            self.pos += take;
            self.consumed += take as u64;
            filled += take;
        }
        Ok(())
    }

    fn next_record<R: SpillRecord, S: PageStore>(
        &mut self,
        store: &S,
    ) -> Result<Option<R>, StorageError> {
        if self.consumed >= self.run.bytes {
            return Ok(None);
        }
        let mut prefix = [0u8; 4];
        self.read_bytes(store, &mut prefix)?;
        let len = u32::from_le_bytes(prefix) as usize;
        self.scratch.resize(len, 0);
        let mut payload = std::mem::take(&mut self.scratch);
        self.read_bytes(store, &mut payload)?;
        let record = R::decode(&payload)?;
        self.scratch = payload;
        Ok(Some(record))
    }
}

/// Buffers records in memory and spills sorted runs once the buffer
/// exceeds its budget; [`ExternalSorter::finish`] merges everything back
/// in `Ord` order.
///
/// The sorter owns its scratch store — spill pages never mix with index
/// pages, so a build that spills produces exactly the same index pages as
/// one that does not.
pub struct ExternalSorter<R: SpillRecord, S: PageStore> {
    store: S,
    buffer: Vec<R>,
    budget: usize,
    runs: Vec<RunHandle>,
    stats: SpillStats,
}

impl<R: SpillRecord> ExternalSorter<R, crate::MemStore> {
    /// A sorter spilling to an in-memory scratch store (the default
    /// substrate everywhere in this workspace — the buffer pool's page
    /// accounting, not the store medium, is what models the disk).
    pub fn in_memory(budget: usize) -> Self {
        ExternalSorter::new(crate::MemStore::new(), budget)
    }
}

impl<R: SpillRecord, S: PageStore> ExternalSorter<R, S> {
    /// Creates a sorter spilling to `store`, buffering at most `budget`
    /// records in memory.
    ///
    /// # Panics
    /// Panics if `budget` is zero.
    pub fn new(store: S, budget: usize) -> Self {
        assert!(budget > 0, "sorter budget must be positive");
        ExternalSorter {
            store,
            buffer: Vec::new(),
            budget,
            runs: Vec::new(),
            stats: SpillStats::default(),
        }
    }

    /// Adds a record, spilling a run if the buffer is full.
    pub fn push(&mut self, record: R) -> Result<(), StorageError> {
        self.buffer.push(record);
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffer.len() as u64);
        if self.buffer.len() >= self.budget {
            self.spill_run()?;
        }
        Ok(())
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> u64 {
        self.stats.spilled_records + self.buffer.len() as u64
    }

    /// `true` if nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn spill_run(&mut self) -> Result<(), StorageError> {
        // Unique keys (callers embed a sequence number) make unstable
        // sorting deterministic.
        self.buffer.sort_unstable();
        let mut writer = RunWriter::new(&mut self.store);
        for record in &self.buffer {
            writer.push(record)?;
        }
        let run = writer.finish()?;
        self.stats.runs += 1;
        self.stats.spilled_records += run.records;
        self.stats.spilled_bytes += run.bytes;
        self.stats.spill_pages += run.pages.len() as u64;
        self.runs.push(run);
        self.buffer.clear();
        Ok(())
    }

    /// Spill accounting so far (complete once [`ExternalSorter::finish`]
    /// has been called).
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Ends the input and returns the merged, ordered stream.
    pub fn finish(mut self) -> Result<SortedStream<R, S>, StorageError> {
        if self.runs.is_empty() {
            // Fast path: everything fit in memory; no scratch I/O at all.
            self.buffer.sort_unstable();
            return Ok(SortedStream {
                store: self.store,
                in_memory: self.buffer.into_iter(),
                readers: Vec::new(),
                heap: BinaryHeap::new(),
                stats: self.stats,
            });
        }
        if !self.buffer.is_empty() {
            self.spill_run()?;
        }
        let store = self.store;
        let runs = self.runs;
        let mut readers: Vec<RunCursor> = runs.into_iter().map(RunCursor::new).collect();
        let mut heap = BinaryHeap::with_capacity(readers.len());
        for (i, reader) in readers.iter_mut().enumerate() {
            if let Some(record) = reader.next_record(&store)? {
                heap.push(HeapEntry { record, run: i });
            }
        }
        Ok(SortedStream {
            store,
            in_memory: Vec::new().into_iter(),
            readers,
            heap,
            stats: self.stats,
        })
    }
}

/// Heap entry for the k-way merge: min-record first (reversed `Ord`),
/// run index as a tiebreaker so the merge is deterministic even if a
/// caller's `Ord` is not total across runs.
struct HeapEntry<R> {
    record: R,
    run: usize,
}

impl<R: Ord> PartialEq for HeapEntry<R> {
    fn eq(&self, other: &Self) -> bool {
        self.record == other.record && self.run == other.run
    }
}
impl<R: Ord> Eq for HeapEntry<R> {}
impl<R: Ord> PartialOrd for HeapEntry<R> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<R: Ord> Ord for HeapEntry<R> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for ascending output.
        other
            .record
            .cmp(&self.record)
            .then_with(|| other.run.cmp(&self.run))
    }
}

/// The ordered output of an [`ExternalSorter`]: either the in-memory
/// buffer (nothing spilled) or a k-way merge over the spilled runs.
pub struct SortedStream<R: SpillRecord, S: PageStore> {
    store: S,
    in_memory: std::vec::IntoIter<R>,
    readers: Vec<RunCursor>,
    heap: BinaryHeap<HeapEntry<R>>,
    stats: SpillStats,
}

impl<R: SpillRecord, S: PageStore> SortedStream<R, S> {
    /// The next record in sort order, without consuming it.
    pub fn peek(&self) -> Option<&R> {
        if self.readers.is_empty() {
            self.in_memory.as_slice().first()
        } else {
            self.heap.peek().map(|e| &e.record)
        }
    }

    /// Consumes and returns the next record in sort order.
    #[allow(clippy::should_implement_trait)] // fallible next; Iterator via map elsewhere
    pub fn next(&mut self) -> Result<Option<R>, StorageError> {
        if self.readers.is_empty() {
            return Ok(self.in_memory.next());
        }
        let Some(top) = self.heap.pop() else {
            return Ok(None);
        };
        if let Some(record) = self.readers[top.run].next_record(&self.store)? {
            self.heap.push(HeapEntry {
                record,
                run: top.run,
            });
        }
        Ok(Some(top.record))
    }

    /// Final spill accounting for the sort.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    /// A small fixed-size test record: sort key plus payload.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Rec {
        key: u64,
        payload: u64,
    }

    impl SpillRecord for Rec {
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.key.to_le_bytes());
            out.extend_from_slice(&self.payload.to_le_bytes());
        }
        fn decode(buf: &[u8]) -> Result<Self, StorageError> {
            if buf.len() != 16 {
                return Err(StorageError::Corrupt(format!(
                    "bad Rec length {}",
                    buf.len()
                )));
            }
            Ok(Rec {
                key: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
                payload: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            })
        }
    }

    /// Variable-length record exercising page-spanning payloads.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct VarRec {
        key: u64,
        data: Vec<u8>,
    }

    impl SpillRecord for VarRec {
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.key.to_le_bytes());
            out.extend_from_slice(&self.data);
        }
        fn decode(buf: &[u8]) -> Result<Self, StorageError> {
            Ok(VarRec {
                key: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
                data: buf[8..].to_vec(),
            })
        }
    }

    /// Deterministic pseudo-shuffle permutation of 0..n (LCG walk).
    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut values: Vec<u64> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..values.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            values.swap(i, j);
        }
        values
    }

    #[test]
    fn run_round_trip_preserves_records_and_order() {
        let mut store = MemStore::new();
        let records: Vec<Rec> = (0..1000)
            .map(|i| Rec {
                key: i,
                payload: i * 7,
            })
            .collect();
        let mut writer = RunWriter::new(&mut store);
        for r in &records {
            writer.push(r).unwrap();
        }
        let run = writer.finish().unwrap();
        assert_eq!(run.records, 1000);
        assert_eq!(run.bytes, 1000 * (16 + 4));
        assert_eq!(run.pages.len() as u64, run.bytes.div_ceil(PAGE_SIZE as u64));

        let mut reader = RunCursor::new(run);
        let mut back = Vec::new();
        while let Some(r) = reader.next_record::<Rec, _>(&store).unwrap() {
            back.push(r);
        }
        assert_eq!(back, records);
    }

    #[test]
    fn variable_records_span_page_boundaries() {
        let mut store = MemStore::new();
        // Payloads larger than a page force multi-page records.
        let records: Vec<VarRec> = (0..10u64)
            .map(|i| VarRec {
                key: i,
                data: vec![i as u8; 1500 + (i as usize) * 700],
            })
            .collect();
        let mut writer = RunWriter::new(&mut store);
        for r in &records {
            writer.push(r).unwrap();
        }
        let run = writer.finish().unwrap();
        let mut reader = RunCursor::new(run);
        for expected in &records {
            let got: VarRec = reader.next_record(&store).unwrap().unwrap();
            assert_eq!(&got, expected);
        }
        assert!(reader.next_record::<VarRec, _>(&store).unwrap().is_none());
    }

    #[test]
    fn external_sort_recovers_a_seeded_shuffle() {
        // The satellite-task scenario: shuffle 0..n, push through a sorter
        // with a budget far below n (many runs), merge, and require the
        // exact identity sequence back.
        let n = 20_000u64;
        let mut sorter: ExternalSorter<Rec, MemStore> = ExternalSorter::in_memory(777);
        for key in shuffled(n, 42) {
            sorter.push(Rec { key, payload: !key }).unwrap();
        }
        let mut stream = sorter.finish().unwrap();
        let stats = stream.stats();
        assert!(stats.runs >= (n / 777), "expected many runs, got {stats:?}");
        assert_eq!(stats.spilled_records, n);
        assert!(stats.peak_buffered <= 777);
        assert!(stats.spill_pages > 0);

        let mut expected = 0u64;
        while let Some(r) = stream.next().unwrap() {
            assert_eq!(r.key, expected);
            assert_eq!(r.payload, !expected);
            expected += 1;
        }
        assert_eq!(expected, n);
    }

    #[test]
    fn in_memory_fast_path_never_spills() {
        let mut sorter: ExternalSorter<Rec, MemStore> = ExternalSorter::in_memory(1000);
        for key in shuffled(500, 7) {
            sorter.push(Rec { key, payload: 0 }).unwrap();
        }
        let mut stream = sorter.finish().unwrap();
        assert_eq!(stream.stats().runs, 0);
        assert_eq!(stream.stats().spill_pages, 0);
        let mut out = Vec::new();
        while let Some(r) = stream.next().unwrap() {
            out.push(r.key);
        }
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn peek_tracks_the_merge_head() {
        let mut sorter: ExternalSorter<Rec, MemStore> = ExternalSorter::in_memory(10);
        for key in shuffled(100, 3) {
            sorter.push(Rec { key, payload: 0 }).unwrap();
        }
        let mut stream = sorter.finish().unwrap();
        for expected in 0..100 {
            assert_eq!(stream.peek().unwrap().key, expected);
            assert_eq!(stream.next().unwrap().unwrap().key, expected);
        }
        assert!(stream.peek().is_none());
        assert!(stream.next().unwrap().is_none());
    }

    #[test]
    fn empty_sorter_yields_empty_stream() {
        let sorter: ExternalSorter<Rec, MemStore> = ExternalSorter::in_memory(10);
        assert!(sorter.is_empty());
        let mut stream = sorter.finish().unwrap();
        assert!(stream.peek().is_none());
        assert!(stream.next().unwrap().is_none());
    }

    #[test]
    fn duplicate_keys_merge_deterministically() {
        // Same key in every run: the run-index tiebreak keeps the merge
        // total; repeated sorts give identical sequences.
        let build = || {
            let mut sorter: ExternalSorter<Rec, MemStore> = ExternalSorter::in_memory(8);
            for i in 0..64u64 {
                sorter
                    .push(Rec {
                        key: i % 4,
                        payload: i,
                    })
                    .unwrap();
            }
            let mut stream = sorter.finish().unwrap();
            let mut out = Vec::new();
            while let Some(r) = stream.next().unwrap() {
                out.push((r.key, r.payload));
            }
            out
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stats_accumulate_sums_and_maxes() {
        let a = SpillStats {
            runs: 2,
            spilled_records: 10,
            spilled_bytes: 100,
            spill_pages: 1,
            peak_buffered: 5,
        };
        let mut b = SpillStats {
            runs: 1,
            spilled_records: 3,
            spilled_bytes: 30,
            spill_pages: 1,
            peak_buffered: 9,
        };
        b.accumulate(&a);
        assert_eq!(b.runs, 3);
        assert_eq!(b.spilled_records, 13);
        assert_eq!(b.spilled_bytes, 130);
        assert_eq!(b.spill_pages, 2);
        assert_eq!(b.peak_buffered, 9);
    }
}
