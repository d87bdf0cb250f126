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
//! Determinism: sort and merge order is defined entirely by the record's
//! key ([`SpillRecord::key`]). Callers that need a *stable* external sort
//! (the FLAT build does — its in-memory twin uses stable sorts) embed an
//! input sequence number in the record and include it in the key, making
//! every key unique and the sort order total. With unique keys, buffer
//! sorting may be unstable and run boundaries cannot affect the merged
//! order, so the external sort is bit-compatible with an in-memory stable
//! sort.

use crate::{Page, PageId, PageStore, Reader, StorageError, PAGE_SIZE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A record that can be spilled to scratch pages and merged back in order
/// of its key.
///
/// The key order must be *total* and match the desired sort order;
/// include a unique tiebreaker (record id or input sequence number) so
/// that external and in-memory sorts agree bit-for-bit.
pub trait SpillRecord: Sized {
    /// What the record sorts by.
    type Key: Ord;

    /// The record's sort key.
    fn key(&self) -> Self::Key;

    /// Appends the serialized record to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one record from the bytes `encode` produced; the caller
    /// rejects any bytes the decoder leaves ([`Reader::finish`]).
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError>;
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
        let len = u64::from(u32::from_le_bytes(prefix));
        if len > self.run.bytes.saturating_sub(self.consumed) {
            return Err(StorageError::Corrupt(format!(
                "spill record of {len} bytes overruns its run"
            )));
        }
        self.scratch.resize(len as usize, 0);
        let mut payload = std::mem::take(&mut self.scratch);
        self.read_bytes(store, &mut payload)?;
        let mut r = Reader::new(&payload, std::any::type_name::<R>());
        let record = R::decode(&mut r).and_then(|record| r.finish().map(|()| record));
        self.scratch = payload;
        record.map(Some)
    }
}

/// Buffers records in memory and spills sorted runs once the buffer
/// exceeds its budget; [`ExternalSorter::finish`] merges everything back
/// in key order.
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
        self.buffer.sort_unstable_by_key(R::key);
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
            self.buffer.sort_unstable_by_key(R::key);
            return Ok(SortedStream {
                store: self.store,
                in_memory: self.buffer.into_iter(),
                runs: Vec::new(),
                heap: BinaryHeap::new(),
                stats: self.stats,
            });
        }
        if !self.buffer.is_empty() {
            self.spill_run()?;
        }
        let store = self.store;
        let mut runs = Vec::with_capacity(self.runs.len());
        let mut heap = BinaryHeap::with_capacity(self.runs.len());
        for (i, run) in self.runs.into_iter().enumerate() {
            let mut cursor = RunCursor::new(run);
            let head: Option<R> = cursor.next_record(&store)?;
            if let Some(record) = &head {
                heap.push(Reverse((record.key(), i)));
            }
            runs.push((cursor, head));
        }
        Ok(SortedStream {
            store,
            in_memory: Vec::new().into_iter(),
            runs,
            heap,
            stats: self.stats,
        })
    }
}

/// The ordered output of an [`ExternalSorter`]: either the in-memory
/// buffer (nothing spilled) or a k-way merge over the spilled runs.
pub struct SortedStream<R: SpillRecord, S: PageStore> {
    store: S,
    in_memory: std::vec::IntoIter<R>,
    /// Each spilled run's cursor and its head record (`None` once the run
    /// is spent).
    runs: Vec<(RunCursor, Option<R>)>,
    /// The heads' keys, least first, each with its run's index: the index
    /// breaks ties, so the merge is deterministic even where a key is not
    /// unique across runs.
    heap: BinaryHeap<Reverse<(R::Key, usize)>>,
    stats: SpillStats,
}

impl<R: SpillRecord, S: PageStore> SortedStream<R, S> {
    /// The next record in sort order, without consuming it.
    pub fn peek(&self) -> Option<&R> {
        if self.runs.is_empty() {
            self.in_memory.as_slice().first()
        } else {
            let Reverse((_, run)) = self.heap.peek()?;
            self.runs[*run].1.as_ref()
        }
    }

    /// Consumes and returns the next record in sort order.
    #[allow(clippy::should_implement_trait)] // fallible next; Iterator via map elsewhere
    pub fn next(&mut self) -> Result<Option<R>, StorageError> {
        if self.runs.is_empty() {
            return Ok(self.in_memory.next());
        }
        let Some(Reverse((_, run))) = self.heap.pop() else {
            return Ok(None);
        };
        let (cursor, head) = &mut self.runs[run];
        let next: Option<R> = cursor.next_record(&self.store)?;
        if let Some(record) = &next {
            self.heap.push(Reverse((record.key(), run)));
        }
        Ok(std::mem::replace(head, next))
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
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Rec {
        key: u64,
        payload: u64,
    }

    impl SpillRecord for Rec {
        type Key = (u64, u64);
        fn key(&self) -> (u64, u64) {
            (self.key, self.payload)
        }
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.key.to_le_bytes());
            out.extend_from_slice(&self.payload.to_le_bytes());
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
            Ok(Rec {
                key: r.u64()?,
                payload: r.u64()?,
            })
        }
    }

    /// Variable-length record exercising page-spanning payloads.
    #[derive(Debug, Clone, PartialEq)]
    struct VarRec {
        key: u64,
        data: Vec<u8>,
    }

    impl SpillRecord for VarRec {
        type Key = u64;
        fn key(&self) -> u64 {
            self.key
        }
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.key.to_le_bytes());
            out.extend_from_slice(&self.data);
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
            Ok(VarRec {
                key: r.u64()?,
                data: r.rest().to_vec(),
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

    /// A run holding `bytes` as its one record, written the way
    /// [`RunWriter`] frames records.
    fn run_of(store: &mut MemStore, bytes: &[u8]) -> RunCursor {
        let mut page = Page::new();
        page.bytes_mut()[..4].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
        page.bytes_mut()[4..4 + bytes.len()].copy_from_slice(bytes);
        let id = store.alloc().unwrap();
        store.write_page(id, &page).unwrap();
        RunCursor::new(RunHandle {
            pages: vec![id],
            bytes: 4 + bytes.len() as u64,
            records: 1,
        })
    }

    #[test]
    fn a_record_one_byte_short_or_long_is_corrupt() {
        let mut store = MemStore::new();
        let mut good = Vec::new();
        Rec { key: 1, payload: 2 }.encode(&mut good);
        let mut cursor = run_of(&mut store, &good);
        assert_eq!(
            cursor.next_record::<Rec, _>(&store).unwrap(),
            Some(Rec { key: 1, payload: 2 })
        );
        let mut long = good.clone();
        long.push(0);
        for bad in [&good[..good.len() - 1], &long[..]] {
            let mut cursor = run_of(&mut store, bad);
            let err = cursor.next_record::<Rec, _>(&store).unwrap_err();
            assert!(
                matches!(&err, StorageError::Corrupt(msg) if msg.contains("Rec")),
                "{} bytes: {err}",
                bad.len()
            );
        }
    }

    #[test]
    fn a_length_prefix_past_the_run_is_corrupt_before_allocating() {
        let mut store = MemStore::new();
        let mut cursor = run_of(&mut store, &[0; 16]);
        // Rewrite the prefix to claim u32::MAX payload bytes.
        let mut page = Page::new();
        store.read_page(cursor.run.pages[0], &mut page).unwrap();
        page.bytes_mut()[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        store.write_page(cursor.run.pages[0], &page).unwrap();
        let err = cursor.next_record::<Rec, _>(&store).unwrap_err();
        assert!(err.to_string().contains("overruns its run"), "{err}");
        assert!(cursor.scratch.capacity() < 1 << 20);
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
