//! Crash-durable page store: a [`PageStore`] wrapper that makes the
//! write-ahead log in [`crate::wal`] the *only* thing that touches the
//! backing store between checkpoints.
//!
//! ## Design
//!
//! * **Allocations are immediate** — the wrapped store stays the single
//!   allocation authority, so WAL pages and data pages can never collide.
//! * **Page writes are deferred** into an in-memory overlay of shared
//!   [`Page`] handles; **frees are deferred** into a pending set. Between
//!   checkpoints, the only pages physically written are the log's own.
//! * Everything reaches the log through one append, [`Wal::append`]: a
//!   group commit of logical records ([`DurableStore::append_records`]),
//!   or a checkpoint's group.
//! * A **checkpoint** is one group: a full image of every overlaid page
//!   followed by a [`WalRecord::Checkpoint`] carrying the cumulative free
//!   list and an opaque snapshot. The images stream from the overlay into
//!   log pages one frame at a time, so the group is never collected in
//!   memory, and the group's last page write is the commit point. Then the
//!   dirty pages are written back, and a fresh log generation starts whose
//!   head-slot write atomically retires the old log.
//! * [`DurableStore::create`] commits the first checkpoint itself, so every
//!   store it returns is recoverable.
//! * **Recovery** ([`DurableStore::open`]) picks the newest log
//!   generation holding a committed checkpoint, truncates any torn tail,
//!   replays the page images preceding the last checkpoint (idempotent —
//!   the write-back may have half-happened), applies its free list, and
//!   hands the logical records appended after it to the layer above.
//!
//! Crashes can leak pages (allocated but unreferenced — e.g. log
//! continuations linked by a head write that never landed); leaks are
//! harmless and reclaimed when the layer above compacts or persists.
//!
//! Page 0 of a durable store is a header naming the two WAL head slots:
//! `[0..8) magic, [8..16) format version, [16..24) slot 0, [24..32)
//! slot 1`.

use crate::wal::{Wal, WalRecord};
use crate::{Page, PageId, PageStore, StorageError};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Magic tag identifying the durable-store header page.
const HEADER_MAGIC: u64 = 0x464C_4154_4455_5231; // "FLATDUR1"

/// Durable-store format version.
const HEADER_VERSION: u64 = 1;

/// What [`DurableStore::open`] recovered from the log.
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

/// A [`PageStore`] made crash-durable by write-ahead logging. See the
/// module docs for the protocol.
#[derive(Debug)]
pub struct DurableStore<S: PageStore> {
    inner: S,
    wal: Wal,
    header: PageId,
    /// Dirty pages: written since the last checkpoint, not yet on store.
    /// Ascending, the order a checkpoint logs and writes them back in.
    overlay: BTreeMap<u64, Page>,
    /// Frees deferred since the last checkpoint.
    freed: BTreeSet<u64>,
    /// Cache of the wrapped store's own free list (kept exact so freed
    /// pages can be fenced without an O(n) scan per access).
    inner_free: BTreeSet<u64>,
}

impl<S: PageStore> DurableStore<S> {
    /// Initialises a durable store over an **empty** backing store: lays
    /// down the header and the WAL slots, then commits `initial_snapshot`
    /// as the first checkpoint, so the returned store is recoverable. A
    /// crash inside `create` leaves a store that [`DurableStore::open`]
    /// refuses with [`StorageError::Corrupt`]: it never reached a durable
    /// state.
    pub fn create(mut inner: S, initial_snapshot: &[u8]) -> Result<DurableStore<S>, StorageError> {
        if inner.num_pages() != 0 {
            return Err(StorageError::Corrupt(
                "durable store requires an empty backing store".into(),
            ));
        }
        let header = inner.alloc()?;
        debug_assert_eq!(header, PageId(0));
        let wal = Wal::create(&mut inner)?;
        let mut page = Page::new();
        page.put_u64(0, HEADER_MAGIC);
        page.put_u64(8, HEADER_VERSION);
        page.put_u64(16, wal.slots()[0].0);
        page.put_u64(24, wal.slots()[1].0);
        inner.write_page(header, &page)?;
        inner.sync()?;
        let mut store = DurableStore {
            inner,
            wal,
            header,
            overlay: BTreeMap::new(),
            freed: BTreeSet::new(),
            inner_free: BTreeSet::new(),
        };
        // Nothing is dirty and no earlier snapshot exists: the cheap
        // checkpoint's precondition holds trivially.
        store.checkpoint_rebase(initial_snapshot)?;
        Ok(store)
    }

    /// Opens a durable store left by a previous session (or crash):
    /// recovers the last committed checkpoint, redoes its write-back,
    /// and returns the [`RecoveredLog`] for the layer above.
    pub fn open(mut inner: S) -> Result<(DurableStore<S>, RecoveredLog), StorageError> {
        let mut header = Page::new();
        inner
            .read_page(PageId(0), &mut header)
            .map_err(|e| StorageError::Corrupt(format!("durable store header unreadable: {e}")))?;
        if header.get_u64(0) != HEADER_MAGIC {
            return Err(StorageError::Corrupt(
                "not a durable store (header magic mismatch)".into(),
            ));
        }
        if header.get_u64(8) != HEADER_VERSION {
            return Err(StorageError::Corrupt(format!(
                "unsupported durable store version {}",
                header.get_u64(8)
            )));
        }
        let slots = [PageId(header.get_u64(16)), PageId(header.get_u64(24))];
        let (wal, records, torn_truncated) = Wal::open(&inner, slots)?;

        let last_ckpt = records
            .iter()
            .rposition(|r| matches!(r, WalRecord::Checkpoint { .. }))
            .expect("Wal::open only returns generations holding a checkpoint");
        let (free, snapshot) = match &records[last_ckpt] {
            WalRecord::Checkpoint { free, snapshot } => (free.clone(), snapshot.clone()),
            _ => unreachable!(),
        };

        // Pages the redo must never touch: the log's own pages (the
        // allocator may have reused ids from the checkpoint's free list
        // for the current log chain), the header, and anything already
        // free on the store.
        let keep: HashSet<u64> = wal.pages().iter().map(|p| p.0).chain([0u64]).collect();
        let free_set: HashSet<u64> = free.iter().copied().collect();
        let mut inner_free: BTreeSet<u64> = inner.free_pages().iter().map(|p| p.0).collect();

        // Redo the write-back: page images in log order (later images of
        // the same page win by overwriting), skipping pages whose content
        // is moot at the checkpoint (free) or owned by the log.
        for record in &records[..last_ckpt] {
            if let WalRecord::PageImage { page, bytes } = record {
                if keep.contains(page) || free_set.contains(page) || inner_free.contains(page) {
                    continue;
                }
                if *page >= inner.num_pages() {
                    return Err(StorageError::Corrupt(format!(
                        "WAL image for unallocated page#{page}"
                    )));
                }
                inner.write_page(PageId(*page), bytes)?;
            }
        }
        // Then the checkpoint's frees (idempotent: the crash may have
        // happened mid-write-back, after some frees already applied).
        for &page in &free {
            if keep.contains(&page) || inner_free.contains(&page) || page >= inner.num_pages() {
                continue;
            }
            inner.free_page(PageId(page))?;
            inner_free.insert(page);
        }
        inner.sync()?;

        let logical = records[last_ckpt + 1..]
            .iter()
            .filter_map(|r| match r {
                WalRecord::Logical(bytes) => Some(bytes.clone()),
                _ => None,
            })
            .collect();
        Ok((
            DurableStore {
                inner,
                wal,
                header: PageId(0),
                overlay: BTreeMap::new(),
                freed: BTreeSet::new(),
                inner_free,
            },
            RecoveredLog {
                snapshot,
                logical,
                torn_truncated,
            },
        ))
    }

    /// Appends logical records as **one group commit**: one atomic log
    /// publish and one sync for the whole group, so a crash exposes all
    /// of the records or none of them. Once this returns, the group
    /// survives any crash.
    pub fn append_records(
        &mut self,
        payloads: impl IntoIterator<Item = Vec<u8>>,
    ) -> Result<(), StorageError> {
        self.log(payloads.into_iter().map(WalRecord::Logical))?;
        self.inner.sync()
    }

    /// Checkpoints: commits the current overlay + pending frees + the
    /// caller's `snapshot` as the new durable baseline, writes the dirty
    /// pages back, and truncates the log. On return the store's durable
    /// state is exactly its in-memory state and the log holds only the
    /// new baseline checkpoint.
    pub fn checkpoint(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        let ckpt = self.checkpoint_record(snapshot);
        // One group: a full image of every dirty page, then the checkpoint
        // record — the commit point for this durable state. The images
        // stream out of the overlay frame by frame.
        let overlay = std::mem::take(&mut self.overlay);
        let images = overlay.iter().map(|(&page, bytes)| WalRecord::PageImage {
            page,
            bytes: bytes.clone(),
        });
        let logged = self.log(images.chain([ckpt.clone()]));
        self.overlay = overlay;
        logged?;
        self.inner.sync()?;
        self.finish_checkpoint(ckpt)
    }

    /// Checkpoints **without** logging page images first: the dirty
    /// pages go straight to the store, then the new baseline commits.
    ///
    /// Only safe when the *previous* durable snapshot references none of
    /// the currently dirty or pending-free pages (e.g. the initial bulk
    /// build over a freshly created store): a crash mid-write-back must
    /// still leave the old baseline's pages intact, and without images
    /// the redo cannot restore pages this write-back overwrote.
    pub fn checkpoint_rebase(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        let ckpt = self.checkpoint_record(snapshot);
        self.finish_checkpoint(ckpt)
    }

    /// The checkpoint record for the current state: cumulative free list
    /// (store frees plus pending frees) and the caller's snapshot.
    fn checkpoint_record(&self, snapshot: &[u8]) -> WalRecord {
        let mut free: Vec<u64> = self
            .inner_free
            .iter()
            .chain(self.freed.iter())
            .copied()
            .collect();
        free.sort_unstable();
        WalRecord::Checkpoint {
            free,
            snapshot: snapshot.to_vec(),
        }
    }

    /// Write-back + generation switch, shared by both checkpoint paths.
    fn finish_checkpoint(&mut self, ckpt: WalRecord) -> Result<(), StorageError> {
        // Write-back: dirty pages to the store, pending frees applied.
        for (&id, page) in &self.overlay {
            self.inner.write_page(PageId(id), page)?;
        }
        for &id in &self.freed {
            self.inner.free_page(PageId(id))?;
            self.inner_free.insert(id);
        }
        self.inner.sync()?;
        // Atomic switch to a fresh generation headed by the checkpoint.
        let old = self.wal.begin_generation(&mut self.inner, ckpt)?;
        self.claim_log_pages(0);
        self.inner.sync()?;
        // Old log pages are dead; reclaim them.
        for id in old {
            self.inner.free_page(id)?;
            self.inner_free.insert(id.0);
        }
        self.overlay.clear();
        self.freed.clear();
        Ok(())
    }

    /// The one log append: `records` as one group (see [`Wal::append`]).
    fn log(&mut self, records: impl IntoIterator<Item = WalRecord>) -> Result<(), StorageError> {
        let before = self.wal.chain().len();
        self.wal.append(&mut self.inner, records)?;
        self.claim_log_pages(before);
        Ok(())
    }

    /// Keeps the free-list cache exact when the log chain, from page
    /// `from` on, grew into previously freed pages.
    fn claim_log_pages(&mut self, from: usize) {
        for id in &self.wal.chain()[from..] {
            self.inner_free.remove(&id.0);
        }
    }

    /// Pages owned by the durability machinery itself: the header plus
    /// the log's slots and chain.
    pub fn meta_pages(&self) -> Vec<PageId> {
        let mut out = vec![self.header];
        out.extend(self.wal.pages());
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the backing store, **dropping** the overlay and pending
    /// frees — exactly what a crash does to RAM. The store then holds
    /// the last checkpoint plus the committed log.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PageStore> PageStore for DurableStore<S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        // Lowest free id wins across both free sets, preserving the
        // trait's reuse order.
        let deferred = self.freed.first().copied();
        let on_store = self.inner_free.first().copied();
        match (deferred, on_store) {
            (Some(d), o) if o.is_none_or(|i| d < i) => {
                self.freed.remove(&d);
                self.overlay.insert(d, Page::new());
                Ok(PageId(d))
            }
            _ => {
                let id = self.inner.alloc()?;
                self.inner_free.remove(&id.0);
                Ok(id)
            }
        }
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
        if id.0 >= self.inner.num_pages() {
            return Err(StorageError::PageOutOfRange {
                page: id,
                allocated: self.inner.num_pages(),
            });
        }
        if self.freed.contains(&id.0) || self.inner_free.contains(&id.0) {
            return Err(StorageError::Corrupt(format!("access to freed {id}")));
        }
        self.overlay.insert(id.0, page.clone());
        Ok(())
    }

    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
        if let Some(page) = self.overlay.get(&id.0) {
            *out = page.clone();
            return Ok(());
        }
        if self.freed.contains(&id.0) {
            return Err(StorageError::Corrupt(format!("access to freed {id}")));
        }
        self.inner.read_page(id, out)
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
        if id.0 >= self.inner.num_pages() {
            return Err(StorageError::PageOutOfRange {
                page: id,
                allocated: self.inner.num_pages(),
            });
        }
        if self.freed.contains(&id.0) || self.inner_free.contains(&id.0) {
            return Err(StorageError::Corrupt(format!("access to freed {id}")));
        }
        self.overlay.remove(&id.0);
        self.freed.insert(id.0);
        Ok(())
    }

    fn free_pages(&self) -> Vec<PageId> {
        let mut out: Vec<PageId> = self
            .inner_free
            .iter()
            .chain(self.freed.iter())
            .map(|&i| PageId(i))
            .collect();
        out.sort_unstable();
        out
    }

    fn num_free(&self) -> u64 {
        (self.inner_free.len() + self.freed.len()) as u64
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<(), StorageError> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultStore, MemStore, PAGE_SIZE};

    fn write_marked(store: &mut impl PageStore, id: PageId, marker: u64) {
        let mut page = Page::new();
        page.put_u64(0, marker);
        store.write_page(id, &page).unwrap();
    }

    fn read_marker(store: &impl PageStore, id: PageId) -> u64 {
        let mut page = Page::new();
        store.read_page(id, &mut page).unwrap();
        page.get_u64(0)
    }

    fn record(payload: &[u8]) -> [Vec<u8>; 1] {
        [payload.to_vec()]
    }

    #[test]
    fn create_checkpoint_reopen_roundtrip() {
        let mut ds = DurableStore::create(MemStore::new(), b"v0").unwrap();
        let a = ds.alloc().unwrap();
        write_marked(&mut ds, a, 0xA11CE);
        ds.append_records(record(b"op-1")).unwrap();
        ds.checkpoint(b"v1").unwrap();
        ds.append_records(record(b"op-2")).unwrap();

        let (ds2, log) = DurableStore::open(ds.into_inner()).unwrap();
        assert_eq!(log.snapshot, b"v1");
        assert_eq!(log.logical, vec![b"op-2".to_vec()]);
        assert!(!log.torn_truncated);
        assert_eq!(read_marker(&ds2, a), 0xA11CE);
    }

    #[test]
    fn logging_requires_a_checkpoint() {
        // `create` commits the first checkpoint, so its store recovers...
        let ds = DurableStore::create(MemStore::new(), b"genesis").unwrap();
        let active = ds.wal.chain()[0];
        let (ds, log) = DurableStore::open(ds.into_inner()).unwrap();
        assert_eq!(log.snapshot, b"genesis");
        assert!(log.logical.is_empty());
        // ...and undoing that checkpoint's head write — the state a crash
        // inside `create` leaves — leaves no generation to recover.
        let mut store = ds.into_inner();
        store.write_page(active, &Page::new()).unwrap();
        assert!(matches!(
            DurableStore::open(store),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn uncheckpointed_overlay_is_lost_like_ram() {
        let mut ds = DurableStore::create(MemStore::new(), b"base").unwrap();
        let a = ds.alloc().unwrap();
        write_marked(&mut ds, a, 7);
        ds.checkpoint(b"with-a").unwrap();
        write_marked(&mut ds, a, 8); // dirty, never checkpointed
        assert_eq!(read_marker(&ds, a), 8, "reads see the overlay");

        let (ds2, log) = DurableStore::open(ds.into_inner()).unwrap();
        assert_eq!(log.snapshot, b"with-a");
        assert_eq!(
            read_marker(&ds2, a),
            7,
            "recovery is the checkpointed state"
        );
    }

    #[test]
    fn frees_are_deferred_and_survive_recovery_cumulatively() {
        let mut ds = DurableStore::create(MemStore::new(), b"").unwrap();
        let a = ds.alloc().unwrap();
        let b = ds.alloc().unwrap();
        write_marked(&mut ds, a, 1);
        write_marked(&mut ds, b, 2);
        ds.checkpoint(b"both").unwrap();
        ds.free_page(a).unwrap();
        // Fenced immediately, applied to the store only at checkpoint.
        assert!(ds.read_page(a, &mut Page::new()).is_err());
        assert!(ds.write_page(a, &Page::new()).is_err());
        assert!(ds.free_page(a).is_err(), "double free");
        ds.checkpoint(b"freed-a").unwrap();
        ds.free_page(b).unwrap();
        ds.checkpoint(b"freed-b").unwrap();

        // Both frees (one per checkpoint cycle) are in the durable state.
        let (ds2, _) = DurableStore::open(ds.into_inner()).unwrap();
        let free = ds2.free_pages();
        assert!(free.contains(&a) && free.contains(&b));
        assert!(ds2.read_page(a, &mut Page::new()).is_err());
    }

    #[test]
    fn alloc_reuses_lowest_free_across_both_sets() {
        let mut ds = DurableStore::create(MemStore::new(), b"").unwrap();
        let ids: Vec<PageId> = (0..4).map(|_| ds.alloc().unwrap()).collect();
        for &id in &ids {
            write_marked(&mut ds, id, id.0);
        }
        ds.free_page(ids[2]).unwrap();
        ds.checkpoint(b"ckpt").unwrap(); // ids[2] now free on the store
        ds.free_page(ids[0]).unwrap(); // deferred
                                       // Lowest id first: ids[0] (deferred) before ids[2] (on-store)...
        let r1 = ds.alloc().unwrap();
        assert_eq!(r1, ids[0]);
        assert_eq!(read_marker(&ds, r1), 0, "reused page reads zeroed");
        // ...unless the log chain reused it first, which alloc reflects.
        let r2 = ds.alloc().unwrap();
        assert!(r2 == ids[2] || r2.0 >= ds.num_pages() - 1);
    }

    #[test]
    fn crash_between_checkpoints_recovers_the_last_commit() {
        let mut ds = DurableStore::create(FaultStore::new(MemStore::new()), b"").unwrap();
        let a = ds.alloc().unwrap();
        write_marked(&mut ds, a, 10);
        ds.append_records(record(b"L1")).unwrap();
        ds.checkpoint(b"c1").unwrap();
        write_marked(&mut ds, a, 20);
        ds.append_records(record(b"L2")).unwrap();
        ds.append_records(record(b"L3")).unwrap();

        // "Crash": drop the overlay by unwrapping, reopen the raw store.
        let frozen = ds.into_inner().into_inner();
        let (ds2, log) = DurableStore::open(frozen).unwrap();
        assert_eq!(log.snapshot, b"c1");
        assert_eq!(log.logical, vec![b"L2".to_vec(), b"L3".to_vec()]);
        assert_eq!(
            read_marker(&ds2, a),
            10,
            "uncheckpointed image lost, logged ops returned"
        );
    }

    #[test]
    fn kill_points_across_a_checkpoint_never_lose_the_commit() {
        // Baseline run: count the writes a full create→ops→checkpoint→ops
        // session issues, then kill at every write index and reopen.
        let total = {
            let mut ds = DurableStore::create(FaultStore::new(MemStore::new()), b"").unwrap();
            session(&mut ds);
            ds.inner().writes_done()
        };
        for kill in 0..=total {
            let mut ds =
                match DurableStore::create(FaultStore::crash_after(MemStore::new(), kill), b"") {
                    Ok(ds) => ds,
                    Err(_) => continue, // killed inside create: nothing durable yet
                };
            let mut committed: Vec<&[u8]> = vec![];
            committed_session(&mut ds, &mut committed).ok();
            let frozen = ds.into_inner().into_inner();
            match DurableStore::open(frozen) {
                Ok((_, log)) => {
                    // Every op acked before the kill must be in the log.
                    let got: Vec<&[u8]> = log.logical.iter().map(|v| v.as_slice()).collect();
                    for want in &committed {
                        if log.snapshot == b"mid" {
                            // ops before the mid checkpoint were folded in
                            if *want == b"before".as_slice() {
                                continue;
                            }
                            assert!(got.contains(want), "kill={kill}: lost committed {want:?}");
                        } else {
                            assert_eq!(log.snapshot, b"");
                        }
                    }
                }
                Err(e) => panic!("kill={kill}: a created store must recover, got {e:?}"),
            }
        }

        fn session(ds: &mut DurableStore<FaultStore<MemStore>>) {
            let mut committed = vec![];
            committed_session(ds, &mut committed).unwrap();
        }

        fn committed_session(
            ds: &mut DurableStore<FaultStore<MemStore>>,
            committed: &mut Vec<&'static [u8]>,
        ) -> Result<(), StorageError> {
            let a = ds.alloc()?;
            let mut page = Page::new();
            page.put_u64(0, 0xBEEF);
            ds.write_page(a, &page)?;
            ds.append_records(record(b"before"))?;
            committed.push(b"before");
            ds.checkpoint(b"mid")?;
            ds.append_records(record(b"after"))?;
            committed.push(b"after");
            Ok(())
        }
    }

    #[test]
    fn group_commit_recovers_all_records_with_fewer_writes() {
        let mut grouped = DurableStore::create(FaultStore::new(MemStore::new()), b"base").unwrap();
        let payloads: Vec<Vec<u8>> = (0u8..6).map(|i| vec![i; 40]).collect();
        let before = grouped.inner.writes_done();
        grouped.append_records(payloads.clone()).unwrap();
        let grouped_writes = grouped.inner.writes_done() - before;

        let mut single = DurableStore::create(FaultStore::new(MemStore::new()), b"base").unwrap();
        let before = single.inner.writes_done();
        for p in &payloads {
            single.append_records([p.clone()]).unwrap();
        }
        let single_writes = single.inner.writes_done() - before;
        assert!(
            grouped_writes < single_writes,
            "group commit must coalesce head-page publishes ({grouped_writes} vs {single_writes})"
        );

        let (_, log) = DurableStore::open(grouped.into_inner().into_inner()).unwrap();
        assert_eq!(log.logical, payloads);
        assert!(!log.torn_truncated);

        // An empty group writes nothing.
        let before = single.inner.writes_done();
        single.append_records([]).unwrap();
        assert_eq!(single.inner.writes_done(), before);
    }

    #[test]
    fn a_checkpoint_writes_each_log_page_once() {
        // N dirty pages: the checkpoint's group is N image frames plus the
        // checkpoint frame. Laid as one stream, it fills at most one page
        // per payload's worth of bytes, plus the page the log ended in.
        const N: usize = 96;
        let mut ds = DurableStore::create(FaultStore::new(MemStore::new()), b"").unwrap();
        for _ in 0..N {
            let id = ds.alloc().unwrap();
            write_marked(&mut ds, id, id.0);
        }
        let before = ds.inner.writes_done();
        ds.checkpoint(b"images").unwrap();
        let writes = (ds.inner.writes_done() - before) as usize;
        let image_frame = 8 + 1 + 8 + PAGE_SIZE;
        let checkpoint_frame = 8 + 1 + 8 + 8 + b"images".len(); // empty free list
        let stream = N * image_frame + checkpoint_frame;
        let log_writes = writes - N - ds.wal.chain().len(); // minus write-back and new head
        assert!(
            log_writes <= stream.div_ceil(PAGE_SIZE - 8) + 1,
            "{log_writes} log-page writes for a {stream}-byte group"
        );
        let (ds2, log) = DurableStore::open(ds.into_inner().into_inner()).unwrap();
        assert_eq!(log.snapshot, b"images");
        assert_eq!(
            read_marker(&ds2, PageId(3 + N as u64 - 1)),
            3 + N as u64 - 1
        );
    }

    #[test]
    fn torn_log_tail_truncates_to_committed_prefix() {
        let mut ds = DurableStore::create(MemStore::new(), b"").unwrap();
        ds.append_records(record(b"committed")).unwrap();
        let tail = *ds.wal.chain().last().unwrap();
        let mut store = ds.into_inner();
        // Corrupt a payload byte of the *logical* record, which follows
        // the generation's 25-byte checkpoint record in the stream
        // (page offset = 24-byte head header + stream offset 25+8+2).
        let mut page = Page::new();
        store.read_page(tail, &mut page).unwrap();
        page.bytes_mut()[24 + 35] ^= 0x10;
        store.write_page(tail, &page).unwrap();

        let (_, log) = DurableStore::open(store).unwrap();
        assert!(log.torn_truncated);
        assert!(
            log.logical.is_empty(),
            "corrupt record truncated, not replayed"
        );
    }

    #[test]
    fn meta_page_accessor() {
        let ds = DurableStore::create(MemStore::new(), b"").unwrap();
        let meta = ds.meta_pages();
        assert!(meta.contains(&PageId(0)), "header is a meta page");
        assert!(meta.len() >= 3, "header + two slots at minimum");
    }
}
