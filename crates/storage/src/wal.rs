//! Write-ahead log: an append-only, checksummed record log stored in
//! ordinary store pages.
//!
//! The log is a chain of pages linked by `next` pointers. The chain head
//! is one of **two fixed slot pages** (double-buffered generations): a
//! checkpoint rewrites the *inactive* slot with a fresh generation and
//! the single page write that installs it is the atomic switch. A torn
//! switch leaves the old slot intact, so recovery falls back to the old
//! generation, whose log still ends with the committing checkpoint
//! record.
//!
//! ## Page layout
//!
//! Head slot page: `[0..8) magic, [8..16) generation, [16..24) next page
//! id (`u64::MAX` = none), [24..4096) payload`. Continuation page:
//! `[0..8) next, [8..4096) payload`. Records live in the *concatenated
//! payload stream* and may straddle page boundaries.
//!
//! ## Record framing
//!
//! `[u32 len][u32 crc32][payload]`, little-endian; `len` counts payload
//! bytes and `crc32` covers them (IEEE polynomial). A zero `len` marks
//! the end of the log. The payload starts with a one-byte tag — see
//! [`WalRecord`].
//!
//! ## Atomic append
//!
//! There is one page writer ([`Wal::append`], and [`Wal::begin_generation`]
//! through the same code). It frames each record of a group as it is
//! produced and lays the frame into pages. The page holding the old log
//! end stays in memory. Each freshly allocated continuation page is
//! written as soon as it fills, and the old-end page is written **last**.
//! Until that final write lands, the group is unreachable (the old tail
//! still ends with a zero length or lacks the link), so a crash at any
//! page boundary leaves a log that parses to exactly the previously
//! committed records, and a group commits all of its records or none.
//! Every page the group touches is written once. A *torn* final write
//! garbles the tail page and is caught by the checksum: [`Wal::open`]
//! truncates the log at the last intact record instead of replaying
//! garbage.

use crate::{Page, PageId, PageStore, Reader, StorageError, PAGE_SIZE};

/// Magic tag identifying a head slot page.
const WAL_MAGIC: u64 = 0x464C_4154_5741_4C31; // "FLATWAL1"

/// "No next page" sentinel in chain links.
const NONE: u64 = u64::MAX;

/// Payload bytes in a head slot page.
const HEAD_PAYLOAD: usize = PAGE_SIZE - 24;
/// Payload bytes in a continuation page.
const CONT_PAYLOAD: usize = PAGE_SIZE - 8;

/// CRC-32 (IEEE) over `data`, implemented with a 16-entry nibble table.
fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 16] = [
        0x0000_0000,
        0x1DB7_1064,
        0x3B6E_20C8,
        0x26D9_30AC,
        0x76DC_4190,
        0x6B6B_51F4,
        0x4DB2_6158,
        0x5005_713C,
        0xEDB8_8320,
        0xF00F_9344,
        0xD6D6_A3E8,
        0xCB61_B38C,
        0x9B64_C2B0,
        0x86D3_D2D4,
        0xA00A_E278,
        0xBDBD_F21C,
    ];
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 4) ^ TABLE[((crc ^ b as u32) & 0xF) as usize];
        crc = (crc >> 4) ^ TABLE[((crc ^ (b as u32 >> 4)) & 0xF) as usize];
    }
    !crc
}

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// An opaque logical operation, interpreted by the layer above.
    Logical(Vec<u8>),
    /// A full physical image of one store page, replayed on recovery.
    PageImage {
        /// The page the image belongs to.
        page: u64,
        /// The page's 4 KB contents (a shared handle, not a copy).
        bytes: Page,
    },
    /// A checkpoint: the durable baseline recovery starts from.
    Checkpoint {
        /// The store's page count at the checkpoint. A page at or past it
        /// was allocated after the checkpoint, by a batch a crash loses or
        /// by the log itself.
        pages: u64,
        /// Every page id free once the checkpoint's generation switch is
        /// done — the store's and the versions' free pages and the
        /// retiring log's continuation pages (cumulative, ascending).
        free: Vec<u64>,
        /// Opaque snapshot of the layer above's metadata.
        snapshot: Vec<u8>,
    },
}

const TAG_LOGICAL: u8 = 1;
const TAG_IMAGE: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;

impl WalRecord {
    /// Appends the payload (tag + body, no framing) to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Logical(bytes) => {
                out.push(TAG_LOGICAL);
                out.extend_from_slice(bytes);
            }
            WalRecord::PageImage { page, bytes } => {
                out.push(TAG_IMAGE);
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(bytes.bytes());
            }
            WalRecord::Checkpoint {
                pages,
                free,
                snapshot,
            } => {
                out.push(TAG_CHECKPOINT);
                out.extend_from_slice(&pages.to_le_bytes());
                out.extend_from_slice(&(free.len() as u64).to_le_bytes());
                for id in free {
                    out.extend_from_slice(&id.to_le_bytes());
                }
                out.extend_from_slice(&(snapshot.len() as u64).to_le_bytes());
                out.extend_from_slice(snapshot);
            }
        }
    }

    /// Parses a payload produced by [`WalRecord::encode_into`].
    fn decode(payload: &[u8]) -> Result<WalRecord, StorageError> {
        let mut r = Reader::new(payload, "WAL record");
        let record = match r.u8()? {
            TAG_LOGICAL => WalRecord::Logical(r.rest().to_vec()),
            TAG_IMAGE => {
                let page = r.u64()?;
                let mut bytes = Page::new();
                bytes.bytes_mut().copy_from_slice(r.bytes(PAGE_SIZE)?);
                WalRecord::PageImage { page, bytes }
            }
            TAG_CHECKPOINT => {
                let pages = r.u64()?;
                let free = r.list("free page count", Reader::u64)?;
                let snap_len = r.u64()?;
                let snap_len = r.len(snap_len, "snapshot length")?;
                WalRecord::Checkpoint {
                    pages,
                    free,
                    snapshot: r.bytes(snap_len)?.to_vec(),
                }
            }
            t => return Err(StorageError::Corrupt(format!("unknown WAL record tag {t}"))),
        };
        r.finish()?;
        Ok(record)
    }

    /// Frames the record for the log stream into `out`, replacing its
    /// contents: `[len][crc][payload]`.
    fn frame_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&[0; 8]);
        self.encode_into(out);
        let len = (out.len() - 8) as u32;
        let crc = crc32(&out[8..]);
        out[..4].copy_from_slice(&len.to_le_bytes());
        out[4..8].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Payload byte range of chain page `idx` (`0` = head slot).
fn geom(idx: usize) -> (usize, usize) {
    if idx == 0 {
        (24, HEAD_PAYLOAD)
    } else {
        (8, CONT_PAYLOAD)
    }
}

/// Byte offset of the `next` link in chain page `idx`.
fn next_offset(idx: usize) -> usize {
    if idx == 0 {
        16
    } else {
        0
    }
}

/// Stream offset of the first payload byte of chain page `idx`.
fn page_start(idx: usize) -> usize {
    if idx == 0 {
        0
    } else {
        HEAD_PAYLOAD + (idx - 1) * CONT_PAYLOAD
    }
}

/// The append-only log. See the module docs for format and atomicity.
#[derive(Debug)]
pub struct Wal {
    /// The two fixed head slot pages (double-buffered generations).
    slots: [PageId; 2],
    /// Which slot holds the active generation.
    active: usize,
    /// The active generation number (strictly increasing).
    generation: u64,
    /// Pages of the active generation, head slot first. The last one
    /// holds the log end.
    chain: Vec<PageId>,
    /// Logical end of the record stream, in payload-stream bytes.
    end: u64,
}

impl Wal {
    /// Allocates the two head slots from `store` and installs an empty
    /// generation 1 in the first. The log is append-ready but holds no
    /// checkpoint yet, so [`Wal::open`] refuses it until the first
    /// [`Wal::begin_generation`] commits one — by design: a store that
    /// crashed before its first checkpoint never reached a durable state.
    pub fn create<S: PageStore>(store: &mut S) -> Result<Wal, StorageError> {
        let s0 = store.alloc()?;
        let s1 = store.alloc()?;
        let mut head = Page::new();
        head.put_u64(0, WAL_MAGIC);
        head.put_u64(8, 1);
        head.put_u64(16, NONE);
        store.write_page(s0, &head)?;
        Ok(Wal {
            slots: [s0, s1],
            active: 0,
            generation: 1,
            chain: vec![s0],
            end: 0,
        })
    }

    /// Opens the log from its two head slots, returning the records of
    /// the newest *recoverable* generation (one containing at least one
    /// checkpoint) plus a flag saying whether a torn or corrupt tail was
    /// detected and truncated. Errors with [`StorageError::Corrupt`] if
    /// neither slot holds a committed checkpoint.
    pub fn open<S: PageStore>(
        store: &S,
        slots: [PageId; 2],
    ) -> Result<(Wal, Vec<WalRecord>, bool), StorageError> {
        struct Candidate {
            slot: usize,
            generation: u64,
            chain: Vec<PageId>,
            records: Vec<WalRecord>,
            end: u64,
            torn: bool,
        }
        let mut best: Option<Candidate> = None;
        for (i, &slot) in slots.iter().enumerate() {
            let mut head = Page::new();
            if store.read_page(slot, &mut head).is_err() || head.get_u64(0) != WAL_MAGIC {
                continue;
            }
            let (chain, stream, walk_torn) = walk_chain(store, slot, &head);
            let (records, end, parse_torn) = parse_stream(&stream);
            if !records
                .iter()
                .any(|r| matches!(r, WalRecord::Checkpoint { .. }))
            {
                continue; // not recoverable: no durable baseline
            }
            let candidate = Candidate {
                slot: i,
                generation: head.get_u64(8),
                chain,
                records,
                end,
                torn: walk_torn || parse_torn,
            };
            if best
                .as_ref()
                .is_none_or(|b| candidate.generation > b.generation)
            {
                best = Some(candidate);
            }
        }
        let Some(mut c) = best else {
            return Err(StorageError::Corrupt(
                "write-ahead log holds no committed checkpoint".into(),
            ));
        };
        // Drop chain pages past the record stream's (possibly truncated)
        // end: appends must never scribble on pages a stale or torn link
        // happened to point at.
        c.chain.truncate(pages_for(c.end));
        Ok((
            Wal {
                slots,
                active: c.slot,
                generation: c.generation,
                chain: c.chain,
                end: c.end,
            },
            c.records,
            c.torn,
        ))
    }

    /// Appends `records` as **one atomic group**, framing each record as
    /// the iterator produces it: a crash exposes either all of the group
    /// or none of it. Fresh continuation pages are written as they fill
    /// and the page holding the old log end last, so that final write is
    /// the commit (see the module docs). An empty group writes nothing.
    pub fn append<S: PageStore>(
        &mut self,
        store: &mut S,
        records: impl IntoIterator<Item = WalRecord>,
    ) -> Result<(), StorageError> {
        let mut records = records.into_iter().peekable();
        if records.peek().is_none() {
            return Ok(());
        }
        let tail = self.chain.len() - 1;
        let mut page = Page::new();
        store.read_page(self.chain[tail], &mut page)?;
        // The tail's on-store link may be stale after a torn-tail
        // truncation; the tail of a live log never has a next.
        page.put_u64(next_offset(tail), NONE);
        match lay(store, &mut self.chain, self.end, page, records) {
            Ok(end) => {
                self.end = end;
                Ok(())
            }
            Err(err) => {
                // The pages the failed group grew the chain by hold no
                // committed record; the next append starts at the old end.
                self.chain.truncate(tail + 1);
                Err(err)
            }
        }
    }

    /// Starts a fresh generation whose log begins with `checkpoint`,
    /// written into the *inactive* slot through the same page writer as
    /// [`Wal::append`]: its continuation pages land first, the slot's
    /// head page last, so the head write is the atomic generation switch.
    /// Returns the old generation's continuation pages for the caller to
    /// free (the old slot page itself is permanent). A crash before the
    /// head write leaves the old generation authoritative.
    pub fn begin_generation<S: PageStore>(
        &mut self,
        store: &mut S,
        checkpoint: WalRecord,
    ) -> Result<Vec<PageId>, StorageError> {
        let new_slot = 1 - self.active;
        let mut head = Page::new();
        head.put_u64(0, WAL_MAGIC);
        head.put_u64(8, self.generation + 1);
        head.put_u64(16, NONE);
        let mut chain = vec![self.slots[new_slot]];
        self.end = lay(store, &mut chain, 0, head, std::iter::once(checkpoint))?;
        let old = std::mem::replace(&mut self.chain, chain);
        self.generation += 1;
        self.active = new_slot;
        Ok(old[1..].to_vec())
    }

    /// Every page currently owned by the log: both head slots plus the
    /// active generation's continuation pages.
    pub fn pages(&self) -> Vec<PageId> {
        let mut out = self.slots.to_vec();
        out.extend_from_slice(&self.chain[1..]);
        out
    }

    /// Pages of the active generation, head slot first.
    pub fn chain(&self) -> &[PageId] {
        &self.chain
    }

    /// The two head slot pages.
    pub fn slots(&self) -> [PageId; 2] {
        self.slots
    }

    /// The active generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Logical length of the record stream, in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.end
    }
}

/// The one page writer of the log. Lays the frames of `records` into the
/// stream from offset `end`, which lies in `first` — the last page of
/// `chain`, held in memory. When a page fills, a continuation is
/// allocated and linked, and the full page is written at once unless it
/// is `first`; the last page follows, and `first` goes last, so nothing
/// of the group is reachable until that write lands. Returns the new
/// stream end.
fn lay<S: PageStore>(
    store: &mut S,
    chain: &mut Vec<PageId>,
    end: u64,
    first: Page,
    records: impl Iterator<Item = WalRecord>,
) -> Result<u64, StorageError> {
    let first_idx = chain.len() - 1;
    let mut idx = first_idx;
    let mut off = end as usize - page_start(idx);
    let mut cur = first;
    // `first`, once the stream has moved past it.
    let mut held: Option<Page> = None;
    let mut frame = Vec::new();
    let mut end = end;
    for record in records {
        record.frame_into(&mut frame);
        end += frame.len() as u64;
        let mut rest = &frame[..];
        while !rest.is_empty() {
            let (start, cap) = geom(idx);
            if off == cap {
                let id = store.alloc()?;
                cur.put_u64(next_offset(idx), id.0);
                let mut fresh = Page::new();
                fresh.put_u64(0, NONE);
                let full = std::mem::replace(&mut cur, fresh);
                if idx == first_idx {
                    held = Some(full);
                } else {
                    store.write_page(chain[idx], &full)?;
                }
                chain.push(id);
                idx += 1;
                off = 0;
                continue;
            }
            let n = (cap - off).min(rest.len());
            cur.bytes_mut()[start + off..start + off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            off += n;
        }
    }
    store.write_page(chain[idx], &cur)?;
    if let Some(first) = held {
        store.write_page(chain[first_idx], &first)?;
    }
    Ok(end)
}

/// Number of chain pages needed to hold `len` stream bytes (at least the
/// head slot).
fn pages_for(len: u64) -> usize {
    let len = len as usize;
    if len <= HEAD_PAYLOAD {
        1
    } else {
        1 + (len - HEAD_PAYLOAD).div_ceil(CONT_PAYLOAD)
    }
}

/// Follows the chain from a head page, concatenating payload bytes.
/// Stops (reporting torn) on unreadable pages, cycles, or absurd length.
fn walk_chain<S: PageStore>(
    store: &S,
    head_id: PageId,
    head: &Page,
) -> (Vec<PageId>, Vec<u8>, bool) {
    let mut chain = vec![head_id];
    let mut stream = head.bytes()[24..].to_vec();
    let mut next = head.get_u64(16);
    let mut seen = std::collections::HashSet::from([head_id.0]);
    let mut torn = false;
    while next != NONE {
        if !seen.insert(next) || chain.len() as u64 > store.num_pages() {
            torn = true;
            break;
        }
        let mut page = Page::new();
        if store.read_page(PageId(next), &mut page).is_err() {
            torn = true;
            break;
        }
        chain.push(PageId(next));
        stream.extend_from_slice(&page.bytes()[8..]);
        next = page.get_u64(0);
    }
    (chain, stream, torn)
}

/// Parses framed records out of the payload stream. Returns the records,
/// the stream offset of the log end, and whether a torn or corrupt tail
/// was truncated (a record that overruns the chain, fails its checksum,
/// or does not decode).
fn parse_stream(stream: &[u8]) -> (Vec<WalRecord>, u64, bool) {
    let mut pos = 0usize;
    let mut records = Vec::new();
    loop {
        // A frame header is `[len u32][crc u32]`; fewer than 8 bytes left
        // is the end of the stream, and so is a zero length.
        let mut frame = Reader::new(stream.get(pos..).unwrap_or_default(), "WAL frame");
        let (Ok(len), Ok(crc)) = (frame.u32(), frame.u32()) else {
            return (records, pos as u64, false);
        };
        let len = len as usize;
        if len == 0 {
            return (records, pos as u64, false);
        }
        let Ok(payload) = frame.bytes(len) else {
            return (records, pos as u64, true);
        };
        if crc32(payload) != crc {
            return (records, pos as u64, true);
        }
        match WalRecord::decode(payload) {
            Ok(r) => records.push(r),
            Err(_) => return (records, pos as u64, true),
        }
        pos += 8 + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultStore, MemStore};

    fn ckpt(snapshot: &[u8]) -> WalRecord {
        WalRecord::Checkpoint {
            pages: 0,
            free: vec![],
            snapshot: snapshot.to_vec(),
        }
    }

    fn logical(bytes: &[u8]) -> WalRecord {
        WalRecord::Logical(bytes.to_vec())
    }

    fn reopen<S: PageStore>(store: &S, wal: &Wal) -> (Wal, Vec<WalRecord>, bool) {
        Wal::open(store, wal.slots()).expect("log must be recoverable")
    }

    /// Flips one bit of the byte at stream offset `pos` on the store.
    fn flip_stream_byte(store: &mut MemStore, wal: &Wal, pos: u64, mask: u8) {
        let pos = pos as usize;
        let idx = (0..).find(|&i| page_start(i + 1) > pos).unwrap();
        let mut page = Page::new();
        store.read_page(wal.chain()[idx], &mut page).unwrap();
        page.bytes_mut()[geom(idx).0 + pos - page_start(idx)] ^= mask;
        store.write_page(wal.chain()[idx], &page).unwrap();
    }

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn open_without_checkpoint_is_an_error() {
        let mut store = MemStore::new();
        let wal = Wal::create(&mut store).unwrap();
        assert!(matches!(
            Wal::open(&store, wal.slots()),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn records_roundtrip_through_a_generation() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, ckpt(b"base")).unwrap();
        let mut image = Page::new();
        image.bytes_mut()[17] = 0xAB;
        let image = WalRecord::PageImage {
            page: 9,
            bytes: image,
        };
        wal.append(&mut store, [logical(b"alpha")]).unwrap();
        wal.append(&mut store, [image.clone()]).unwrap();

        let (wal2, records, torn) = reopen(&store, &wal);
        assert!(!torn);
        assert_eq!(wal2.generation(), 2);
        assert_eq!(records, vec![ckpt(b"base"), logical(b"alpha"), image]);
        assert_eq!(wal2.len_bytes(), wal.len_bytes());
    }

    #[test]
    fn records_straddle_page_boundaries() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, ckpt(b"")).unwrap();
        let payloads: Vec<Vec<u8>> = (0u8..6).map(|i| vec![i; 1500 + 997 * i as usize]).collect();
        for p in &payloads {
            wal.append(&mut store, [WalRecord::Logical(p.clone())])
                .unwrap();
        }
        assert!(
            wal.chain().len() > 2,
            "log must have spilled into continuations"
        );
        let (_, records, torn) = reopen(&store, &wal);
        assert!(!torn);
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(records[i + 1], WalRecord::Logical(p.clone()));
        }
    }

    #[test]
    fn a_crash_inside_a_group_exposes_all_of_it_or_none() {
        let group: Vec<WalRecord> = (0u8..7)
            .map(|i| WalRecord::Logical(vec![i; 1900]))
            .collect();
        let setup = |store: &mut FaultStore<MemStore>| {
            let mut wal = Wal::create(store).unwrap();
            wal.begin_generation(store, ckpt(b"")).unwrap();
            wal.append(store, [logical(b"committed")]).unwrap();
            wal
        };
        let mut clean = FaultStore::new(MemStore::new());
        let mut wal = setup(&mut clean);
        let before = clean.writes_done();
        wal.append(&mut clean, group.iter().cloned()).unwrap();
        let group_writes = clean.writes_done() - before;
        assert!(group_writes > 2, "the group spans several pages");
        for kill in before..=before + group_writes {
            let mut store = FaultStore::crash_after(MemStore::new(), kill);
            let mut wal = setup(&mut store);
            let appended = wal.append(&mut store, group.iter().cloned()).is_ok();
            let store = store.into_inner();
            let (_, records, _) = Wal::open(&store, wal.slots()).unwrap();
            assert_eq!(records[1], logical(b"committed"), "kill {kill}");
            if appended {
                assert_eq!(&records[2..], &group[..], "kill {kill}");
            } else {
                assert_eq!(records.len(), 2, "kill {kill}: a partial group surfaced");
            }
        }
    }

    #[test]
    fn generation_switch_frees_old_continuations_and_survives() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, ckpt(b"g2")).unwrap();
        for _ in 0..4 {
            wal.append(&mut store, [WalRecord::Logical(vec![7u8; 3000])])
                .unwrap();
        }
        let old = wal.begin_generation(&mut store, ckpt(b"g3")).unwrap();
        assert!(!old.is_empty(), "old generation had continuation pages");
        for id in old {
            store.free_page(id).unwrap();
        }
        let (wal2, records, torn) = reopen(&store, &wal);
        assert!(!torn);
        assert_eq!(wal2.generation(), 3);
        assert_eq!(records, vec![ckpt(b"g3")]);
        wal.append(&mut store, [logical(b"post")]).unwrap();
        let (_, records, _) = reopen(&store, &wal);
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, ckpt(b"")).unwrap();
        wal.append(&mut store, [logical(b"good")]).unwrap();
        let before = wal.len_bytes();
        wal.append(&mut store, [logical(b"doomed")]).unwrap();
        // Corrupt one byte inside the last record's payload.
        flip_stream_byte(&mut store, &wal, before + 9, 0x40);

        let (wal2, records, torn) = reopen(&store, &wal);
        assert!(torn, "corrupt tail must be reported");
        assert_eq!(records.len(), 2, "log truncates to the intact prefix");
        assert_eq!(records[1], logical(b"good"));
        assert_eq!(wal2.len_bytes(), before);
    }

    #[test]
    fn appending_after_torn_truncation_overwrites_the_garbage() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, ckpt(b"")).unwrap();
        wal.append(&mut store, [logical(b"keep")]).unwrap();
        wal.append(&mut store, [logical(b"torn")]).unwrap();
        // Stream: ckpt (25 B framed) + "keep" (13 B) + "torn" (13 B);
        // flip a payload byte of the last record (stream offset 47).
        flip_stream_byte(&mut store, &wal, 47, 1);

        let (mut wal2, records, torn) = Wal::open(&store, wal.slots()).unwrap();
        assert!(torn);
        wal2.append(&mut store, [logical(b"fresh")]).unwrap();
        let (_, records2, torn2) = Wal::open(&store, wal2.slots()).unwrap();
        assert!(!torn2, "append must have cleaned the tail");
        assert_eq!(records2.len(), records.len() + 1);
        assert_eq!(records2.last(), Some(&logical(b"fresh")));
    }

    #[test]
    fn torn_generation_switch_falls_back_to_the_old_slot() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, ckpt(b"old")).unwrap();
        wal.append(&mut store, [logical(b"op")]).unwrap();
        let old_slot = wal.chain()[0];
        wal.begin_generation(&mut store, ckpt(b"new")).unwrap();
        let new_slot = wal.chain()[0];
        assert_ne!(old_slot, new_slot);
        // Simulate the switch write tearing: garble the new head page.
        let mut page = Page::new();
        store.read_page(new_slot, &mut page).unwrap();
        page.bytes_mut()[3] ^= 0xFF; // breaks the magic
        store.write_page(new_slot, &page).unwrap();

        let (wal2, records, _) = Wal::open(&store, wal.slots()).unwrap();
        assert_eq!(
            wal2.generation(),
            2,
            "recovery fell back to the old generation"
        );
        assert_eq!(records, vec![ckpt(b"old"), logical(b"op")]);
    }

    #[test]
    fn higher_generation_wins_when_both_slots_are_valid() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, ckpt(b"g2")).unwrap();
        wal.begin_generation(&mut store, ckpt(b"g3")).unwrap();
        let (wal2, records, _) = Wal::open(&store, wal.slots()).unwrap();
        assert_eq!(wal2.generation(), 3);
        assert_eq!(records, vec![ckpt(b"g3")]);
    }

    #[test]
    fn a_group_commits_whole_or_truncates_whole() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, ckpt(b"")).unwrap();
        let group: Vec<WalRecord> = (0u8..5)
            .map(|i| WalRecord::Logical(vec![i; 700 + 400 * i as usize]))
            .collect();
        wal.append(&mut store, group.iter().cloned()).unwrap();
        let (_, records, torn) = reopen(&store, &wal);
        assert!(!torn);
        assert_eq!(&records[1..], &group[..]);

        // Garble a byte inside the *first* record of a second group: the
        // entire group must be truncated away, not a partial suffix kept.
        let before = wal.len_bytes();
        wal.append(&mut store, [logical(b"doomed-a"), logical(b"doomed-b")])
            .unwrap();
        flip_stream_byte(&mut store, &wal, before + 9, 0x20);
        let (wal2, records, torn) = reopen(&store, &wal);
        assert!(torn);
        assert_eq!(records.len(), 1 + group.len());
        assert_eq!(wal2.len_bytes(), before);

        // Empty group is a no-op.
        let mut wal3 = wal2;
        let end = wal3.len_bytes();
        wal3.append(&mut store, []).unwrap();
        assert_eq!(wal3.len_bytes(), end);
    }

    /// `payload` framed as the log frames it: `[len][crc][payload]`.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn an_impossible_snapshot_length_is_a_torn_tail_not_an_overflow() {
        let mut stream = Vec::new();
        ckpt(b"base").frame_into(&mut stream);
        let intact = stream.len() as u64;
        // A checkpoint whose checksum is valid but whose snapshot length
        // is u64::MAX: the decoder must refuse it without arithmetic on
        // the length.
        let mut payload = vec![TAG_CHECKPOINT];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        payload.extend_from_slice(b"snap");
        stream.extend_from_slice(&frame(&payload));
        let (records, end, torn) = parse_stream(&stream);
        assert!(torn, "the impossible record must truncate the log");
        assert_eq!(records, vec![ckpt(b"base")]);
        assert_eq!(end, intact);
    }

    #[test]
    fn records_one_byte_short_or_long_are_corrupt() {
        let mut image = Page::new();
        image.bytes_mut()[5] = 3;
        for record in [
            WalRecord::PageImage {
                page: 4,
                bytes: image,
            },
            WalRecord::Checkpoint {
                pages: 12,
                free: vec![3, 8],
                snapshot: b"snapshot".to_vec(),
            },
        ] {
            let mut payload = Vec::new();
            record.encode_into(&mut payload);
            assert_eq!(WalRecord::decode(&payload).unwrap(), record);
            let short = &payload[..payload.len() - 1];
            let mut long = payload.clone();
            long.push(0);
            for bad in [short, &long[..]] {
                assert!(
                    matches!(WalRecord::decode(bad), Err(StorageError::Corrupt(_))),
                    "{} bytes of a {}-byte record decoded",
                    bad.len(),
                    payload.len()
                );
            }
        }
        assert!(matches!(
            WalRecord::decode(&[]),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_checkpoint_snapshot_and_large_free_list_roundtrip() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        let record = WalRecord::Checkpoint {
            pages: 2_100,
            free: (0..700).map(|i| i * 3).collect(),
            snapshot: vec![],
        };
        wal.begin_generation(&mut store, record.clone()).unwrap();
        let (_, records, torn) = reopen(&store, &wal);
        assert!(!torn);
        assert_eq!(records, vec![record]);
    }
}
