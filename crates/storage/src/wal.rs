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
//! An append materialises every page it touches in memory, then writes
//! them back in **descending chain order**: freshly allocated
//! continuation pages first, the page containing the old log end last.
//! Until that final write lands, the new record is unreachable (the old
//! tail still ends with a zero length or lacks the link), so a crash at
//! any page boundary leaves a log that parses to exactly the previously
//! committed records. A *torn* final write garbles the tail page and is
//! caught by the checksum: [`Wal::open`] truncates the log at the last
//! intact record instead of replaying garbage.

use crate::{Page, PageId, PageStore, StorageError, PAGE_SIZE};
use std::collections::BTreeMap;

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
        /// The page's 4 KB contents.
        bytes: Box<[u8; PAGE_SIZE]>,
    },
    /// A checkpoint: the durable baseline recovery starts from.
    Checkpoint {
        /// Every page id free at the checkpoint (cumulative, ascending).
        free: Vec<u64>,
        /// Opaque snapshot of the layer above's metadata.
        snapshot: Vec<u8>,
    },
}

const TAG_LOGICAL: u8 = 1;
const TAG_IMAGE: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;

impl WalRecord {
    /// Serializes the payload (tag + body, no framing).
    fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::Logical(bytes) => {
                let mut out = Vec::with_capacity(1 + bytes.len());
                out.push(TAG_LOGICAL);
                out.extend_from_slice(bytes);
                out
            }
            WalRecord::PageImage { page, bytes } => {
                let mut out = Vec::with_capacity(9 + PAGE_SIZE);
                out.push(TAG_IMAGE);
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&bytes[..]);
                out
            }
            WalRecord::Checkpoint { free, snapshot } => {
                let mut out = Vec::with_capacity(17 + 8 * free.len() + snapshot.len());
                out.push(TAG_CHECKPOINT);
                out.extend_from_slice(&(free.len() as u64).to_le_bytes());
                for id in free {
                    out.extend_from_slice(&id.to_le_bytes());
                }
                out.extend_from_slice(&(snapshot.len() as u64).to_le_bytes());
                out.extend_from_slice(snapshot);
                out
            }
        }
    }

    /// Parses a payload produced by [`WalRecord::encode`].
    fn decode(payload: &[u8]) -> Result<WalRecord, StorageError> {
        fn u64_at(b: &[u8], at: usize) -> Result<u64, StorageError> {
            let s = b
                .get(at..at + 8)
                .ok_or_else(|| StorageError::Corrupt("truncated WAL record body".into()))?;
            Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
        }
        let (&tag, body) = payload
            .split_first()
            .ok_or_else(|| StorageError::Corrupt("empty WAL record payload".into()))?;
        match tag {
            TAG_LOGICAL => Ok(WalRecord::Logical(body.to_vec())),
            TAG_IMAGE => {
                let page = u64_at(body, 0)?;
                let image = body
                    .get(8..8 + PAGE_SIZE)
                    .ok_or_else(|| StorageError::Corrupt("truncated WAL page image".into()))?;
                let mut bytes = Box::new([0u8; PAGE_SIZE]);
                bytes.copy_from_slice(image);
                Ok(WalRecord::PageImage { page, bytes })
            }
            TAG_CHECKPOINT => {
                let count = u64_at(body, 0)? as usize;
                let mut free = Vec::with_capacity(count.min(1 << 20));
                let mut at = 8;
                for _ in 0..count {
                    free.push(u64_at(body, at)?);
                    at += 8;
                }
                let snap_len = u64_at(body, at)? as usize;
                at += 8;
                let snapshot = body
                    .get(at..at + snap_len)
                    .ok_or_else(|| StorageError::Corrupt("truncated WAL snapshot".into()))?;
                Ok(WalRecord::Checkpoint {
                    free,
                    snapshot: snapshot.to_vec(),
                })
            }
            t => Err(StorageError::Corrupt(format!("unknown WAL record tag {t}"))),
        }
    }

    /// Frames the record for the log stream: `[len][crc][payload]`.
    fn frame(&self) -> Vec<u8> {
        let payload = self.encode();
        let mut out = Vec::with_capacity(8 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
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

/// The append-only log. See the module docs for format and atomicity.
#[derive(Debug)]
pub struct Wal {
    /// The two fixed head slot pages (double-buffered generations).
    slots: [PageId; 2],
    /// Which slot holds the active generation.
    active: usize,
    /// The active generation number (strictly increasing).
    generation: u64,
    /// Pages of the active generation, head slot first.
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
        c.chain.truncate(pages_for(c.end).max(1));
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

    /// Appends one record. All freshly allocated continuation pages are
    /// written before the page holding the old log end, so the record
    /// commits atomically with that final page write; a crash before it
    /// leaves the log exactly as it was (modulo leaked pages).
    pub fn append<S: PageStore>(
        &mut self,
        store: &mut S,
        record: &WalRecord,
    ) -> Result<(), StorageError> {
        self.append_bytes(store, record.frame())
    }

    /// Appends several records as **one atomic group commit**: all frames
    /// are laid into the stream together and committed by the same single
    /// final page write that [`Wal::append`] uses, so a crash exposes
    /// either all of the group's records or none. For small logical
    /// records this also collapses per-record head-page rewrites into one
    /// (the benchmark's `churn_durable` commits this way; see its
    /// `wal.bytes_per_commit` row).
    pub fn append_many<S: PageStore>(
        &mut self,
        store: &mut S,
        records: &[WalRecord],
    ) -> Result<(), StorageError> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        for record in records {
            buf.extend_from_slice(&record.frame());
        }
        self.append_bytes(store, buf)
    }

    /// Lays `buf` (one or more concatenated frames) into the stream and
    /// writes the touched pages back in descending chain order.
    fn append_bytes<S: PageStore>(
        &mut self,
        store: &mut S,
        buf: Vec<u8>,
    ) -> Result<(), StorageError> {
        let mut touched: BTreeMap<usize, Page> = BTreeMap::new();
        let (mut idx, mut off) = locate(self.end);
        self.ensure_page(store, &mut touched, idx)?;
        let mut written = 0usize;
        while written < buf.len() {
            let (start, cap) = geom(idx);
            if off == cap {
                idx += 1;
                off = 0;
                self.ensure_page(store, &mut touched, idx)?;
                continue;
            }
            let n = (cap - off).min(buf.len() - written);
            let page = touched.get_mut(&idx).expect("page ensured above");
            page.bytes_mut()[start + off..start + off + n]
                .copy_from_slice(&buf[written..written + n]);
            written += n;
            off += n;
        }
        // Descending order: the lowest touched page gates visibility of
        // everything after it and goes last.
        for (&i, page) in touched.iter().rev() {
            store.write_page(self.chain[i], page)?;
        }
        self.end += buf.len() as u64;
        Ok(())
    }

    /// Starts a fresh generation whose log begins with `first` (the
    /// committing checkpoint), written into the *inactive* slot: its
    /// continuation pages land first, the slot's head page last, so the
    /// head write is the atomic generation switch. Returns the old
    /// generation's continuation pages for the caller to free (the old
    /// slot page itself is permanent). A crash before the head write
    /// leaves the old generation authoritative.
    pub fn begin_generation<S: PageStore>(
        &mut self,
        store: &mut S,
        first: &WalRecord,
    ) -> Result<Vec<PageId>, StorageError> {
        let new_slot = 1 - self.active;
        let head_id = self.slots[new_slot];
        let mut head = Page::new();
        head.put_u64(0, WAL_MAGIC);
        head.put_u64(8, self.generation + 1);
        head.put_u64(16, NONE);

        let buf = first.frame();
        let mut pages: Vec<(PageId, Page)> = vec![(head_id, head)];
        let mut idx = 0usize;
        let mut off = 0usize;
        let mut written = 0usize;
        while written < buf.len() {
            let (start, cap) = geom(idx);
            if off == cap {
                let id = store.alloc()?;
                pages[idx].1.put_u64(next_offset(idx), id.0);
                let mut fresh = Page::new();
                fresh.put_u64(0, NONE);
                pages.push((id, fresh));
                idx += 1;
                off = 0;
                continue;
            }
            let n = (cap - off).min(buf.len() - written);
            pages[idx].1.bytes_mut()[start + off..start + off + n]
                .copy_from_slice(&buf[written..written + n]);
            written += n;
            off += n;
        }
        // Continuations first, the head slot page last (the switch).
        for (id, page) in pages[1..].iter() {
            store.write_page(*id, page)?;
        }
        store.write_page(head_id, &pages[0].1)?;

        let old_continuations = self.chain[1..].to_vec();
        self.generation += 1;
        self.active = new_slot;
        self.chain = pages.iter().map(|(id, _)| *id).collect();
        self.end = buf.len() as u64;
        Ok(old_continuations)
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

    /// Loads chain page `idx` into `touched`, allocating and linking a
    /// fresh continuation if the chain must grow to reach it.
    fn ensure_page<S: PageStore>(
        &mut self,
        store: &mut S,
        touched: &mut BTreeMap<usize, Page>,
        idx: usize,
    ) -> Result<(), StorageError> {
        if touched.contains_key(&idx) {
            return Ok(());
        }
        if idx < self.chain.len() {
            let mut page = Page::new();
            store.read_page(self.chain[idx], &mut page)?;
            if idx == self.chain.len() - 1 {
                // The tail's on-store link may be stale after a torn-tail
                // truncation; the tail of a live log never has a next.
                page.put_u64(next_offset(idx), NONE);
            }
            touched.insert(idx, page);
        } else {
            debug_assert_eq!(idx, self.chain.len());
            let id = store.alloc()?;
            self.ensure_page(store, touched, idx - 1)?;
            let prev = touched.get_mut(&(idx - 1)).expect("just ensured");
            prev.put_u64(next_offset(idx - 1), id.0);
            let mut fresh = Page::new();
            fresh.put_u64(0, NONE);
            self.chain.push(id);
            touched.insert(idx, fresh);
        }
        Ok(())
    }
}

/// Maps a stream offset to (chain page index, offset within payload).
fn locate(pos: u64) -> (usize, usize) {
    let pos = pos as usize;
    if pos < HEAD_PAYLOAD {
        (0, pos)
    } else {
        (
            1 + (pos - HEAD_PAYLOAD) / CONT_PAYLOAD,
            (pos - HEAD_PAYLOAD) % CONT_PAYLOAD,
        )
    }
}

/// Number of chain pages needed to hold `len` stream bytes.
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
        if pos + 8 > stream.len() {
            return (records, pos as u64, false);
        }
        let len = u32::from_le_bytes(stream[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if len == 0 {
            return (records, pos as u64, false);
        }
        if pos + 8 + len > stream.len() {
            return (records, pos as u64, true);
        }
        let crc = u32::from_le_bytes(stream[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let payload = &stream[pos + 8..pos + 8 + len];
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
    use crate::MemStore;

    fn ckpt(snapshot: &[u8]) -> WalRecord {
        WalRecord::Checkpoint {
            free: vec![],
            snapshot: snapshot.to_vec(),
        }
    }

    fn reopen(store: &MemStore, wal: &Wal) -> (Wal, Vec<WalRecord>, bool) {
        Wal::open(store, wal.slots()).expect("log must be recoverable")
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
        wal.begin_generation(&mut store, &ckpt(b"base")).unwrap();
        wal.append(&mut store, &WalRecord::Logical(b"alpha".to_vec()))
            .unwrap();
        let mut image = Box::new([0u8; PAGE_SIZE]);
        image[17] = 0xAB;
        wal.append(
            &mut store,
            &WalRecord::PageImage {
                page: 9,
                bytes: image.clone(),
            },
        )
        .unwrap();

        let (wal2, records, torn) = reopen(&store, &wal);
        assert!(!torn);
        assert_eq!(wal2.generation(), 2);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], ckpt(b"base"));
        assert_eq!(records[1], WalRecord::Logical(b"alpha".to_vec()));
        assert_eq!(
            records[2],
            WalRecord::PageImage {
                page: 9,
                bytes: image
            }
        );
        assert_eq!(wal2.len_bytes(), wal.len_bytes());
    }

    #[test]
    fn records_straddle_page_boundaries() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, &ckpt(b"")).unwrap();
        let payloads: Vec<Vec<u8>> = (0u8..6).map(|i| vec![i; 1500 + 997 * i as usize]).collect();
        for p in &payloads {
            wal.append(&mut store, &WalRecord::Logical(p.clone()))
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
    fn generation_switch_frees_old_continuations_and_survives() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, &ckpt(b"g2")).unwrap();
        for _ in 0..4 {
            wal.append(&mut store, &WalRecord::Logical(vec![7u8; 3000]))
                .unwrap();
        }
        let old = wal.begin_generation(&mut store, &ckpt(b"g3")).unwrap();
        assert!(!old.is_empty(), "old generation had continuation pages");
        for id in old {
            store.free_page(id).unwrap();
        }
        let (wal2, records, torn) = reopen(&store, &wal);
        assert!(!torn);
        assert_eq!(wal2.generation(), 3);
        assert_eq!(records, vec![ckpt(b"g3")]);
        wal.append(&mut store, &WalRecord::Logical(b"post".to_vec()))
            .unwrap();
        let (_, records, _) = reopen(&store, &wal);
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, &ckpt(b"")).unwrap();
        wal.append(&mut store, &WalRecord::Logical(b"good".to_vec()))
            .unwrap();
        let before = wal.len_bytes();
        wal.append(&mut store, &WalRecord::Logical(b"doomed".to_vec()))
            .unwrap();
        // Corrupt one byte inside the last record's payload on the tail
        // page (stream offset -> page offset via the head geometry).
        let tail = wal.chain()[0];
        let mut page = Page::new();
        store.read_page(tail, &mut page).unwrap();
        let victim = 24 + before as usize + 9; // inside "doomed"'s payload
        page.bytes_mut()[victim] ^= 0x40;
        store.write_page(tail, &page).unwrap();

        let (wal2, records, torn) = reopen(&store, &wal);
        assert!(torn, "corrupt tail must be reported");
        assert_eq!(records.len(), 2, "log truncates to the intact prefix");
        assert_eq!(records[1], WalRecord::Logical(b"good".to_vec()));
        assert_eq!(wal2.len_bytes(), before);
    }

    #[test]
    fn appending_after_torn_truncation_overwrites_the_garbage() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, &ckpt(b"")).unwrap();
        wal.append(&mut store, &WalRecord::Logical(b"keep".to_vec()))
            .unwrap();
        wal.append(&mut store, &WalRecord::Logical(b"torn".to_vec()))
            .unwrap();
        // Stream: ckpt (25 B framed) + "keep" (13 B) + "torn" (13 B);
        // flip a payload byte of the last record (stream offset 47).
        let tail = wal.chain()[0];
        let mut page = Page::new();
        store.read_page(tail, &mut page).unwrap();
        page.bytes_mut()[24 + 47] ^= 1;
        store.write_page(tail, &page).unwrap();

        let (mut wal2, records, torn) = Wal::open(&store, wal.slots()).unwrap();
        assert!(torn);
        wal2.append(&mut store, &WalRecord::Logical(b"fresh".to_vec()))
            .unwrap();
        let (_, records2, torn2) = Wal::open(&store, wal2.slots()).unwrap();
        assert!(!torn2, "append must have cleaned the tail");
        assert_eq!(records2.len(), records.len() + 1);
        assert_eq!(
            records2.last(),
            Some(&WalRecord::Logical(b"fresh".to_vec()))
        );
    }

    #[test]
    fn torn_generation_switch_falls_back_to_the_old_slot() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, &ckpt(b"old")).unwrap();
        wal.append(&mut store, &WalRecord::Logical(b"op".to_vec()))
            .unwrap();
        let old_slot = wal.chain()[0];
        wal.begin_generation(&mut store, &ckpt(b"new")).unwrap();
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
        assert_eq!(records[0], ckpt(b"old"));
        assert_eq!(records[1], WalRecord::Logical(b"op".to_vec()));
    }

    #[test]
    fn higher_generation_wins_when_both_slots_are_valid() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, &ckpt(b"g2")).unwrap();
        wal.begin_generation(&mut store, &ckpt(b"g3")).unwrap();
        let (wal2, records, _) = Wal::open(&store, wal.slots()).unwrap();
        assert_eq!(wal2.generation(), 3);
        assert_eq!(records, vec![ckpt(b"g3")]);
    }

    #[test]
    fn append_many_commits_the_whole_group_or_nothing() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        wal.begin_generation(&mut store, &ckpt(b"")).unwrap();
        let group: Vec<WalRecord> = (0u8..5)
            .map(|i| WalRecord::Logical(vec![i; 700 + 400 * i as usize]))
            .collect();
        wal.append_many(&mut store, &group).unwrap();
        let (_, records, torn) = reopen(&store, &wal);
        assert!(!torn);
        assert_eq!(&records[1..], &group[..]);

        // Garble a byte inside the *first* record of a second group: the
        // entire group must be truncated away, not a partial suffix kept.
        let before = wal.len_bytes();
        wal.append_many(
            &mut store,
            &[
                WalRecord::Logical(b"doomed-a".to_vec()),
                WalRecord::Logical(b"doomed-b".to_vec()),
            ],
        )
        .unwrap();
        let (idx, off) = locate(before + 9); // inside "doomed-a"'s payload
        let victim = wal.chain()[idx];
        let mut page = Page::new();
        store.read_page(victim, &mut page).unwrap();
        page.bytes_mut()[geom(idx).0 + off] ^= 0x20;
        store.write_page(victim, &page).unwrap();
        let (wal2, records, torn) = reopen(&store, &wal);
        assert!(torn);
        assert_eq!(records.len(), 1 + group.len());
        assert_eq!(wal2.len_bytes(), before);

        // Empty group is a no-op.
        let mut wal3 = wal2;
        let end = wal3.len_bytes();
        wal3.append_many(&mut store, &[]).unwrap();
        assert_eq!(wal3.len_bytes(), end);
    }

    #[test]
    fn empty_checkpoint_snapshot_and_large_free_list_roundtrip() {
        let mut store = MemStore::new();
        let mut wal = Wal::create(&mut store).unwrap();
        let record = WalRecord::Checkpoint {
            free: (0..700).map(|i| i * 3).collect(),
            snapshot: vec![],
        };
        wal.begin_generation(&mut store, &record).unwrap();
        let (_, records, torn) = reopen(&store, &wal);
        assert!(!torn);
        assert_eq!(records, vec![record]);
    }
}
