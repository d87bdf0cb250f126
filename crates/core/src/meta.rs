//! Metadata records and their on-page packing (§V-B.2).
//!
//! FLAT stores one metadata record per object page: the page MBR, the
//! partition MBR, a pointer to the object page with the page's element
//! count, and pointers to the records of all neighboring pages. Records
//! are variable-size (the neighbor count varies — which is exactly why the
//! paper stores them separately from the elements) and are packed into the
//! **leaves of the seed tree** so that spatially close records share a
//! page.
//!
//! # Page layout (kind [`flat_storage::PageKind::SeedLeaf`])
//!
//! ```text
//! offset 0          u16  tag (3 = metadata leaf)
//! offset 2          u16  record count
//! offset 4          u32  reserved
//! offset 8          u16 × count   record start offsets (slot directory)
//! directory end …   records, back to back:
//!     page MBR      6 × f64   (48 bytes)
//!     partition MBR 6 × f64   (48 bytes)
//!     object page   u64  (bits 0–47 = page id, bits 48–63 = element count)
//!     neighbor n    u16  (bit 15 = continuation flag, bit 14 = dead flag)
//!     continuation  u64 page + u16 slot   (page = u64::MAX ⇒ none)
//!     neighbors     n × (u64 page, u16 slot)   (10 bytes each)
//! ```
//!
//! The element count is the number of slots the bulkload wrote on the
//! object page (at most 85, the `MbrOnly` capacity). It shares the object
//! page's word, so the record is no larger than one without it: page ids
//! stay far below 2⁴⁸. With it a query knows what a page holds without
//! reading it — an aggregate counts a partition whose page MBR lies inside
//! the query from the record alone, and the seed phase takes such a record
//! as an entry point without probing its page.
//!
//! # Dead records
//!
//! The dynamic-update layer (`crate::DeltaIndex`) retires a bulkload
//! partition when its last live element is deleted: the partition's object
//! page is returned to the store's free list and its metadata record is
//! marked **dead** (bit 14 of the count word). Nothing else of the record
//! changes. A dead record keeps its slot, its neighbor links and its
//! continuation chain, and it stays a link target: the link graph is the
//! bulkload's until compaction, and so is its connectivity argument. The
//! seed phases skip a dead record as an entry point; a crawl follows its
//! links and never reads its object page.
//!
//! # Continuation chaining
//!
//! A record with more neighbors than fit on one page — possible when a
//! partition is stretched across many tiles by a very large element —
//! spills the excess into *continuation records* linked by the
//! continuation pointer. Only primary records are addressed by neighbor
//! pointers and by the crawl's visited set; continuations are reached
//! exclusively through the chain (and their page reads are charged like
//! any other metadata read).
//!
//! # Writing records
//!
//! This module alone lays metadata pages out and writes them. The one
//! layout writer, `write_runs`, places the bulkload's partitions as an
//! ordered list of *runs* (record chains), planning every record's address
//! before it writes a byte. After the bulkload no record is laid out again
//! until compaction rebuilds the index: an insert batch writes object
//! pages only, and the one edit of a written record is the in-place dead
//! flag (`set_dead`).
//!
//! # Reading records in place
//!
//! The read path never decodes a record into an owned value. A
//! `MetaView` holds the shared page the cache handed out (a reference-count
//! bump, not a copy) plus the record's position: creating it checks every
//! offset the page claims and decodes the fixed fields, and its neighbor
//! pointers are read straight off the page bytes as they are iterated —
//! the slot directory plays the part of an offset table, so one record is
//! read without touching its page-mates. A crawl therefore allocates
//! nothing per record. [`MetaRecord`] is the writer's form, and
//! [`decode_meta_record`] is a collect over the view, so there is one
//! parser.

use flat_geom::{Aabb, Point3};
use flat_rtree::node::ChildRef;
use flat_rtree::{leaf_capacity, LeafLayout};
use flat_storage::{Page, PageId, PageKind, PageMut, PageRead, PageWrite, StorageError, PAGE_SIZE};
use std::ops::Range;

/// Tag distinguishing metadata leaves from R-tree nodes.
const TAG_META_LEAF: u16 = 3;
/// Fixed page header size.
const HEADER_SIZE: usize = 8;
/// Fixed portion of one serialized record (MBRs, object page and element
/// count, neighbor count, continuation pointer).
const RECORD_FIXED: usize = 48 + 48 + 8 + 2 + 10;
/// One serialized neighbor pointer.
const NEIGHBOR_SIZE: usize = 10;
/// Slot-directory cost of one record.
const DIR_ENTRY: usize = 2;
/// Bits of the object-page word that hold the page id; the 16 above them
/// hold the page's element count.
const PAGE_BITS: u32 = 48;
/// Sentinel for "no continuation".
const NO_CONTINUATION: u64 = u64::MAX;
/// Count-word flag: this record is a continuation chunk.
const FLAG_CONTINUATION: u16 = 0x8000;
/// Count-word flag: this record's partition has been retired (see the
/// module docs on dead records).
const FLAG_DEAD: u16 = 0x4000;
/// Count-word bits holding the neighbor count. A record that fits a page
/// holds at most [`max_neighbors_per_record`] pointers, far below it.
const COUNT_MASK: u16 = 0x3FFF;

/// Address of a metadata record: the seed-tree leaf page holding it plus
/// its slot. Neighbor pointers are exactly these addresses — following one
/// costs at most one (often zero, thanks to locality) page read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetaRecordId {
    /// Seed-tree leaf page containing the record.
    pub page: PageId,
    /// Slot within that page.
    pub slot: u16,
}

/// One metadata record, summarizing one object page (or one continuation
/// chunk of an over-full neighbor list).
#[derive(Debug, Clone, PartialEq)]
pub struct MetaRecord {
    /// Tight MBR of the elements on the object page.
    pub page_mbr: Aabb,
    /// The partition MBR (tile ⊇ page MBR).
    pub partition_mbr: Aabb,
    /// The object page the record describes.
    pub object_page: PageId,
    /// Elements the bulkload wrote on the object page: its slot count.
    /// A continuation chunk repeats its primary's.
    pub elements: u16,
    /// Addresses of the neighboring partitions' records (this chunk).
    pub neighbors: Vec<MetaRecordId>,
    /// Next chunk of the neighbor list, if it didn't fit in one record.
    pub continuation: Option<MetaRecordId>,
    /// `true` for continuation chunks. Only primary records are valid
    /// crawl entry points (the seed phase skips continuations: a crawl
    /// seeded mid-chain would only see the tail of the neighbor list).
    pub is_continuation: bool,
    /// `true` once the record's partition has been retired by the
    /// dynamic-update layer: its object page is freed and the seed phase
    /// skips it, but it keeps its links and stays a link target.
    pub is_dead: bool,
}

/// Serialized size of a record with `neighbor_count` pointers.
fn record_size(neighbor_count: usize) -> usize {
    RECORD_FIXED + neighbor_count * NEIGHBOR_SIZE
}

/// Usable bytes for records + directory on one metadata page.
fn meta_page_budget() -> usize {
    PAGE_SIZE - HEADER_SIZE
}

/// The most elements any leaf layout puts on one object page: the largest
/// element count a record may carry.
fn max_elements() -> usize {
    leaf_capacity(LeafLayout::MbrOnly).max(leaf_capacity(LeafLayout::WithIds))
}

/// The most neighbor pointers a single record can carry on an otherwise
/// empty page.
pub fn max_neighbors_per_record() -> usize {
    (meta_page_budget() - DIR_ENTRY - RECORD_FIXED) / NEIGHBOR_SIZE
}

/// The one chunk rule: a run with `n` neighbors becomes `max(1, ⌈n / M⌉)`
/// records, `M` = [`max_neighbors_per_record`]. Yields, per record, the
/// slice of the run's neighbor list it carries.
fn chunks(n: usize) -> impl Iterator<Item = Range<usize>> {
    let max = max_neighbors_per_record();
    (0..n.max(1))
        .step_by(max)
        .map(move |start| start..(start + max).min(n))
}

/// Greedy first-fit assignment of records to pages, preserving order.
///
/// A bulkload's records arrive in metadata order, so consecutive records
/// are spatially close — packing them contiguously is what "preserve the
/// spatial locality of the metadata records" (§V-B.2) means. Takes each
/// record's neighbor count and returns, per record, the `(page sequence
/// number, slot)` it will occupy.
fn assign_slots(neighbor_counts: &[usize]) -> Vec<(usize, u16)> {
    let budget = meta_page_budget();
    let mut assignment = Vec::with_capacity(neighbor_counts.len());
    let mut page = 0usize;
    let mut slot = 0u16;
    let mut used = 0usize;
    for &count in neighbor_counts {
        let cost = record_size(count) + DIR_ENTRY;
        if used + cost > budget {
            page += 1;
            slot = 0;
            used = 0;
        }
        assignment.push((page, slot));
        used += cost;
        slot += 1;
    }
    assignment
}

/// One record chain for [`write_runs`]: a partition's two MBRs, object
/// page, element count and neighbor list.
#[derive(Debug, Clone)]
pub(crate) struct Run {
    pub(crate) page_mbr: Aabb,
    pub(crate) partition_mbr: Aabb,
    pub(crate) object_page: PageId,
    /// Elements written on the object page.
    pub(crate) elements: u16,
    /// The neighboring partitions, each named by its run's position in
    /// the layout: its primary record's address is known once the layout
    /// is planned.
    pub(crate) neighbors: Vec<usize>,
}

impl Run {
    /// What [`write_runs`] plans the run from: the object page that names
    /// it and its neighbor count.
    pub(crate) fn shape(&self) -> (PageId, usize) {
        (self.object_page, self.neighbors.len())
    }
}

/// The one metadata layout writer: lays out the runs `shapes` names, in
/// order, on new pages and writes their records. Returns the new metadata
/// pages in allocation order, each keyed by the union of its records' page
/// MBRs — the seed tree's key (§V-B.2: "we index each record R with R's
/// page MBR as key").
///
/// Planning needs each run's [`Run::shape`] alone — the chunk rule, then
/// [`assign_slots`], then every page allocated in order — so every
/// pointer has a known address before the first byte is written. The
/// runs are then pulled from `runs` in the same order (a bulkload streams
/// them out of its metadata sort, so only the planning tables are
/// resident) and encoded page by page. A stream that ends early, runs
/// long or yields a run other than the one its shape names is
/// [`StorageError::Corrupt`], and so is a run the record format cannot
/// hold: an object page id of 2⁴⁸ or more, or an element count of zero or
/// above any layout's page capacity.
pub(crate) fn write_runs(
    pool: &mut impl PageWrite,
    shapes: &[(PageId, usize)],
    mut runs: impl Iterator<Item = Result<Run, StorageError>>,
) -> Result<Vec<ChildRef>, StorageError> {
    let mut first = Vec::with_capacity(shapes.len());
    let mut counts = Vec::with_capacity(shapes.len());
    for &(_, n) in shapes {
        first.push(counts.len());
        counts.extend(chunks(n).map(|chunk| chunk.len()));
    }
    let slots = assign_slots(&counts);
    let pages = (0..slots.last().map_or(0, |&(seq, _)| seq + 1))
        .map(|_| pool.alloc())
        .collect::<Result<Vec<_>, _>>()?;
    let address = |r: usize| MetaRecordId {
        page: pages[slots[r].0],
        slot: slots[r].1,
    };
    let heads: Vec<MetaRecordId> = first.iter().map(|&r| address(r)).collect();
    let corrupt = |what: String| StorageError::Corrupt(format!("metadata run stream {what}"));

    // Pull each run and encode its records page by page.
    let mut page = Page::new();
    let mut records: Vec<MetaRecord> = Vec::new();
    let mut leaves = Vec::with_capacity(pages.len());
    let mut mbr = Aabb::empty();
    let mut r = 0;
    for (j, &shape) in shapes.iter().enumerate() {
        let run = runs
            .next()
            .ok_or_else(|| corrupt(format!("ended at run {j} of {}", shapes.len())))??;
        if run.shape() != shape {
            return Err(corrupt(format!(
                "out of order at run {j}: {shape:?} planned, {:?} read",
                run.shape()
            )));
        }
        if run.object_page.0 >> PAGE_BITS != 0
            || run.elements == 0
            || usize::from(run.elements) > max_elements()
        {
            return Err(corrupt(format!(
                "run {j}: {} with {} elements does not fit a record",
                run.object_page, run.elements
            )));
        }
        for chunk in chunks(shape.1) {
            let neighbors = run.neighbors[chunk.clone()]
                .iter()
                .map(|&k| {
                    heads
                        .get(k)
                        .copied()
                        .ok_or_else(|| corrupt(format!("links run {j} to run {k}")))
                })
                .collect::<Result<_, _>>()?;
            records.push(MetaRecord {
                page_mbr: run.page_mbr,
                partition_mbr: run.partition_mbr,
                object_page: run.object_page,
                elements: run.elements,
                neighbors,
                continuation: (chunk.end < shape.1).then(|| address(r + 1)),
                is_continuation: chunk.start > 0,
                is_dead: false,
            });
            mbr.stretch_to_contain(&run.page_mbr);
            r += 1;
            // The page is complete once the next record lies beyond it.
            if slots.get(r).is_none_or(|&(seq, _)| seq > leaves.len()) {
                encode_meta_leaf(&records, &mut page)?;
                pool.write(pages[leaves.len()], &page, PageKind::SeedLeaf)?;
                records.clear();
                let mbr = std::mem::replace(&mut mbr, Aabb::empty());
                leaves.push(ChildRef {
                    mbr,
                    page: pages[leaves.len()],
                });
            }
        }
    }
    if runs.next().is_some() {
        return Err(corrupt(format!("longer than its {} runs", shapes.len())));
    }
    Ok(leaves)
}

/// The one edit of a written record: sets the dead flag of the record at
/// `record` in place and writes its page back. Every other byte of the
/// page — the record's links and chain, every page-mate — stays as the
/// bulkload wrote it. A slot the page does not hold is
/// [`StorageError::Corrupt`].
pub(crate) fn set_dead<P: PageRead + PageWrite>(
    pool: &mut P,
    record: MetaRecordId,
) -> Result<(), StorageError> {
    let mut page = pool.read_page(record.page, PageKind::SeedLeaf)?;
    // Checks the slot and the record's offsets against the page.
    MetaView::new(page.clone(), record.slot)?;
    let count_word = page.get_u16(HEADER_SIZE + record.slot as usize * DIR_ENTRY) as usize + 104;
    page.put_u16(count_word, page.get_u16(count_word) | FLAG_DEAD);
    pool.write(record.page, &page, PageKind::SeedLeaf)
}

fn put_mbr(page: &mut PageMut<'_>, offset: usize, mbr: &Aabb) {
    page.put_f64(offset, mbr.min.x);
    page.put_f64(offset + 8, mbr.min.y);
    page.put_f64(offset + 16, mbr.min.z);
    page.put_f64(offset + 24, mbr.max.x);
    page.put_f64(offset + 32, mbr.max.y);
    page.put_f64(offset + 40, mbr.max.z);
}

/// The 8 bytes at `at`.
#[allow(clippy::expect_used)]
fn eight_bytes(bytes: &[u8], at: usize) -> [u8; 8] {
    // Proof: the slice is 8 long whenever the indexing succeeds, and every
    // caller reads inside a range it checked against the page.
    bytes[at..at + 8].try_into().expect("an 8-byte slice")
}

/// Reads an MBR from its 48 serialized bytes.
fn mbr_at(mbr: &[u8]) -> Aabb {
    let coord = |i: usize| f64::from_le_bytes(eight_bytes(mbr, i * 8));
    Aabb {
        min: Point3::new(coord(0), coord(1), coord(2)),
        max: Point3::new(coord(3), coord(4), coord(5)),
    }
}

/// Serializes the records of one metadata page. An empty list, or records
/// that do not fit one page ([`write_runs`] sizes pages with
/// [`assign_slots`]), are [`StorageError::Corrupt`].
fn encode_meta_leaf(records: &[MetaRecord], page: &mut Page) -> Result<(), StorageError> {
    let dir_size = records.len() * DIR_ENTRY;
    let total: usize = records
        .iter()
        .map(|r| record_size(r.neighbors.len()))
        .sum::<usize>()
        + dir_size;
    if records.is_empty() || total > meta_page_budget() {
        return Err(StorageError::Corrupt(format!(
            "{} metadata records of {total} bytes do not fill one page of {}",
            records.len(),
            meta_page_budget()
        )));
    }

    page.clear();
    let mut page = page.edit();
    page.put_u16(0, TAG_META_LEAF);
    page.put_u16(2, records.len() as u16);
    let mut offset = HEADER_SIZE + dir_size;
    for (slot, record) in records.iter().enumerate() {
        page.put_u16(HEADER_SIZE + slot * DIR_ENTRY, offset as u16);
        put_mbr(&mut page, offset, &record.page_mbr);
        put_mbr(&mut page, offset + 48, &record.partition_mbr);
        page.put_u64(
            offset + 96,
            record.object_page.0 | u64::from(record.elements) << PAGE_BITS,
        );
        let mut flags = 0u16;
        if record.is_continuation {
            flags |= FLAG_CONTINUATION;
        }
        if record.is_dead {
            flags |= FLAG_DEAD;
        }
        page.put_u16(offset + 104, record.neighbors.len() as u16 | flags);
        match record.continuation {
            Some(c) => {
                page.put_u64(offset + 106, c.page.0);
                page.put_u16(offset + 114, c.slot);
            }
            None => {
                page.put_u64(offset + 106, NO_CONTINUATION);
                page.put_u16(offset + 114, 0);
            }
        }
        let mut n_off = offset + RECORD_FIXED;
        for n in &record.neighbors {
            page.put_u64(n_off, n.page.0);
            page.put_u16(n_off + 8, n.slot);
            n_off += NEIGHBOR_SIZE;
        }
        offset = n_off;
    }
    Ok(())
}

/// Number of records on a metadata page.
pub fn meta_leaf_len(page: &Page) -> Result<usize, StorageError> {
    if page.get_u16(0) != TAG_META_LEAF {
        return Err(StorageError::Corrupt(format!(
            "expected metadata leaf tag, found {}",
            page.get_u16(0)
        )));
    }
    Ok(page.get_u16(2) as usize)
}

/// One metadata record read in place: the page the cache handed out
/// (shared, not copied) and where the record's neighbor pointers sit on
/// it. The fixed fields are decoded once, when the view is made; the
/// neighbor pointers are read off the page bytes as
/// [`MetaView::neighbors`] is iterated, so reading a record allocates
/// nothing. This is the one metadata parser: [`decode_meta_record`] is a
/// collect over it.
#[derive(Debug, Clone)]
pub(crate) struct MetaView {
    /// Tight MBR of the elements on the object page.
    pub(crate) page_mbr: Aabb,
    /// The partition MBR (tile ⊇ page MBR).
    pub(crate) partition_mbr: Aabb,
    /// The object page the record describes.
    pub(crate) object_page: PageId,
    /// Elements the bulkload wrote on the object page (see
    /// [`MetaRecord::elements`]).
    pub(crate) elements: u16,
    /// Next chunk of the neighbor list, if it didn't fit in one record.
    pub(crate) continuation: Option<MetaRecordId>,
    /// `true` for continuation chunks (see [`MetaRecord::is_continuation`]).
    pub(crate) is_continuation: bool,
    /// `true` once the record's partition is retired (see
    /// [`MetaRecord::is_dead`]).
    pub(crate) is_dead: bool,
    page: Page,
    /// Byte range of the neighbor pointers, checked on creation to lie
    /// on the page.
    neighbors_start: usize,
    neighbors_end: usize,
}

impl MetaView {
    /// Views the record in `slot` of metadata page `page`. Every offset
    /// the page claims — slot directory entry, record, neighbor list — is
    /// checked here, so a corrupt page is a [`StorageError::Corrupt`] and
    /// nothing read later can run off the page. So is an element count no
    /// object page can hold: zero on a live primary record, or above any
    /// layout's page capacity.
    pub(crate) fn new(page: Page, slot: u16) -> Result<MetaView, StorageError> {
        let count = meta_leaf_len(&page)?;
        let dir = HEADER_SIZE + slot as usize * DIR_ENTRY;
        if slot as usize >= count || dir + DIR_ENTRY > PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "metadata slot {slot} out of range (page holds {count})"
            )));
        }
        let offset = page.get_u16(dir) as usize;
        let Some(fixed) = page.bytes().get(offset..offset + RECORD_FIXED) else {
            return Err(StorageError::Corrupt(format!(
                "record offset {offset} out of page"
            )));
        };
        let u16_at = |at: usize| u16::from_le_bytes([fixed[at], fixed[at + 1]]);
        let u64_at = |at: usize| u64::from_le_bytes(eight_bytes(fixed, at));
        let count_word = u16_at(104);
        let n = (count_word & COUNT_MASK) as usize;
        let neighbors_start = offset + RECORD_FIXED;
        let neighbors_end = neighbors_start + n * NEIGHBOR_SIZE;
        if neighbors_end > PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "record with {n} neighbors out of page"
            )));
        }
        let is_continuation = count_word & FLAG_CONTINUATION != 0;
        let is_dead = count_word & FLAG_DEAD != 0;
        let page_word = u64_at(96);
        let elements = (page_word >> PAGE_BITS) as u16;
        let live_primary = !is_continuation && !is_dead;
        if (live_primary && elements == 0) || usize::from(elements) > max_elements() {
            return Err(StorageError::Corrupt(format!(
                "record of an object page with {elements} elements"
            )));
        }
        Ok(MetaView {
            page_mbr: mbr_at(&fixed[..48]),
            partition_mbr: mbr_at(&fixed[48..96]),
            object_page: PageId(page_word & ((1 << PAGE_BITS) - 1)),
            elements,
            continuation: match u64_at(106) {
                NO_CONTINUATION => None,
                p => Some(MetaRecordId {
                    page: PageId(p),
                    slot: u16_at(114),
                }),
            },
            is_continuation,
            is_dead,
            page,
            neighbors_start,
            neighbors_end,
        })
    }

    /// This chunk's neighbor pointers, in stored order, read straight off
    /// the page.
    pub(crate) fn neighbors(&self) -> impl ExactSizeIterator<Item = MetaRecordId> + '_ {
        self.page.bytes()[self.neighbors_start..self.neighbors_end]
            .chunks_exact(NEIGHBOR_SIZE)
            .map(|pointer| MetaRecordId {
                page: PageId(u64::from_le_bytes(eight_bytes(pointer, 0))),
                slot: u16::from_le_bytes([pointer[8], pointer[9]]),
            })
    }

    /// The record as an owned value (the write side edits these).
    pub(crate) fn to_record(&self) -> MetaRecord {
        MetaRecord {
            page_mbr: self.page_mbr,
            partition_mbr: self.partition_mbr,
            object_page: self.object_page,
            elements: self.elements,
            neighbors: self.neighbors().collect(),
            continuation: self.continuation,
            is_continuation: self.is_continuation,
            is_dead: self.is_dead,
        }
    }
}

/// Decodes one record by slot.
pub fn decode_meta_record(page: &Page, slot: u16) -> Result<MetaRecord, StorageError> {
    Ok(MetaView::new(page.clone(), slot)?.to_record())
}

/// Decodes all records of a metadata page (validation / inspection).
#[cfg(test)]
pub(crate) fn decode_meta_leaf(page: &Page) -> Result<Vec<MetaRecord>, StorageError> {
    let count = meta_leaf_len(page)?;
    (0..count as u16)
        .map(|slot| decode_meta_record(page, slot))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_storage::{ConcurrentBufferPool, MemStore, PageStore};

    fn sample_record(seed: u64, neighbors: usize) -> MetaRecord {
        let base = seed as f64;
        MetaRecord {
            page_mbr: Aabb::cube(Point3::splat(base), 1.0),
            partition_mbr: Aabb::cube(Point3::splat(base), 2.0),
            object_page: PageId(seed * 3),
            elements: 1 + (seed % 85) as u16,
            neighbors: (0..neighbors)
                .map(|i| MetaRecordId {
                    page: PageId(seed + i as u64),
                    slot: i as u16,
                })
                .collect(),
            continuation: None,
            is_continuation: false,
            is_dead: false,
        }
    }

    #[test]
    fn record_roundtrip() {
        let records: Vec<MetaRecord> = (0..5)
            .map(|i| sample_record(i, 3 + i as usize * 2))
            .collect();
        let mut page = Page::new();
        encode_meta_leaf(&records, &mut page).unwrap();
        assert_eq!(meta_leaf_len(&page).unwrap(), 5);
        for (slot, expected) in records.iter().enumerate() {
            let got = decode_meta_record(&page, slot as u16).unwrap();
            assert_eq!(&got, expected);
        }
        assert_eq!(decode_meta_leaf(&page).unwrap(), records);
    }

    #[test]
    fn continuation_pointer_roundtrips() {
        let mut record = sample_record(3, 4);
        record.continuation = Some(MetaRecordId {
            page: PageId(77),
            slot: 9,
        });
        let mut page = Page::new();
        encode_meta_leaf(std::slice::from_ref(&record), &mut page).unwrap();
        assert_eq!(decode_meta_record(&page, 0).unwrap(), record);
    }

    #[test]
    fn continuation_flag_roundtrips_with_neighbors() {
        let mut record = sample_record(4, 17);
        record.is_continuation = true;
        let mut page = Page::new();
        encode_meta_leaf(std::slice::from_ref(&record), &mut page).unwrap();
        let got = decode_meta_record(&page, 0).unwrap();
        assert!(got.is_continuation);
        assert_eq!(
            got.neighbors.len(),
            17,
            "flag bit must not corrupt the count"
        );
        assert_eq!(got, record);
    }

    #[test]
    fn dead_flag_roundtrips_independently_of_count_and_continuation() {
        let mut record = sample_record(5, 9);
        record.is_dead = true;
        let mut page = Page::new();
        encode_meta_leaf(std::slice::from_ref(&record), &mut page).unwrap();
        let got = decode_meta_record(&page, 0).unwrap();
        assert!(got.is_dead);
        assert!(!got.is_continuation);
        assert_eq!(got.neighbors.len(), 9);
        assert_eq!(got, record);

        record.is_continuation = true;
        encode_meta_leaf(std::slice::from_ref(&record), &mut page).unwrap();
        let got = decode_meta_record(&page, 0).unwrap();
        assert!(got.is_dead && got.is_continuation);
        assert_eq!(got, record);
    }

    #[test]
    fn record_with_no_neighbors_roundtrips() {
        let record = sample_record(7, 0);
        let mut page = Page::new();
        encode_meta_leaf(std::slice::from_ref(&record), &mut page).unwrap();
        assert_eq!(decode_meta_record(&page, 0).unwrap(), record);
    }

    #[test]
    fn record_size_formula_matches_serialization() {
        // Fill a page to the brim based on record_size and confirm encode
        // accepts it.
        let n_neighbors = 30; // the paper's converged median (Fig 20)
        let per_record = record_size(n_neighbors) + DIR_ENTRY;
        let fit = meta_page_budget() / per_record;
        let records: Vec<MetaRecord> = (0..fit as u64)
            .map(|i| sample_record(i, n_neighbors))
            .collect();
        let mut page = Page::new();
        encode_meta_leaf(&records, &mut page).unwrap();
        assert_eq!(decode_meta_leaf(&page).unwrap().len(), fit);
    }

    #[test]
    fn overflow_is_corrupt() {
        let records: Vec<MetaRecord> = (0..40).map(|i| sample_record(i, 30)).collect();
        let err = encode_meta_leaf(&records, &mut Page::new()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        assert!(is_corrupt(encode_meta_leaf(&[], &mut Page::new())));
    }

    #[test]
    fn short_lists_are_one_record() {
        for n in [0, 3, 30, max_neighbors_per_record()] {
            assert_eq!(chunks(n).collect::<Vec<_>>(), vec![0..n]);
        }
    }

    #[test]
    fn huge_lists_are_chunked() {
        let max = max_neighbors_per_record();
        let n = max * 2 + 5;
        assert_eq!(
            chunks(n).collect::<Vec<_>>(),
            vec![0..max, max..2 * max, 2 * max..n]
        );
        assert_eq!(chunks(2 * max).count(), 2);
    }

    #[test]
    fn assign_slots_respects_budget_and_order() {
        let counts: Vec<usize> = (0..100)
            .flat_map(|i| chunks((i * 97) % 900))
            .map(|chunk| chunk.len())
            .collect();
        let assignment = assign_slots(&counts);
        assert_eq!(assignment.len(), counts.len());
        // Slots increase within a page; pages increase monotonically.
        for w in assignment.windows(2) {
            let (p0, s0) = w[0];
            let (p1, s1) = w[1];
            assert!(p1 == p0 && s1 == s0 + 1 || p1 == p0 + 1 && s1 == 0);
        }
        // Per-page sizes stay within budget.
        let mut per_page: std::collections::HashMap<usize, usize> = Default::default();
        for (i, (p, _)) in assignment.iter().enumerate() {
            *per_page.entry(*p).or_default() += record_size(counts[i]) + DIR_ENTRY;
        }
        for (page, used) in per_page {
            assert!(
                used <= meta_page_budget(),
                "page {page} over budget: {used}"
            );
        }
    }

    #[test]
    fn assign_slots_packs_densely() {
        // Uniform records: every page except the last must be full.
        let per = record_size(30) + DIR_ENTRY;
        let per_page = meta_page_budget() / per;
        let assignment = assign_slots(&[30; 100]);
        let last_page = assignment.last().unwrap().0;
        assert_eq!(last_page, (100 - 1) / per_page);
    }

    #[test]
    fn giant_records_get_their_own_pages() {
        let max = max_neighbors_per_record();
        let assignment = assign_slots(&[max, max, 3]);
        // Two max-size records cannot share a page.
        assert_ne!(assignment[0].0, assignment[1].0);
    }

    /// A partition's run.
    fn run(object_page: u64, neighbors: Vec<usize>) -> Run {
        let base = object_page as f64;
        Run {
            page_mbr: Aabb::cube(Point3::splat(base), 1.0),
            partition_mbr: Aabb::cube(Point3::splat(base), 2.0),
            object_page: PageId(object_page),
            elements: 1 + (object_page % 85) as u16,
            neighbors,
        }
    }

    fn write(
        pool: &mut ConcurrentBufferPool<MemStore>,
        runs: Vec<Run>,
    ) -> Result<Vec<ChildRef>, StorageError> {
        let shapes: Vec<_> = runs.iter().map(Run::shape).collect();
        write_runs(pool, &shapes, runs.into_iter().map(Ok))
    }

    fn read(pool: &ConcurrentBufferPool<MemStore>, addr: MetaRecordId) -> MetaRecord {
        let page = pool.read_page(addr.page, PageKind::SeedLeaf).unwrap();
        decode_meta_record(&page, addr.slot).unwrap()
    }

    /// The primary record of every run, in run order: the records of the
    /// layout's pages, in page then slot order, that are no continuation.
    fn heads(pool: &ConcurrentBufferPool<MemStore>, leaves: &[ChildRef]) -> Vec<MetaRecordId> {
        let mut heads = Vec::new();
        for leaf in leaves {
            let page = pool.read_page(leaf.page, PageKind::SeedLeaf).unwrap();
            for (slot, record) in decode_meta_leaf(&page).unwrap().into_iter().enumerate() {
                if !record.is_continuation {
                    heads.push(MetaRecordId {
                        page: leaf.page,
                        slot: slot as u16,
                    });
                }
            }
        }
        heads
    }

    #[test]
    fn the_writer_chains_chunks_and_resolves_links() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 64);
        let max = max_neighbors_per_record();
        // Run 0 links to every other run: one record's worth and 7 more.
        let others = max + 7;
        let mut runs = vec![run(0, (1..=others).collect())];
        runs.extend((1..=others).map(|j| run(j as u64, vec![0])));
        let leaves = write(&mut pool, runs).unwrap();
        assert_eq!(pool.store().num_pages(), leaves.len() as u64);
        let heads = heads(&pool, &leaves);
        assert_eq!(heads.len(), others + 1);
        // The wide run: a primary and one continuation chunk.
        let head = read(&pool, heads[0]);
        assert!(!head.is_continuation);
        assert_eq!(head.neighbors.len(), max);
        let second = read(&pool, head.continuation.unwrap());
        assert!(second.is_continuation);
        assert_eq!((second.neighbors.len(), second.continuation), (7, None));
        let resolved: Vec<MetaRecordId> =
            head.neighbors.into_iter().chain(second.neighbors).collect();
        assert_eq!(resolved, heads[1..].to_vec());
        for (j, &addr) in heads.iter().enumerate().skip(1) {
            let record = read(&pool, addr);
            assert_eq!(record.object_page, PageId(j as u64));
            assert_eq!(record.neighbors, vec![heads[0]]);
            assert!(!record.is_continuation && record.continuation.is_none());
        }
        // Each page's MBR covers its records' page MBRs.
        for (i, head) in heads.iter().enumerate() {
            let leaf = leaves.iter().find(|leaf| leaf.page == head.page).unwrap();
            assert!(leaf.mbr.contains(&read(&pool, *head).page_mbr), "run {i}");
        }
    }

    #[test]
    fn an_empty_layout_writes_nothing() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        assert!(write(&mut pool, Vec::new()).unwrap().is_empty());
        assert_eq!(pool.store().num_pages(), 0);
    }

    #[test]
    fn a_short_stream_is_corrupt() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let runs = [run(1, Vec::new()), run(2, Vec::new())];
        let shapes: Vec<_> = runs.iter().map(Run::shape).collect();
        let short = runs[..1].iter().cloned().map(Ok);
        assert!(is_corrupt(write_runs(&mut pool, &shapes, short)));
    }

    #[test]
    fn an_out_of_order_stream_is_corrupt() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let runs = [run(1, Vec::new()), run(2, Vec::new())];
        let shapes: Vec<_> = runs.iter().map(Run::shape).collect();
        let swapped = runs.iter().rev().cloned().map(Ok);
        assert!(is_corrupt(write_runs(&mut pool, &shapes, swapped)));
    }

    #[test]
    fn a_long_stream_or_a_link_past_the_layout_is_corrupt() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let one = run(1, Vec::new());
        let long = [one.clone(), run(2, Vec::new())].into_iter().map(Ok);
        assert!(is_corrupt(write_runs(&mut pool, &[one.shape()], long)));
        let dangling = run(1, vec![1]);
        assert!(is_corrupt(write(&mut pool, vec![dangling])));
    }

    #[test]
    fn the_dead_flag_changes_no_other_byte() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 64);
        let leaves = write(
            &mut pool,
            vec![run(1, vec![1, 2]), run(2, vec![0]), run(3, vec![0])],
        )
        .unwrap();
        let [a, b, c] = heads(&pool, &leaves)[..] else {
            panic!("three runs, three primaries");
        };
        let before = pool.read_page(b.page, PageKind::SeedLeaf).unwrap();
        set_dead(&mut pool, b).unwrap();
        let after = pool.read_page(b.page, PageKind::SeedLeaf).unwrap();
        // The dead record keeps its links and its chain; its page-mates
        // and the links to it are untouched.
        let dead = read(&pool, b);
        let mut expected = decode_meta_record(&before, b.slot).unwrap();
        expected.is_dead = true;
        assert_eq!(dead, expected);
        assert_eq!(dead.neighbors, vec![a]);
        assert_eq!(read(&pool, a).neighbors, vec![b, c]);
        let differing = (before.bytes().iter().zip(after.bytes()))
            .filter(|(x, y)| x != y)
            .count();
        assert_eq!(differing, 1, "only the flag byte of the count word moves");
        // Setting it again changes nothing.
        set_dead(&mut pool, b).unwrap();
        assert_eq!(read(&pool, b), dead);
    }

    #[test]
    fn flagging_a_slot_past_the_page_is_corrupt() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let leaves = write(&mut pool, vec![run(1, Vec::new())]).unwrap();
        let past = MetaRecordId {
            page: leaves[0].page,
            slot: 1,
        };
        assert!(is_corrupt(set_dead(&mut pool, past)));
    }

    #[test]
    fn decode_rejects_wrong_tag() {
        let page = Page::new();
        assert!(meta_leaf_len(&page).is_err());
        assert!(decode_meta_record(&page, 0).is_err());
    }

    #[test]
    fn decode_rejects_out_of_range_slot() {
        let mut page = Page::new();
        encode_meta_leaf(&[sample_record(1, 2)], &mut page).unwrap();
        assert!(decode_meta_record(&page, 1).is_err());
    }

    #[test]
    fn many_neighbors_roundtrip() {
        // ~70 pointers (the Fig 20 tail) still fits comfortably.
        let record = sample_record(1, 70);
        let mut page = Page::new();
        encode_meta_leaf(std::slice::from_ref(&record), &mut page).unwrap();
        let got = decode_meta_record(&page, 0).unwrap();
        assert_eq!(got.neighbors.len(), 70);
        assert_eq!(got, record);
    }

    /// Asserts that the view of `slot` shows exactly `expected`, field by
    /// field and pointer by pointer, and that the collect over it does.
    fn assert_view_matches(page: &Page, slot: u16, expected: &MetaRecord) {
        let view = MetaView::new(page.clone(), slot).unwrap();
        assert_eq!(view.page_mbr, expected.page_mbr);
        assert_eq!(view.partition_mbr, expected.partition_mbr);
        assert_eq!(view.object_page, expected.object_page);
        assert_eq!(view.elements, expected.elements);
        assert_eq!(view.continuation, expected.continuation);
        assert_eq!(view.is_continuation, expected.is_continuation);
        assert_eq!(view.is_dead, expected.is_dead);
        assert_eq!(view.neighbors().len(), expected.neighbors.len());
        assert!(view.neighbors().eq(expected.neighbors.iter().copied()));
        assert_eq!(&view.to_record(), expected);
        assert_eq!(&decode_meta_record(page, slot).unwrap(), expected);
    }

    #[test]
    fn view_agrees_with_decode_for_every_flag_combination() {
        for n in [0, max_neighbors_per_record()] {
            let mut records = Vec::new();
            for (i, (is_continuation, is_dead)) in
                [(false, false), (true, false), (false, true), (true, true)]
                    .into_iter()
                    .enumerate()
            {
                for continuation in [
                    None,
                    Some(MetaRecordId {
                        page: PageId(90 + i as u64),
                        slot: i as u16,
                    }),
                ] {
                    let mut record = sample_record(11 + records.len() as u64, n);
                    record.is_continuation = is_continuation;
                    record.is_dead = is_dead;
                    record.continuation = continuation;
                    records.push(record);
                }
            }
            let pages: Vec<&[MetaRecord]> = if n == 0 {
                // All eight on one page: every slot of a shared page.
                vec![&records[..]]
            } else {
                // A full record fills a page on its own.
                records.chunks(1).collect()
            };
            for on_page in pages {
                let mut page = Page::new();
                encode_meta_leaf(on_page, &mut page).unwrap();
                for (slot, expected) in on_page.iter().enumerate() {
                    assert_view_matches(&page, slot as u16, expected);
                }
            }
        }
    }

    /// A one-record page whose record starts at the returned offset.
    fn one_record_page(neighbors: usize) -> (Page, usize) {
        let mut page = Page::new();
        encode_meta_leaf(&[sample_record(2, neighbors)], &mut page).unwrap();
        let offset = page.get_u16(HEADER_SIZE) as usize;
        (page, offset)
    }

    fn is_corrupt<T>(result: Result<T, StorageError>) -> bool {
        matches!(result, Err(StorageError::Corrupt(_)))
    }

    #[test]
    fn record_offset_past_the_page_is_corrupt() {
        let (mut page, _) = one_record_page(3);
        for offset in [PAGE_SIZE - RECORD_FIXED + 1, PAGE_SIZE, u16::MAX as usize] {
            page.put_u16(HEADER_SIZE, offset as u16);
            assert!(
                is_corrupt(MetaView::new(page.clone(), 0)),
                "offset {offset}"
            );
            assert!(is_corrupt(decode_meta_record(&page, 0)), "offset {offset}");
        }
    }

    #[test]
    fn neighbor_count_running_off_the_page_is_corrupt() {
        let (mut page, offset) = one_record_page(3);
        // The most pointers that still end inside the page are accepted
        // and iterate without running off it…
        let fits = (PAGE_SIZE - offset - RECORD_FIXED) / NEIGHBOR_SIZE;
        page.put_u16(offset + 104, fits as u16);
        let view = MetaView::new(page.clone(), 0).unwrap();
        assert_eq!(view.neighbors().count(), fits);
        // …one more, or the largest count the word can hold, is corrupt —
        // whatever flag bits ride along.
        for count_word in [
            fits as u16 + 1,
            COUNT_MASK,
            COUNT_MASK | FLAG_CONTINUATION | FLAG_DEAD,
        ] {
            page.put_u16(offset + 104, count_word);
            assert!(
                is_corrupt(MetaView::new(page.clone(), 0)),
                "{count_word:#x}"
            );
            assert!(is_corrupt(decode_meta_record(&page, 0)), "{count_word:#x}");
        }
    }

    #[test]
    fn the_element_count_shares_the_object_page_word() {
        let mut record = sample_record(6, 4);
        record.object_page = PageId((1 << PAGE_BITS) - 1);
        record.elements = max_elements() as u16;
        let mut page = Page::new();
        encode_meta_leaf(std::slice::from_ref(&record), &mut page).unwrap();
        assert_view_matches(&page, 0, &record);
        // The record is no larger for it: a page packs as many pointers.
        assert_eq!(max_neighbors_per_record(), 397);
    }

    #[test]
    fn an_element_count_no_page_holds_is_corrupt() {
        let (mut page, offset) = one_record_page(3);
        let page_id = page.get_u64(offset + 96) & ((1 << PAGE_BITS) - 1);
        let set_elements = |page: &mut Page, elements: u64| {
            page.put_u64(offset + 96, page_id | elements << PAGE_BITS);
        };
        // Zero on a live primary, or more than any layout holds.
        for elements in [0, max_elements() as u64 + 1, u16::MAX as u64] {
            set_elements(&mut page, elements);
            assert!(is_corrupt(MetaView::new(page.clone(), 0)), "{elements}");
        }
        // A dead record or a continuation chunk may read zero (only a live
        // primary names a page a query reads); never more than a page holds.
        for flag in [FLAG_DEAD, FLAG_CONTINUATION] {
            let count_word = page.get_u16(offset + 104);
            page.put_u16(offset + 104, count_word | flag);
            set_elements(&mut page, 0);
            assert_eq!(MetaView::new(page.clone(), 0).unwrap().elements, 0);
            set_elements(&mut page, max_elements() as u64 + 1);
            assert!(is_corrupt(MetaView::new(page.clone(), 0)));
            page.put_u16(offset + 104, count_word);
        }
    }

    #[test]
    fn the_writer_refuses_a_run_no_record_can_hold() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let mut far = run(1, Vec::new());
        far.object_page = PageId(1 << PAGE_BITS);
        let mut empty = run(2, Vec::new());
        empty.elements = 0;
        let mut over = run(3, Vec::new());
        over.elements = max_elements() as u16 + 1;
        for bad in [far, empty, over] {
            assert!(is_corrupt(write(&mut pool, vec![bad])));
        }
        let mut full = run(4, Vec::new());
        full.elements = max_elements() as u16;
        let leaves = write(&mut pool, vec![full]).unwrap();
        let addr = heads(&pool, &leaves)[0];
        assert_eq!(read(&pool, addr).elements as usize, max_elements());
    }

    #[test]
    fn slot_directory_past_the_page_is_corrupt() {
        // A record count the directory cannot hold on one page.
        let (mut page, _) = one_record_page(1);
        page.put_u16(2, u16::MAX);
        let beyond = ((PAGE_SIZE - HEADER_SIZE) / DIR_ENTRY) as u16;
        assert!(is_corrupt(MetaView::new(page.clone(), beyond)));
        assert!(is_corrupt(decode_meta_record(&page, u16::MAX - 1)));
    }
}
