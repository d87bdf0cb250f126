//! Metadata records and their on-page packing (§V-B.2).
//!
//! FLAT stores one metadata record per object page: the page MBR, the
//! partition MBR, a pointer to the object page, and pointers to the
//! records of all neighboring pages. Records are variable-size (the
//! neighbor count varies — which is exactly why the paper stores them
//! separately from the elements) and are packed into the **leaves of the
//! seed tree** so that spatially close records share a page.
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
//!     object page   u64
//!     neighbor n    u16  (bit 15 = continuation flag, bit 14 = dead flag)
//!     continuation  u64 page + u16 slot   (page = u64::MAX ⇒ none)
//!     neighbors     n × (u64 page, u16 slot)   (10 bytes each)
//! ```
//!
//! # Dead records
//!
//! The dynamic-update layer (`crate::DeltaIndex`) retires a partition when
//! its last live element is deleted: the partition's object page is
//! returned to the store's free list and its metadata record is marked
//! **dead** (bit 14 of the count word). A dead record keeps its slot — so
//! the addresses of its page-mates stay valid — but carries no neighbors,
//! is skipped by the seed phase, and by invariant is never the target of a
//! neighbor pointer (retirement prunes every inbound link).
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
//! # Reading records in place
//!
//! The read path never decodes a record into an owned value. A
//! `MetaView` holds the shared page the cache handed out (a reference-count
//! bump, not a copy) plus the record's position: creating it checks every
//! offset the page claims and decodes the fixed fields, and its neighbor
//! pointers are read straight off the page bytes as they are iterated —
//! the slot directory plays the part of an offset table, so one record is
//! read without touching its page-mates. A crawl therefore allocates
//! nothing per record. [`MetaRecord`] is the write side's form (the
//! bulkload and the delta layer's page edits), and [`decode_meta_record`]
//! is a collect over the view, so there is one parser.

use flat_geom::{Aabb, Point3};
use flat_storage::{Page, PageId, PageMut, StorageError, PAGE_SIZE};

/// Tag distinguishing metadata leaves from R-tree nodes.
const TAG_META_LEAF: u16 = 3;
/// Fixed page header size.
const HEADER_SIZE: usize = 8;
/// Fixed portion of one serialized record (MBRs, object page, neighbor
/// count, continuation pointer).
const RECORD_FIXED: usize = 48 + 48 + 8 + 2 + 10;
/// One serialized neighbor pointer.
const NEIGHBOR_SIZE: usize = 10;
/// Slot-directory cost of one record.
const DIR_ENTRY: usize = 2;
/// Sentinel for "no continuation".
const NO_CONTINUATION: u64 = u64::MAX;
/// Count-word flag: this record is a continuation chunk.
const FLAG_CONTINUATION: u16 = 0x8000;
/// Count-word flag: this record's partition has been retired (see the
/// module docs on dead records).
const FLAG_DEAD: u16 = 0x4000;
/// Count-word bits holding the neighbor count.
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
    /// Addresses of the neighboring partitions' records (this chunk).
    pub neighbors: Vec<MetaRecordId>,
    /// Next chunk of the neighbor list, if it didn't fit in one record.
    pub continuation: Option<MetaRecordId>,
    /// `true` for continuation chunks. Only primary records are valid
    /// crawl entry points (the seed phase skips continuations: a crawl
    /// seeded mid-chain would only see the tail of the neighbor list).
    pub is_continuation: bool,
    /// `true` once the record's partition has been retired by the
    /// dynamic-update layer: its object page is freed, no links point at
    /// it, and the seed phase skips it.
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

/// The most neighbor pointers a single record can carry on an otherwise
/// empty page.
pub fn max_neighbors_per_record() -> usize {
    (meta_page_budget() - DIR_ENTRY - RECORD_FIXED) / NEIGHBOR_SIZE
}

/// One planned record: which partition it belongs to, which slice of that
/// partition's neighbor list it carries, and whether it is the partition's
/// primary (addressable) record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlannedRecord {
    /// Index of the partition this record belongs to.
    pub partition: usize,
    /// Start offset into the partition's neighbor list.
    pub start: usize,
    /// Number of neighbor pointers in this record.
    pub len: usize,
    /// `true` for the first (addressable) record of the partition.
    pub primary: bool,
}

/// Splits each partition's neighbor list into record-sized chunks, in
/// stream order (all chunks of partition 0, then partition 1, …).
pub(crate) fn plan_records(neighbor_counts: &[usize]) -> Vec<PlannedRecord> {
    let max = max_neighbors_per_record();
    let mut plan = Vec::with_capacity(neighbor_counts.len());
    for (partition, &count) in neighbor_counts.iter().enumerate() {
        let mut start = 0;
        loop {
            let len = (count - start).min(max);
            plan.push(PlannedRecord {
                partition,
                start,
                len,
                primary: start == 0,
            });
            start += len;
            if start >= count {
                break;
            }
        }
    }
    plan
}

/// Greedy first-fit assignment of planned records to pages, preserving
/// order.
///
/// Records arrive in partition (STR tile) order, so consecutive records are
/// spatially close — packing them contiguously is what "preserve the
/// spatial locality of the metadata records" (§V-B.2) means. Returns, per
/// planned record, the `(page sequence number, slot)` it will occupy.
pub(crate) fn assign_slots(plan: &[PlannedRecord]) -> Vec<(usize, u16)> {
    let budget = meta_page_budget();
    let mut assignment = Vec::with_capacity(plan.len());
    let mut page = 0usize;
    let mut slot = 0u16;
    let mut used = 0usize;
    for record in plan {
        let cost = record_size(record.len) + DIR_ENTRY;
        debug_assert!(cost <= budget, "plan_records never exceeds a page");
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

fn put_mbr(page: &mut PageMut<'_>, offset: usize, mbr: &Aabb) {
    page.put_f64(offset, mbr.min.x);
    page.put_f64(offset + 8, mbr.min.y);
    page.put_f64(offset + 16, mbr.min.z);
    page.put_f64(offset + 24, mbr.max.x);
    page.put_f64(offset + 32, mbr.max.y);
    page.put_f64(offset + 40, mbr.max.z);
}

/// Reads an MBR from its 48 serialized bytes.
fn mbr_at(mbr: &[u8]) -> Aabb {
    let coord =
        |i: usize| f64::from_le_bytes(mbr[i * 8..i * 8 + 8].try_into().expect("48-byte MBR"));
    Aabb {
        min: Point3::new(coord(0), coord(1), coord(2)),
        max: Point3::new(coord(3), coord(4), coord(5)),
    }
}

/// Serializes the records of one metadata page.
///
/// # Panics
/// Panics if the records don't fit (callers size pages with
/// [`assign_slots`]) or if `records` is empty.
pub(crate) fn encode_meta_leaf(records: &[MetaRecord], page: &mut Page) {
    assert!(
        !records.is_empty(),
        "metadata leaf must hold at least one record"
    );
    let dir_size = records.len() * DIR_ENTRY;
    let total: usize = records
        .iter()
        .map(|r| record_size(r.neighbors.len()))
        .sum::<usize>()
        + dir_size;
    assert!(
        total <= meta_page_budget(),
        "metadata records overflow the page: {total} bytes"
    );

    page.clear();
    let mut page = page.edit();
    page.put_u16(0, TAG_META_LEAF);
    page.put_u16(2, records.len() as u16);
    let mut offset = HEADER_SIZE + dir_size;
    for (slot, record) in records.iter().enumerate() {
        page.put_u16(HEADER_SIZE + slot * DIR_ENTRY, offset as u16);
        put_mbr(&mut page, offset, &record.page_mbr);
        put_mbr(&mut page, offset + 48, &record.partition_mbr);
        page.put_u64(offset + 96, record.object_page.0);
        assert!(
            record.neighbors.len() <= COUNT_MASK as usize,
            "neighbor count {} exceeds the count-word mask",
            record.neighbors.len()
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
    /// nothing read later can run off the page.
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
        let u64_at =
            |at: usize| u64::from_le_bytes(fixed[at..at + 8].try_into().expect("8-byte range"));
        let count_word = u16_at(104);
        let n = (count_word & COUNT_MASK) as usize;
        let neighbors_start = offset + RECORD_FIXED;
        let neighbors_end = neighbors_start + n * NEIGHBOR_SIZE;
        if neighbors_end > PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "record with {n} neighbors out of page"
            )));
        }
        Ok(MetaView {
            page_mbr: mbr_at(&fixed[..48]),
            partition_mbr: mbr_at(&fixed[48..96]),
            object_page: PageId(u64_at(96)),
            continuation: match u64_at(106) {
                NO_CONTINUATION => None,
                p => Some(MetaRecordId {
                    page: PageId(p),
                    slot: u16_at(114),
                }),
            },
            is_continuation: count_word & FLAG_CONTINUATION != 0,
            is_dead: count_word & FLAG_DEAD != 0,
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
                page: PageId(u64::from_le_bytes(
                    pointer[..8].try_into().expect("10-byte pointer"),
                )),
                slot: u16::from_le_bytes([pointer[8], pointer[9]]),
            })
    }

    /// The record as an owned value (the write side edits these).
    pub(crate) fn to_record(&self) -> MetaRecord {
        MetaRecord {
            page_mbr: self.page_mbr,
            partition_mbr: self.partition_mbr,
            object_page: self.object_page,
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
pub(crate) fn decode_meta_leaf(page: &Page) -> Result<Vec<MetaRecord>, StorageError> {
    let count = meta_leaf_len(page)?;
    (0..count as u16)
        .map(|slot| decode_meta_record(page, slot))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(seed: u64, neighbors: usize) -> MetaRecord {
        let base = seed as f64;
        MetaRecord {
            page_mbr: Aabb::cube(Point3::splat(base), 1.0),
            partition_mbr: Aabb::cube(Point3::splat(base), 2.0),
            object_page: PageId(seed * 3),
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
        encode_meta_leaf(&records, &mut page);
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
        encode_meta_leaf(std::slice::from_ref(&record), &mut page);
        assert_eq!(decode_meta_record(&page, 0).unwrap(), record);
    }

    #[test]
    fn continuation_flag_roundtrips_with_neighbors() {
        let mut record = sample_record(4, 17);
        record.is_continuation = true;
        let mut page = Page::new();
        encode_meta_leaf(std::slice::from_ref(&record), &mut page);
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
        encode_meta_leaf(std::slice::from_ref(&record), &mut page);
        let got = decode_meta_record(&page, 0).unwrap();
        assert!(got.is_dead);
        assert!(!got.is_continuation);
        assert_eq!(got.neighbors.len(), 9);
        assert_eq!(got, record);

        record.is_continuation = true;
        encode_meta_leaf(std::slice::from_ref(&record), &mut page);
        let got = decode_meta_record(&page, 0).unwrap();
        assert!(got.is_dead && got.is_continuation);
        assert_eq!(got, record);
    }

    #[test]
    fn record_with_no_neighbors_roundtrips() {
        let record = sample_record(7, 0);
        let mut page = Page::new();
        encode_meta_leaf(std::slice::from_ref(&record), &mut page);
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
        encode_meta_leaf(&records, &mut page); // must not panic
        assert_eq!(decode_meta_leaf(&page).unwrap().len(), fit);
    }

    #[test]
    #[should_panic(expected = "overflow the page")]
    fn overflow_is_rejected() {
        let records: Vec<MetaRecord> = (0..40).map(|i| sample_record(i, 30)).collect();
        encode_meta_leaf(&records, &mut Page::new());
    }

    #[test]
    fn plan_records_without_overflow_is_one_to_one() {
        let counts = vec![3usize, 0, 30, 7];
        let plan = plan_records(&counts);
        assert_eq!(plan.len(), 4);
        for (i, p) in plan.iter().enumerate() {
            assert_eq!(p.partition, i);
            assert_eq!(p.start, 0);
            assert_eq!(p.len, counts[i]);
            assert!(p.primary);
        }
    }

    #[test]
    fn plan_records_chunks_huge_neighbor_lists() {
        let max = max_neighbors_per_record();
        let counts = vec![max * 2 + 5, 3];
        let plan = plan_records(&counts);
        assert_eq!(plan.len(), 4, "3 chunks for the giant + 1 normal");
        assert_eq!(
            plan[0],
            PlannedRecord {
                partition: 0,
                start: 0,
                len: max,
                primary: true
            }
        );
        assert_eq!(
            plan[1],
            PlannedRecord {
                partition: 0,
                start: max,
                len: max,
                primary: false
            }
        );
        assert_eq!(
            plan[2],
            PlannedRecord {
                partition: 0,
                start: 2 * max,
                len: 5,
                primary: false
            }
        );
        assert!(plan[3].primary);
        // Chunks cover the whole list exactly once.
        let covered: usize = plan
            .iter()
            .filter(|p| p.partition == 0)
            .map(|p| p.len)
            .sum();
        assert_eq!(covered, counts[0]);
    }

    #[test]
    fn assign_slots_respects_budget_and_order() {
        let counts: Vec<usize> = (0..100).map(|i| (i * 7) % 40).collect();
        let plan = plan_records(&counts);
        let assignment = assign_slots(&plan);
        assert_eq!(assignment.len(), plan.len());
        // Slots increase within a page; pages increase monotonically.
        for w in assignment.windows(2) {
            let (p0, s0) = w[0];
            let (p1, s1) = w[1];
            assert!(p1 == p0 && s1 == s0 + 1 || p1 == p0 + 1 && s1 == 0);
        }
        // Per-page sizes stay within budget.
        let mut per_page: std::collections::HashMap<usize, usize> = Default::default();
        for (i, (p, _)) in assignment.iter().enumerate() {
            *per_page.entry(*p).or_default() += record_size(plan[i].len) + DIR_ENTRY;
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
        let counts = vec![30usize; 100];
        let per = record_size(30) + DIR_ENTRY;
        let per_page = meta_page_budget() / per;
        let assignment = assign_slots(&plan_records(&counts));
        let last_page = assignment.last().unwrap().0;
        assert_eq!(last_page, (100 - 1) / per_page);
    }

    #[test]
    fn giant_records_get_their_own_pages() {
        let max = max_neighbors_per_record();
        let counts = vec![max, max, 3];
        let plan = plan_records(&counts);
        let assignment = assign_slots(&plan);
        // Two max-size records cannot share a page.
        assert_ne!(assignment[0].0, assignment[1].0);
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
        encode_meta_leaf(&[sample_record(1, 2)], &mut page);
        assert!(decode_meta_record(&page, 1).is_err());
    }

    #[test]
    fn many_neighbors_roundtrip() {
        // ~70 pointers (the Fig 20 tail) still fits comfortably.
        let record = sample_record(1, 70);
        let mut page = Page::new();
        encode_meta_leaf(std::slice::from_ref(&record), &mut page);
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
                encode_meta_leaf(on_page, &mut page);
                for (slot, expected) in on_page.iter().enumerate() {
                    assert_view_matches(&page, slot as u16, expected);
                }
            }
        }
    }

    /// A one-record page whose record starts at the returned offset.
    fn one_record_page(neighbors: usize) -> (Page, usize) {
        let mut page = Page::new();
        encode_meta_leaf(&[sample_record(2, neighbors)], &mut page);
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
    fn slot_directory_past_the_page_is_corrupt() {
        // A record count the directory cannot hold on one page.
        let (mut page, _) = one_record_page(1);
        page.put_u16(2, u16::MAX);
        let beyond = ((PAGE_SIZE - HEADER_SIZE) / DIR_ENTRY) as u16;
        assert!(is_corrupt(MetaView::new(page.clone(), beyond)));
        assert!(is_corrupt(decode_meta_record(&page, u16::MAX - 1)));
    }
}
