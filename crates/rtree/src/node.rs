//! On-page node formats shared by every R-tree variant and by FLAT's object
//! pages.
//!
//! A node occupies exactly one 4 KB page:
//!
//! ```text
//! offset 0   u16  node tag (1 = inner, 2 = leaf)
//! offset 2   u16  entry count
//! offset 4   u16  leaf layout tag (leaves only; 0 = MbrOnly, 1 = WithIds)
//! offset 6   u16  reserved
//! offset 8   entries …
//! ```
//!
//! Inner entries are `(mbr: 6×f64, child: u64)` = 56 bytes → **73 per page**.
//! Leaf entries are either bare MBRs (48 bytes → **85 per page**, the
//! paper's number) or `(mbr, id)` (56 bytes → 73 per page).

use crate::Entry;
use flat_geom::{Aabb, Point3};
use flat_storage::{Page, PageId, PageMut, StorageError, PAGE_SIZE};

/// Size of the fixed node header in bytes.
pub const HEADER_SIZE: usize = 8;

const TAG_INNER: u16 = 1;
const TAG_LEAF: u16 = 2;

const MBR_SIZE: usize = 48;
const INNER_ENTRY_SIZE: usize = MBR_SIZE + 8;

/// How leaf pages (and FLAT object pages) serialize their entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeafLayout {
    /// Bare 48-byte MBRs; 85 entries per 4 KB page, exactly matching the
    /// paper's setup ("All implementations store 85 spatial elements on a
    /// 4K page", §VII-A). Element ids are not persisted.
    #[default]
    MbrOnly,
    /// MBR + u64 id; 73 entries per page. Use when the application must
    /// map results back to its own objects.
    WithIds,
}

impl LeafLayout {
    fn tag(self) -> u16 {
        match self {
            LeafLayout::MbrOnly => 0,
            LeafLayout::WithIds => 1,
        }
    }

    fn from_tag(tag: u16) -> Result<LeafLayout, StorageError> {
        match tag {
            0 => Ok(LeafLayout::MbrOnly),
            1 => Ok(LeafLayout::WithIds),
            t => Err(StorageError::Corrupt(format!(
                "unknown leaf layout tag {t}"
            ))),
        }
    }

    /// Bytes per entry under this layout.
    pub fn entry_size(self) -> usize {
        match self {
            LeafLayout::MbrOnly => MBR_SIZE,
            LeafLayout::WithIds => MBR_SIZE + 8,
        }
    }
}

/// Maximum number of element entries on a leaf page under `layout`.
pub fn leaf_capacity(layout: LeafLayout) -> usize {
    (PAGE_SIZE - HEADER_SIZE) / layout.entry_size()
}

/// Maximum number of child entries on an inner page.
pub fn inner_capacity() -> usize {
    (PAGE_SIZE - HEADER_SIZE) / INNER_ENTRY_SIZE
}

/// A child reference held by an inner node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildRef {
    /// MBR of the entire subtree rooted at `page`.
    pub mbr: Aabb,
    /// The child page.
    pub page: PageId,
}

fn put_mbr(page: &mut PageMut<'_>, offset: usize, mbr: &Aabb) {
    page.put_f64(offset, mbr.min.x);
    page.put_f64(offset + 8, mbr.min.y);
    page.put_f64(offset + 16, mbr.min.z);
    page.put_f64(offset + 24, mbr.max.x);
    page.put_f64(offset + 32, mbr.max.y);
    page.put_f64(offset + 40, mbr.max.z);
}

#[inline]
fn get_mbr(page: &Page, offset: usize) -> Aabb {
    // One bounds check for the whole MBR; the six reads inside it are
    // fixed offsets into a 48-byte slice.
    let mbr = &page.bytes()[offset..offset + MBR_SIZE];
    let coord = |i: usize| f64::from_le_bytes(mbr[i * 8..i * 8 + 8].try_into().unwrap());
    Aabb {
        min: Point3::new(coord(0), coord(1), coord(2)),
        max: Point3::new(coord(3), coord(4), coord(5)),
    }
}

/// Serializes an inner node.
///
/// # Panics
/// Panics if `children` exceeds [`inner_capacity`] or is empty.
pub fn encode_inner(children: &[ChildRef], page: &mut Page) {
    assert!(
        !children.is_empty(),
        "inner node must have at least one child"
    );
    assert!(
        children.len() <= inner_capacity(),
        "inner node overflow: {} > {}",
        children.len(),
        inner_capacity()
    );
    page.clear();
    let mut page = page.edit();
    page.put_u16(0, TAG_INNER);
    page.put_u16(2, children.len() as u16);
    let mut offset = HEADER_SIZE;
    for child in children {
        put_mbr(&mut page, offset, &child.mbr);
        page.put_u64(offset + MBR_SIZE, child.page.0);
        offset += INNER_ENTRY_SIZE;
    }
}

/// Deserializes an inner node.
pub fn decode_inner(page: &Page) -> Result<Vec<ChildRef>, StorageError> {
    if page.get_u16(0) != TAG_INNER {
        return Err(StorageError::Corrupt(format!(
            "expected inner node tag, found {}",
            page.get_u16(0)
        )));
    }
    let count = page.get_u16(2) as usize;
    if count > inner_capacity() {
        return Err(StorageError::Corrupt(format!(
            "inner count {count} exceeds capacity"
        )));
    }
    let mut children = Vec::with_capacity(count);
    let mut offset = HEADER_SIZE;
    for _ in 0..count {
        children.push(ChildRef {
            mbr: get_mbr(page, offset),
            page: PageId(page.get_u64(offset + MBR_SIZE)),
        });
        offset += INNER_ENTRY_SIZE;
    }
    Ok(children)
}

/// Serializes a leaf node (also used verbatim for FLAT object pages).
///
/// Under [`LeafLayout::MbrOnly`] the entry ids are discarded.
///
/// # Panics
/// Panics if `entries` exceeds the layout capacity or is empty.
pub fn encode_leaf(entries: &[Entry], layout: LeafLayout, page: &mut Page) {
    assert!(
        !entries.is_empty(),
        "leaf node must have at least one entry"
    );
    assert!(
        entries.len() <= leaf_capacity(layout),
        "leaf overflow: {} > {}",
        entries.len(),
        leaf_capacity(layout)
    );
    page.clear();
    let mut page = page.edit();
    page.put_u16(0, TAG_LEAF);
    page.put_u16(2, entries.len() as u16);
    page.put_u16(4, layout.tag());
    let mut offset = HEADER_SIZE;
    for entry in entries {
        put_mbr(&mut page, offset, &entry.mbr);
        offset += MBR_SIZE;
        if layout == LeafLayout::WithIds {
            page.put_u64(offset, entry.id);
            offset += 8;
        }
    }
}

/// Validates a leaf node's header, returning the layout it was written
/// with and its entry count — the one check every leaf reader runs before
/// [`leaf_entry`].
pub fn leaf_header(page: &Page) -> Result<(LeafLayout, usize), StorageError> {
    if page.get_u16(0) != TAG_LEAF {
        return Err(StorageError::Corrupt(format!(
            "expected leaf node tag, found {}",
            page.get_u16(0)
        )));
    }
    let count = page.get_u16(2) as usize;
    let layout = LeafLayout::from_tag(page.get_u16(4))?;
    if count > leaf_capacity(layout) {
        return Err(StorageError::Corrupt(format!(
            "leaf count {count} exceeds capacity"
        )));
    }
    Ok((layout, count))
}

/// Reads entry `slot` of a leaf page in place, without decoding its
/// page-mates: `slot` must be below the count [`leaf_header`] returned for
/// `layout`.
///
/// Under [`LeafLayout::MbrOnly`] the returned id is the slot number;
/// callers combine it with the page id for a globally unique reference.
///
/// # Panics
/// Panics if `slot` is at or above [`leaf_capacity`]`(layout)`.
#[inline]
pub fn leaf_entry(page: &Page, layout: LeafLayout, slot: usize) -> Entry {
    let offset = HEADER_SIZE + slot * layout.entry_size();
    let id = match layout {
        LeafLayout::MbrOnly => slot as u64,
        LeafLayout::WithIds => page.get_u64(offset + MBR_SIZE),
    };
    Entry::new(id, get_mbr(page, offset))
}

/// Deserializes a leaf node, reporting which layout it was written with:
/// [`leaf_header`], then [`leaf_entry`] for every slot.
pub fn decode_leaf(page: &Page) -> Result<(LeafLayout, Vec<Entry>), StorageError> {
    let (layout, count) = leaf_header(page)?;
    let entries = (0..count).map(|slot| leaf_entry(page, layout, slot));
    Ok((layout, entries.collect()))
}

/// `true` if the page holds a leaf node.
pub fn is_leaf(page: &Page) -> bool {
    page.get_u16(0) == TAG_LEAF
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_geom::Point3;

    fn mk_entries(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|i| Entry::new(1000 + i as u64, Aabb::cube(Point3::splat(i as f64), 0.5)))
            .collect()
    }

    #[test]
    fn capacities_match_the_paper() {
        assert_eq!(
            leaf_capacity(LeafLayout::MbrOnly),
            85,
            "the paper's 85 elements per page"
        );
        assert_eq!(leaf_capacity(LeafLayout::WithIds), 73);
        assert_eq!(inner_capacity(), 73);
    }

    #[test]
    fn inner_roundtrip() {
        let children: Vec<ChildRef> = (0..inner_capacity())
            .map(|i| ChildRef {
                mbr: Aabb::cube(Point3::splat(i as f64), 1.0),
                page: PageId(i as u64 * 7),
            })
            .collect();
        let mut page = Page::new();
        encode_inner(&children, &mut page);
        assert!(!is_leaf(&page));
        assert_eq!(decode_inner(&page).unwrap(), children);
    }

    #[test]
    fn leaf_roundtrip_with_ids() {
        let entries = mk_entries(73);
        let mut page = Page::new();
        encode_leaf(&entries, LeafLayout::WithIds, &mut page);
        assert!(is_leaf(&page));
        let (layout, decoded) = decode_leaf(&page).unwrap();
        assert_eq!(layout, LeafLayout::WithIds);
        assert_eq!(decoded, entries);
    }

    #[test]
    fn leaf_entry_reads_what_decode_leaf_decodes_in_both_layouts() {
        for layout in [LeafLayout::MbrOnly, LeafLayout::WithIds] {
            for n in [1, 2, leaf_capacity(layout)] {
                let mut page = Page::new();
                encode_leaf(&mk_entries(n), layout, &mut page);
                assert_eq!(leaf_header(&page).unwrap(), (layout, n));
                let (_, decoded) = decode_leaf(&page).unwrap();
                assert_eq!(decoded.len(), n);
                for (slot, entry) in decoded.iter().enumerate() {
                    assert_eq!(
                        leaf_entry(&page, layout, slot),
                        *entry,
                        "{layout:?} slot {slot}"
                    );
                }
            }
        }
    }

    #[test]
    fn leaf_header_rejects_what_decode_leaf_rejects() {
        let corrupt = |edit: fn(&mut Page)| {
            let mut page = Page::new();
            encode_leaf(&mk_entries(3), LeafLayout::WithIds, &mut page);
            edit(&mut page);
            let header = leaf_header(&page);
            assert!(
                matches!(header, Err(StorageError::Corrupt(_))),
                "{header:?}"
            );
            assert!(matches!(decode_leaf(&page), Err(StorageError::Corrupt(_))));
        };
        corrupt(|page| page.put_u16(0, TAG_INNER)); // wrong node tag
        corrupt(|page| page.put_u16(4, 2)); // unknown layout tag
        corrupt(|page| page.put_u16(2, 74)); // one above WithIds capacity
        corrupt(|page| {
            page.put_u16(4, LeafLayout::MbrOnly.tag());
            page.put_u16(2, 86); // one above MbrOnly capacity
        });
    }

    #[test]
    fn leaf_roundtrip_mbr_only_drops_ids_keeps_slots() {
        let entries = mk_entries(85);
        let mut page = Page::new();
        encode_leaf(&entries, LeafLayout::MbrOnly, &mut page);
        let (layout, decoded) = decode_leaf(&page).unwrap();
        assert_eq!(layout, LeafLayout::MbrOnly);
        assert_eq!(decoded.len(), 85);
        for (slot, (dec, orig)) in decoded.iter().zip(entries.iter()).enumerate() {
            assert_eq!(dec.mbr, orig.mbr);
            assert_eq!(dec.id, slot as u64, "MbrOnly ids are slot numbers");
        }
    }

    #[test]
    #[should_panic(expected = "leaf overflow")]
    fn leaf_overflow_panics() {
        let entries = mk_entries(86);
        encode_leaf(&entries, LeafLayout::MbrOnly, &mut Page::new());
    }

    #[test]
    #[should_panic(expected = "inner node overflow")]
    fn inner_overflow_panics() {
        let children: Vec<ChildRef> = (0..inner_capacity() + 1)
            .map(|i| ChildRef {
                mbr: Aabb::cube(Point3::ORIGIN, 1.0),
                page: PageId(i as u64),
            })
            .collect();
        encode_inner(&children, &mut Page::new());
    }

    #[test]
    fn decode_wrong_tag_is_error_not_panic() {
        let entries = mk_entries(3);
        let mut page = Page::new();
        encode_leaf(&entries, LeafLayout::WithIds, &mut page);
        assert!(decode_inner(&page).is_err());
        let children = vec![ChildRef {
            mbr: Aabb::cube(Point3::ORIGIN, 1.0),
            page: PageId(0),
        }];
        encode_inner(&children, &mut page);
        assert!(decode_leaf(&page).is_err());
    }

    #[test]
    fn decode_corrupt_count_is_error() {
        let mut page = Page::new();
        encode_leaf(&mk_entries(3), LeafLayout::MbrOnly, &mut page);
        page.put_u16(2, 999);
        assert!(matches!(decode_leaf(&page), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn full_leaf_fits_exactly_in_page() {
        // 8 + 85·48 = 4088 ≤ 4096 — the last entry must not be truncated.
        let entries = mk_entries(85);
        let mut page = Page::new();
        encode_leaf(&entries, LeafLayout::MbrOnly, &mut page);
        let (_, decoded) = decode_leaf(&page).unwrap();
        assert_eq!(decoded.last().unwrap().mbr, entries.last().unwrap().mbr);
    }

    #[test]
    fn negative_and_extreme_coordinates_roundtrip() {
        let entries = vec![
            Entry::new(
                0,
                Aabb::from_corners(Point3::splat(-1e300), Point3::splat(1e300)),
            ),
            Entry::new(1, Aabb::point(Point3::new(-0.0, f64::MIN_POSITIVE, 1e-308))),
        ];
        let mut page = Page::new();
        encode_leaf(&entries, LeafLayout::WithIds, &mut page);
        let (_, decoded) = decode_leaf(&page).unwrap();
        assert_eq!(decoded[0].mbr, entries[0].mbr);
        assert_eq!(decoded[1].mbr, entries[1].mbr);
    }
}
