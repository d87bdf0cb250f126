//! The FLAT index descriptor and its one codec.
//!
//! The object pages, metadata pages and seed tree already live in the
//! page store; the descriptor (layout, seed root and height, four
//! counters) is what turns them back into an index. It has one encoding,
//! [`FlatIndex::encode_descriptor`], used in two places:
//!
//! * a durable database's checkpoint snapshot embeds it (the snapshot's
//!   own header carries the version, see `durable.rs`);
//! * [`FlatIndex::save`] writes it to a page behind a header of magic,
//!   index kind and [`DESCRIPTOR_VERSION`], which [`FlatIndex::load`]
//!   checks. [`crate::FlatDb::persist`] / [`crate::FlatDb::open_file`]
//!   put that page last in the file. See the `persistence` integration
//!   test for the full file-backed round trip and the golden file digest.

use crate::durable::Reader;
use crate::index::FlatIndex;
use flat_rtree::LeafLayout;
use flat_storage::{Page, PageId, PageKind, PageRead, PageWrite, StorageError};

const MAGIC: u32 = 0x464C_4154; // "FLAT"
const KIND_FLAT: u16 = 2;
/// Format version of a saved descriptor page. A change to the descriptor
/// encoding, or to any page format the descriptor points at, bumps it.
pub(crate) const DESCRIPTOR_VERSION: u16 = 1;
/// Encoding of `FlatIndex::seed_root == None`.
const NO_ROOT: u64 = u64::MAX;

impl FlatIndex {
    /// Appends the descriptor: layout `u16`, seed root `u64`, seed height
    /// `u32`, then elements, object pages, metadata pages and seed-tree
    /// directory pages as `u64`s, all little-endian.
    pub(crate) fn encode_descriptor(&self, out: &mut Vec<u8>) {
        let layout: u16 = match self.layout {
            LeafLayout::MbrOnly => 0,
            LeafLayout::WithIds => 1,
        };
        out.extend_from_slice(&layout.to_le_bytes());
        out.extend_from_slice(&self.seed_root.map_or(NO_ROOT, |r| r.0).to_le_bytes());
        out.extend_from_slice(&self.seed_height.to_le_bytes());
        for count in [
            self.num_elements,
            self.num_object_pages,
            self.num_meta_pages,
            self.num_seed_inner_pages,
        ] {
            out.extend_from_slice(&count.to_le_bytes());
        }
    }

    /// Reads a descriptor written by [`FlatIndex::encode_descriptor`].
    pub(crate) fn decode_descriptor(r: &mut Reader<'_>) -> Result<FlatIndex, StorageError> {
        let layout = match r.u16()? {
            0 => LeafLayout::MbrOnly,
            1 => LeafLayout::WithIds,
            t => return Err(StorageError::Corrupt(format!("unknown layout tag {t}"))),
        };
        let root = r.u64()?;
        Ok(FlatIndex {
            seed_root: (root != NO_ROOT).then_some(PageId(root)),
            seed_height: r.u32()?,
            layout,
            num_elements: r.u64()?,
            num_object_pages: r.u64()?,
            num_meta_pages: r.u64()?,
            num_seed_inner_pages: r.u64()?,
        })
    }

    /// Writes the index descriptor to a new page, returning its id.
    pub fn save(&self, pool: &mut impl PageWrite) -> Result<PageId, StorageError> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.extend_from_slice(&KIND_FLAT.to_le_bytes());
        bytes.extend_from_slice(&DESCRIPTOR_VERSION.to_le_bytes());
        self.encode_descriptor(&mut bytes);
        let mut page = Page::new();
        page.bytes_mut()[..bytes.len()].copy_from_slice(&bytes);
        let id = pool.alloc()?;
        pool.write(id, &page, PageKind::Other)?;
        Ok(id)
    }

    /// Reconstructs an index handle from a descriptor page written by
    /// [`FlatIndex::save`]. A page of another kind, or of a format version
    /// this build does not read, is [`StorageError::Corrupt`].
    pub fn load(pool: &impl PageRead, descriptor: PageId) -> Result<FlatIndex, StorageError> {
        let page = pool.read_page(descriptor, PageKind::Other)?;
        let mut r = Reader::new(page.bytes());
        if r.u32()? != MAGIC || r.u16()? != KIND_FLAT {
            return Err(StorageError::Corrupt(format!(
                "{descriptor} is not a FLAT descriptor"
            )));
        }
        let version = r.u16()?;
        if version != DESCRIPTOR_VERSION {
            return Err(StorageError::Corrupt(format!(
                "{descriptor} holds descriptor format version {version}; \
                 this build reads version {DESCRIPTOR_VERSION}"
            )));
        }
        FlatIndex::decode_descriptor(&mut r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlatIndex, FlatOptions};
    use flat_geom::{Aabb, Point3};
    use flat_rtree::Entry;
    use flat_storage::{ConcurrentBufferPool, MemStore};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_entries(n: usize, seed: u64) -> Vec<Entry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let c = Point3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                Entry::new(i as u64, Aabb::cube(c, 0.4))
            })
            .collect()
    }

    #[test]
    fn save_load_roundtrip_preserves_queries() {
        let entries = random_entries(8000, 71);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 14);
        let (index, _) =
            FlatIndex::build(&mut pool, entries.clone(), FlatOptions::default()).unwrap();
        let descriptor = index.save(&mut pool).unwrap();

        let loaded = FlatIndex::load(&pool, descriptor).unwrap();
        assert_eq!(loaded, index);

        let q = Aabb::cube(Point3::splat(40.0), 20.0);
        let expected = entries.iter().filter(|e| q.intersects(&e.mbr)).count();
        assert_eq!(loaded.range_query(&pool, &q).unwrap().len(), expected);
    }

    #[test]
    fn empty_index_roundtrips() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let (index, _) = FlatIndex::build(&mut pool, Vec::new(), FlatOptions::default()).unwrap();
        let descriptor = index.save(&mut pool).unwrap();
        let loaded = FlatIndex::load(&pool, descriptor).unwrap();
        assert_eq!(loaded, index);
        let q = Aabb::cube(Point3::ORIGIN, 5.0);
        assert!(loaded.range_query(&pool, &q).unwrap().is_empty());
    }

    #[test]
    fn rtree_descriptor_is_rejected() {
        // Cross-kind confusion must fail: save an R-tree, load as FLAT.
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 12);
        let tree = flat_rtree::RTree::bulk_load(
            &mut pool,
            random_entries(100, 3),
            flat_rtree::BulkLoad::Str,
            flat_rtree::RTreeConfig::default(),
        )
        .unwrap();
        let descriptor = tree.save(&mut pool).unwrap();
        assert!(matches!(
            FlatIndex::load(&pool, descriptor),
            Err(StorageError::Corrupt(_))
        ));
    }
}
