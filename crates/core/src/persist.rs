//! Saving and loading the FLAT index descriptor.
//!
//! Mirrors `flat_rtree`'s persistence: the object pages, metadata pages
//! and seed tree already live in the page store; only the descriptor
//! (seed root, height, layout, counters) needs to be written to make the
//! index durable. See the `persistence` integration test for the full
//! file-backed round trip.
//!
//! These are the primitives the [`crate::FlatDb`] façade's
//! [`crate::FlatDb::persist`] / [`crate::FlatDb::open_file`] build on —
//! there is one descriptor implementation, and the façade adds only the
//! page copy and the descriptor-placement convention (last page of the
//! file). Prefer the façade in new code; use these directly when managing
//! pools and descriptor pages by hand (e.g. several indexes sharing one
//! store).

use crate::index::FlatIndex;
use flat_rtree::LeafLayout;
use flat_storage::{Page, PageId, PageKind, PageRead, PageWrite, StorageError};

const MAGIC: u32 = 0x464C_4154; // "FLAT"
const KIND_FLAT: u16 = 2;
const NO_ROOT: u64 = u64::MAX;

impl FlatIndex {
    /// Writes the index descriptor to a new page, returning its id.
    pub fn save(&self, pool: &mut impl PageWrite) -> Result<PageId, StorageError> {
        let mut page = Page::new();
        page.put_u32(0, MAGIC);
        page.put_u16(4, KIND_FLAT);
        page.put_u16(
            6,
            match self.layout() {
                LeafLayout::MbrOnly => 0,
                LeafLayout::WithIds => 1,
            },
        );
        page.put_u64(8, self.seed_root.map_or(NO_ROOT, |r| r.0));
        page.put_u32(16, self.seed_height());
        page.put_u64(24, self.num_elements());
        page.put_u64(32, self.num_object_pages());
        page.put_u64(40, self.num_meta_pages());
        page.put_u64(48, self.num_seed_inner_pages());
        let id = pool.alloc()?;
        pool.write(id, &page, PageKind::Other)?;
        Ok(id)
    }

    /// Reconstructs an index handle from a descriptor page written by
    /// [`FlatIndex::save`].
    pub fn load(pool: &impl PageRead, descriptor: PageId) -> Result<FlatIndex, StorageError> {
        let page = pool.read_page(descriptor, PageKind::Other)?;
        if page.get_u32(0) != MAGIC || page.get_u16(4) != KIND_FLAT {
            return Err(StorageError::Corrupt(format!(
                "{descriptor} is not a FLAT descriptor"
            )));
        }
        let layout = match page.get_u16(6) {
            0 => LeafLayout::MbrOnly,
            1 => LeafLayout::WithIds,
            t => return Err(StorageError::Corrupt(format!("unknown layout tag {t}"))),
        };
        let root = page.get_u64(8);
        Ok(FlatIndex {
            seed_root: if root == NO_ROOT {
                None
            } else {
                Some(PageId(root))
            },
            seed_height: page.get_u32(16),
            layout,
            num_elements: page.get_u64(24),
            num_object_pages: page.get_u64(32),
            num_meta_pages: page.get_u64(40),
            num_seed_inner_pages: page.get_u64(48),
        })
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
        assert_eq!(loaded.num_elements(), index.num_elements());
        assert_eq!(loaded.seed_height(), index.seed_height());
        assert_eq!(loaded.num_meta_pages(), index.num_meta_pages());

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
        assert_eq!(loaded.num_elements(), 0);
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
