//! Saving and loading the R-tree descriptor.
//!
//! All tree *data* already lives in the page store; the only transient
//! state is the small descriptor (root page, height, counters, layout).
//! [`RTree::save`] writes it to a freshly allocated page and returns that
//! page's id; [`RTree::load`] reconstructs the handle from it. Combined
//! with [`flat_storage::FileStore`], this makes indexes durable across
//! process restarts (see the `persistence` integration test).

use crate::tree::{RTree, RTreeConfig};
use crate::LeafLayout;
use flat_storage::{Page, PageId, PageKind, PageRead, PageWrite, StorageError};

const MAGIC: u32 = 0x464C_5254; // "FLRT"
const KIND_RTREE: u16 = 1;
const NO_ROOT: u64 = u64::MAX;

impl RTree {
    /// Writes the tree descriptor to a new page, returning its id.
    ///
    /// The caller records the id out of band (conventionally it is the
    /// store's last page when saving right after a bulkload).
    pub fn save(&self, pool: &mut impl PageWrite) -> Result<PageId, StorageError> {
        let mut page = Page::new();
        page.put_u32(0, MAGIC);
        page.put_u16(4, KIND_RTREE);
        page.put_u16(
            6,
            match self.config().layout {
                LeafLayout::MbrOnly => 0,
                LeafLayout::WithIds => 1,
            },
        );
        page.put_u64(8, self.root().map_or(NO_ROOT, |r| r.0));
        page.put_u32(16, self.height());
        page.put_u64(24, self.num_elements());
        page.put_u64(32, self.num_leaf_pages());
        page.put_u64(40, self.num_inner_pages());
        let id = pool.alloc()?;
        pool.write(id, &page, PageKind::Other)?;
        Ok(id)
    }

    /// Reconstructs a tree handle from a descriptor page written by
    /// [`RTree::save`]. Page-kind accounting reverts to the defaults
    /// ([`PageKind::RTreeInner`]/[`PageKind::RTreeLeaf`]).
    pub fn load(pool: &impl PageRead, descriptor: PageId) -> Result<RTree, StorageError> {
        let page = pool.read_page(descriptor, PageKind::Other)?;
        if page.get_u32(0) != MAGIC || page.get_u16(4) != KIND_RTREE {
            return Err(StorageError::Corrupt(format!(
                "{descriptor} is not an R-tree descriptor"
            )));
        }
        let layout = match page.get_u16(6) {
            0 => LeafLayout::MbrOnly,
            1 => LeafLayout::WithIds,
            t => return Err(StorageError::Corrupt(format!("unknown layout tag {t}"))),
        };
        let root = page.get_u64(8);
        let height = page.get_u32(16);
        let num_elements = page.get_u64(24);
        let num_leaf_pages = page.get_u64(32);
        let num_inner_pages = page.get_u64(40);

        let mut tree = RTree::new_empty(RTreeConfig {
            layout,
            ..RTreeConfig::default()
        });
        if root != NO_ROOT {
            tree.set_root(PageId(root), height);
            tree.bump_counts(
                num_elements as i64,
                num_leaf_pages as i64,
                num_inner_pages as i64,
            );
        } else if num_elements != 0 {
            return Err(StorageError::Corrupt(
                "descriptor has no root but non-zero element count".to_string(),
            ));
        }
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{brute_force, random_entries};
    use crate::BulkLoad;
    use flat_geom::{Aabb, Point3};
    use flat_storage::{ConcurrentBufferPool, MemStore};

    #[test]
    fn save_load_roundtrip_preserves_queries() {
        let entries = random_entries(5000, 61);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 14);
        let tree = RTree::bulk_load(
            &mut pool,
            entries.clone(),
            BulkLoad::Str,
            RTreeConfig {
                layout: LeafLayout::WithIds,
                ..RTreeConfig::default()
            },
        )
        .unwrap();
        let descriptor = tree.save(&mut pool).unwrap();

        let loaded = RTree::load(&pool, descriptor).unwrap();
        assert_eq!(loaded.height(), tree.height());
        assert_eq!(loaded.num_elements(), tree.num_elements());
        assert_eq!(loaded.config().layout, LeafLayout::WithIds);

        let q = Aabb::cube(Point3::splat(50.0), 30.0);
        let mut got: Vec<u64> = loaded
            .range_query(&pool, &q)
            .unwrap()
            .iter()
            .map(|h| h.id)
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute_force(&entries, &q));
    }

    #[test]
    fn empty_tree_roundtrips() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let tree =
            RTree::bulk_load(&mut pool, Vec::new(), BulkLoad::Str, RTreeConfig::default()).unwrap();
        let descriptor = tree.save(&mut pool).unwrap();
        let loaded = RTree::load(&pool, descriptor).unwrap();
        assert_eq!(loaded.num_elements(), 0);
        assert!(loaded.root().is_none());
    }

    #[test]
    fn loading_garbage_fails_cleanly() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let id = pool.alloc().unwrap();
        pool.write(id, &Page::new(), PageKind::Other).unwrap();
        assert!(matches!(
            RTree::load(&pool, id),
            Err(StorageError::Corrupt(_))
        ));
    }
}
