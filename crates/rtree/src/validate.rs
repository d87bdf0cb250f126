//! Structural validation of on-disk trees.
//!
//! Used by the test-suites (including the property tests at the workspace
//! root) to assert the R-tree invariants that query correctness rests on:
//!
//! 1. every inner entry's MBR is exactly the union of its child's MBRs
//!    (tight directory rectangles);
//! 2. all leaves sit at the same depth (the tree is balanced);
//! 3. the tree's cached page/element counters match the pages actually
//!    reachable from the root.

use crate::node::{decode_inner, decode_leaf, is_leaf};
use crate::tree::RTree;
use flat_geom::Aabb;
use flat_storage::{PageKind, PageRead, StorageError};

/// Summary returned by [`check_invariants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeReport {
    /// Elements found in reachable leaves.
    pub elements: u64,
    /// Reachable leaf pages.
    pub leaf_pages: u64,
    /// Reachable inner pages.
    pub inner_pages: u64,
}

/// Walks the whole tree, verifying the invariants above.
///
/// Returns an error string describing the first violation found, or the
/// tally of reachable pages.
pub fn check_invariants(pool: &impl PageRead, tree: &RTree) -> Result<TreeReport, String> {
    let Some(root) = tree.root() else {
        return if tree.num_elements() == 0 && tree.height() == 0 {
            Ok(TreeReport {
                elements: 0,
                leaf_pages: 0,
                inner_pages: 0,
            })
        } else {
            Err("empty root but non-zero counters".to_string())
        };
    };

    let mut report = TreeReport {
        elements: 0,
        leaf_pages: 0,
        inner_pages: 0,
    };
    let mbr = visit(pool, root, tree.height(), &mut report)?;
    // The root MBR must be finite for non-empty trees.
    if !mbr.is_finite() {
        return Err("root MBR is not finite".to_string());
    }
    if report.elements != tree.num_elements() {
        return Err(format!(
            "element counter mismatch: reachable {}, cached {}",
            report.elements,
            tree.num_elements()
        ));
    }
    if report.leaf_pages != tree.num_leaf_pages() {
        return Err(format!(
            "leaf page counter mismatch: reachable {}, cached {}",
            report.leaf_pages,
            tree.num_leaf_pages()
        ));
    }
    if report.inner_pages != tree.num_inner_pages() {
        return Err(format!(
            "inner page counter mismatch: reachable {}, cached {}",
            report.inner_pages,
            tree.num_inner_pages()
        ));
    }
    Ok(report)
}

fn io_err(e: StorageError) -> String {
    format!("storage error during validation: {e}")
}

fn visit(
    pool: &impl PageRead,
    page_id: flat_storage::PageId,
    level: u32,
    report: &mut TreeReport,
) -> Result<Aabb, String> {
    if level == 1 {
        let page = pool
            .read_page(page_id, PageKind::RTreeLeaf)
            .map_err(io_err)?;
        if !is_leaf(&page) {
            return Err(format!("{page_id}: expected a leaf at level 1"));
        }
        let (_, entries) = decode_leaf(&page).map_err(io_err)?;
        if entries.is_empty() {
            return Err(format!("{page_id}: empty leaf"));
        }
        report.elements += entries.len() as u64;
        report.leaf_pages += 1;
        Ok(Aabb::union_all(entries.iter().map(|e| e.mbr)))
    } else {
        let page = pool
            .read_page(page_id, PageKind::RTreeInner)
            .map_err(io_err)?;
        if is_leaf(&page) {
            return Err(format!(
                "{page_id}: leaf found above level 1 — tree is unbalanced"
            ));
        }
        let children = decode_inner(&page).map_err(io_err)?;
        if children.is_empty() {
            return Err(format!("{page_id}: empty inner node"));
        }
        report.inner_pages += 1;
        let mut node_mbr = Aabb::empty();
        for child in children {
            let actual = visit(pool, child.page, level - 1, report)?;
            if actual != child.mbr {
                return Err(format!(
                    "{page_id}: stale child MBR for {}: stored {}, actual {actual}",
                    child.page, child.mbr
                ));
            }
            node_mbr.stretch_to_contain(&actual);
        }
        Ok(node_mbr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::random_entries;
    use crate::tree::RTreeConfig;
    use crate::{BulkLoad, LeafLayout};
    use flat_storage::{ConcurrentBufferPool, MemStore};

    #[test]
    fn bulkloaded_trees_pass_validation() {
        for method in [
            BulkLoad::Str,
            BulkLoad::Hilbert,
            BulkLoad::PrTree,
            BulkLoad::Tgs,
        ] {
            let entries = random_entries(10_000, 23);
            let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
            let tree =
                RTree::bulk_load(&mut pool, entries, method, RTreeConfig::default()).unwrap();
            let report = check_invariants(&pool, &tree).unwrap();
            assert_eq!(report.elements, 10_000, "{method:?}");
        }
    }

    #[test]
    fn empty_tree_validates() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let tree =
            RTree::bulk_load(&mut pool, Vec::new(), BulkLoad::Str, RTreeConfig::default()).unwrap();
        let report = check_invariants(&pool, &tree).unwrap();
        assert_eq!(
            report,
            TreeReport {
                elements: 0,
                leaf_pages: 0,
                inner_pages: 0
            }
        );
    }

    #[test]
    fn corrupting_a_child_mbr_is_detected() {
        use crate::node::{decode_inner, encode_inner};
        use flat_storage::{Page, PageWrite};

        let entries = random_entries(20_000, 29);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let tree = RTree::bulk_load(
            &mut pool,
            entries,
            BulkLoad::Str,
            RTreeConfig {
                layout: LeafLayout::MbrOnly,
            },
        )
        .unwrap();
        assert!(tree.height() >= 2);
        // Shrink one child MBR of the root — validation must catch it.
        let root = tree.root().unwrap();
        let mut children = {
            let page = pool.read_page(root, PageKind::RTreeInner).unwrap();
            decode_inner(&page).unwrap()
        };
        children[0].mbr = children[0].mbr.scale_volume(0.01);
        let mut page = Page::new();
        encode_inner(&children, &mut page);
        pool.write(root, &page, PageKind::RTreeInner).unwrap();
        pool.clear_cache();

        let err = check_invariants(&pool, &tree).unwrap_err();
        assert!(err.contains("stale child MBR"), "unexpected error: {err}");
    }
}
