//! Dynamic insertion with Guttman's quadratic split (extension).
//!
//! The paper only considers bulkloading ("we focus on developing a
//! bulkloading approach and do not consider updates", §I) and argues that
//! bulkloaded trees beat insertion-built trees on page utilization
//! (§VII). This module implements the classic dynamic R-tree \[9\] anyway:
//! it lets the test-suite cross-validate the bulkloads against an
//! independently constructed tree, and the ablation benches quantify the
//! paper's utilization claim.

use crate::node::{
    decode_inner, decode_leaf, encode_inner, encode_leaf, inner_capacity, leaf_capacity, ChildRef,
};
use crate::tree::RTree;
use crate::Entry;
use flat_geom::Aabb;
use flat_storage::{Page, PageId, PageKind, PageRead, PageWrite, StorageError};

/// Minimum fill after a split, as a fraction of capacity (Guttman's `m`).
const MIN_FILL: f64 = 0.4;

trait HasMbr: Clone {
    fn mbr(&self) -> Aabb;
}

impl HasMbr for Entry {
    fn mbr(&self) -> Aabb {
        self.mbr
    }
}

impl HasMbr for ChildRef {
    fn mbr(&self) -> Aabb {
        self.mbr
    }
}

/// Guttman's quadratic split: pick the pair of seeds wasting the most area
/// if grouped together, then greedily assign the rest by least enlargement,
/// honoring the minimum fill.
fn quadratic_split<T: HasMbr>(items: Vec<T>, cap: usize) -> (Vec<T>, Vec<T>) {
    debug_assert!(items.len() > cap);
    let min_fill = ((cap as f64 * MIN_FILL) as usize).max(1);

    // Seed selection: maximize dead space.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..items.len() {
        for j in i + 1..items.len() {
            let a = items[i].mbr();
            let b = items[j].mbr();
            let dead = a.union(&b).volume() - a.volume() - b.volume();
            if dead > worst {
                worst = dead;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    let mut group_a: Vec<T> = vec![items[seed_a].clone()];
    let mut group_b: Vec<T> = vec![items[seed_b].clone()];
    let mut mbr_a = items[seed_a].mbr();
    let mut mbr_b = items[seed_b].mbr();

    let mut rest: Vec<T> = items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != seed_a && *i != seed_b)
        .map(|(_, t)| t)
        .collect();

    while let Some(item) = rest.pop() {
        let remaining = rest.len();
        // Min-fill force-assignment.
        if group_a.len() + remaining + 1 == min_fill {
            mbr_a.stretch_to_contain(&item.mbr());
            group_a.push(item);
            continue;
        }
        if group_b.len() + remaining + 1 == min_fill {
            mbr_b.stretch_to_contain(&item.mbr());
            group_b.push(item);
            continue;
        }
        let grow_a = mbr_a.enlargement(&item.mbr());
        let grow_b = mbr_b.enlargement(&item.mbr());
        let to_a = grow_a < grow_b || (grow_a == grow_b && mbr_a.volume() <= mbr_b.volume());
        if to_a {
            mbr_a.stretch_to_contain(&item.mbr());
            group_a.push(item);
        } else {
            mbr_b.stretch_to_contain(&item.mbr());
            group_b.push(item);
        }
    }
    (group_a, group_b)
}

impl RTree {
    /// Inserts one element, splitting nodes as needed (Guttman \[9\],
    /// quadratic split).
    pub fn insert(
        &mut self,
        pool: &mut (impl PageRead + PageWrite),
        entry: Entry,
    ) -> Result<(), StorageError> {
        let config = *self.config();
        let mut page = Page::new();

        let Some(root) = self.root() else {
            // First element: the root is a single leaf.
            encode_leaf(&[entry], config.layout, &mut page);
            let id = pool.alloc()?;
            pool.write(id, &page, PageKind::RTreeLeaf)?;
            self.set_root(id, 1);
            self.bump_counts(1, 1, 0);
            return Ok(());
        };

        // Descend to a leaf, remembering the path (node page, its children,
        // index of the chosen child).
        let mut path: Vec<(PageId, Vec<ChildRef>, usize)> = Vec::new();
        let mut current = root;
        for _ in 1..self.height() {
            let node = pool.read_page(current, PageKind::RTreeInner)?;
            let children = decode_inner(&node)?;
            // Guttman ChooseLeaf: least enlargement, ties by least volume.
            let (best, _) = children
                .iter()
                .enumerate()
                .map(|(i, c)| (i, (c.mbr.enlargement(&entry.mbr), c.mbr.volume())))
                .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(a.1 .1.total_cmp(&b.1 .1)))
                .expect("inner nodes are never empty");
            let next = children[best].page;
            path.push((current, children, best));
            current = next;
        }

        // Insert into the leaf.
        let leaf_page = pool.read_page(current, PageKind::RTreeLeaf)?;
        let (_, mut entries) = decode_leaf(&leaf_page)?;
        entries.push(entry);
        self.bump_counts(1, 0, 0);

        let mut split: Option<ChildRef> = if entries.len() <= leaf_capacity(config.layout) {
            encode_leaf(&entries, config.layout, &mut page);
            pool.write(current, &page, PageKind::RTreeLeaf)?;
            None
        } else {
            let (a, b) = quadratic_split(entries, leaf_capacity(config.layout));
            encode_leaf(&a, config.layout, &mut page);
            pool.write(current, &page, PageKind::RTreeLeaf)?;
            encode_leaf(&b, config.layout, &mut page);
            let new_id = pool.alloc()?;
            pool.write(new_id, &page, PageKind::RTreeLeaf)?;
            self.bump_counts(0, 1, 0);
            Some(ChildRef {
                mbr: Aabb::union_all(b.iter().map(|e| e.mbr)),
                page: new_id,
            })
        };
        // The updated MBR of the node we just rewrote.
        let mut updated_mbr = {
            let p = pool.read_page(current, PageKind::RTreeLeaf)?;
            let (_, es) = decode_leaf(&p)?;
            Aabb::union_all(es.iter().map(|e| e.mbr))
        };

        // Walk back up adjusting MBRs and propagating splits.
        while let Some((node_id, mut children, chosen)) = path.pop() {
            children[chosen].mbr = updated_mbr;
            if let Some(new_child) = split.take() {
                children.push(new_child);
            }
            if children.len() <= inner_capacity() {
                encode_inner(&children, &mut page);
                pool.write(node_id, &page, PageKind::RTreeInner)?;
                updated_mbr = Aabb::union_all(children.iter().map(|c| c.mbr));
            } else {
                let (a, b) = quadratic_split(children, inner_capacity());
                encode_inner(&a, &mut page);
                pool.write(node_id, &page, PageKind::RTreeInner)?;
                encode_inner(&b, &mut page);
                let new_id = pool.alloc()?;
                pool.write(new_id, &page, PageKind::RTreeInner)?;
                self.bump_counts(0, 0, 1);
                updated_mbr = Aabb::union_all(a.iter().map(|c| c.mbr));
                split = Some(ChildRef {
                    mbr: Aabb::union_all(b.iter().map(|c| c.mbr)),
                    page: new_id,
                });
            }
        }

        // Root split: grow the tree by one level.
        if let Some(new_sibling) = split {
            let old_root_ref = ChildRef {
                mbr: updated_mbr,
                page: current_root(self),
            };
            let children = vec![old_root_ref, new_sibling];
            encode_inner(&children, &mut page);
            let new_root = pool.alloc()?;
            pool.write(new_root, &page, PageKind::RTreeInner)?;
            let h = self.height();
            self.set_root(new_root, h + 1);
            self.bump_counts(0, 0, 1);
        }
        Ok(())
    }
}

fn current_root(tree: &RTree) -> PageId {
    tree.root().expect("tree is non-empty here")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{brute_force, random_entries};
    use crate::tree::RTreeConfig;
    use crate::validate::check_invariants;
    use crate::LeafLayout;
    use flat_geom::Point3;
    use flat_storage::{ConcurrentBufferPool, MemStore};

    fn insert_all(n: usize) -> (ConcurrentBufferPool<MemStore>, RTree, Vec<Entry>) {
        let entries = random_entries(n, 99);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let mut tree = RTree::new_empty(RTreeConfig {
            layout: LeafLayout::WithIds,
        });
        for e in &entries {
            tree.insert(&mut pool, *e).unwrap();
        }
        (pool, tree, entries)
    }

    #[test]
    fn first_insert_creates_leaf_root() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 64);
        let mut tree = RTree::new_empty(RTreeConfig::default());
        tree.insert(&mut pool, Entry::new(1, Aabb::cube(Point3::ORIGIN, 1.0)))
            .unwrap();
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.num_elements(), 1);
        assert_eq!(tree.num_leaf_pages(), 1);
    }

    #[test]
    fn inserted_tree_answers_queries_correctly() {
        let (pool, tree, entries) = insert_all(3000);
        for (c, side) in [(25.0, 10.0), (60.0, 30.0), (95.0, 2.0)] {
            let q = Aabb::cube(Point3::splat(c), side);
            let mut got: Vec<u64> = tree
                .range_query(&pool, &q)
                .unwrap()
                .iter()
                .map(|h| h.id)
                .collect();
            got.sort_unstable();
            assert_eq!(got, brute_force(&entries, &q));
        }
    }

    #[test]
    fn tree_grows_in_height_and_stays_valid() {
        let (pool, tree, entries) = insert_all(3000);
        assert!(tree.height() >= 2, "3000 elements must overflow one page");
        assert_eq!(tree.num_elements(), entries.len() as u64);
        let report = check_invariants(&pool, &tree).unwrap();
        assert_eq!(report.elements, entries.len() as u64);
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let items: Vec<Entry> = random_entries(11, 5);
        let (a, b) = quadratic_split(items, 10);
        let min = (10.0_f64 * MIN_FILL) as usize;
        assert!(a.len() >= min, "group A has {} < {min}", a.len());
        assert!(b.len() >= min, "group B has {} < {min}", b.len());
        assert_eq!(a.len() + b.len(), 11);
    }

    #[test]
    fn quadratic_split_separates_two_clusters() {
        let mut items = Vec::new();
        for i in 0..6u64 {
            items.push(Entry::new(
                i,
                Aabb::cube(Point3::splat(0.0 + i as f64 * 0.1), 1.0),
            ));
            items.push(Entry::new(
                100 + i,
                Aabb::cube(Point3::splat(100.0 + i as f64 * 0.1), 1.0),
            ));
        }
        // Over-capacity set of 12 with cap 11 → split must not mix clusters.
        let (a, b) = quadratic_split(items, 11);
        for group in [&a, &b] {
            let low = group.iter().filter(|e| e.id < 100).count();
            assert!(low == 0 || low == group.len(), "split mixed the clusters");
        }
    }

    #[test]
    fn mixed_bulkload_and_insert() {
        // Bulkload half, insert the other half: queries stay exact.
        let entries = random_entries(2000, 17);
        let (bulk, dynamic) = entries.split_at(1000);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let mut tree = RTree::bulk_load(
            &mut pool,
            bulk.to_vec(),
            crate::BulkLoad::Str,
            RTreeConfig {
                layout: LeafLayout::WithIds,
            },
        )
        .unwrap();
        for e in dynamic {
            tree.insert(&mut pool, *e).unwrap();
        }
        let q = Aabb::cube(Point3::splat(50.0), 40.0);
        let mut got: Vec<u64> = tree
            .range_query(&pool, &q)
            .unwrap()
            .iter()
            .map(|h| h.id)
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute_force(&entries, &q));
        check_invariants(&pool, &tree).unwrap();
    }
}
