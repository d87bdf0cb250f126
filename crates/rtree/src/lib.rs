//! Disk-based R-tree with the paper's bulkloading baselines.
//!
//! The paper compares FLAT against three bulkloaded R-tree variants
//! (§VII-A): the **Hilbert R-tree** \[12\], the **STR** R-tree \[16\] and the
//! **Priority R-tree** \[1\]; the **TGS** R-tree \[7\] is discussed in related
//! work and implemented here as an extension. All variants share one
//! on-disk node format (this crate's [`node`] module) and one query engine
//! ([`RTree`]); they differ only in how the bulkload *packs* rectangles
//! into nodes (the [`bulk`] module).
//!
//! # On-disk format
//!
//! Every node is one 4 KB page ([`flat_storage::PAGE_SIZE`]):
//!
//! * **Leaf pages** store element MBRs. In the paper-faithful
//!   [`LeafLayout::MbrOnly`] layout an entry is 6 × f64 = 48 bytes, giving
//!   the paper's **85 elements per 4 KB page** (§VII-A). The
//!   [`LeafLayout::WithIds`] layout adds a u64 element id (56 bytes per
//!   entry, 73 per page) for applications that need stable identities.
//! * **Inner pages** store (child MBR, child page id) pairs — 56 bytes per
//!   entry, 73 per page.
//!
//! FLAT reuses both formats: object pages are leaf pages (kind
//! [`flat_storage::PageKind::ObjectPage`]) and the seed tree's directory is
//! built with [`build_inner_levels`].
//!
//! # Example
//!
//! ```
//! use flat_geom::{Aabb, Point3};
//! use flat_rtree::{BulkLoad, Entry, RTree, RTreeConfig};
//! use flat_storage::{ConcurrentBufferPool, MemStore};
//!
//! let entries: Vec<Entry> = (0..1000)
//!     .map(|i| Entry::new(i, Aabb::cube(Point3::splat(i as f64), 1.0)))
//!     .collect();
//! let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1024);
//! let tree = RTree::bulk_load(&mut pool, entries, BulkLoad::Str, RTreeConfig::default())
//!     .unwrap();
//!
//! // Queries are shared reads: `&pool`, not `&mut pool`.
//! let query = Aabb::cube(Point3::splat(10.0), 5.0);
//! let hits = tree.range_query(&pool, &query).unwrap();
//! assert!(!hits.is_empty());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bulk;
mod insert;
pub mod node;
mod tree;
pub mod validate;

pub use bulk::BulkLoad;
pub use node::{inner_capacity, leaf_capacity, LeafLayout};
pub use tree::{build_inner_levels, Hit, RTree, RTreeConfig, TraversalStats};

use flat_geom::{Aabb, Point3};
use flat_storage::{Reader, StorageError};

/// An element to index: its MBR plus an application-level id.
///
/// Under [`LeafLayout::MbrOnly`] the id is not persisted (the paper stores
/// bare MBRs); queries then report synthetic ids derived from the element's
/// physical location (see [`Hit`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Application-level identifier.
    pub id: u64,
    /// The element's minimum bounding rectangle.
    pub mbr: Aabb,
}

impl Entry {
    /// Creates an entry.
    pub fn new(id: u64, mbr: Aabb) -> Entry {
        Entry { id, mbr }
    }

    /// Appends the entry as a record: the id as a little-endian `u64`,
    /// then the MBR as [`Entry::encode_mbr`] writes it.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_le_bytes());
        Entry::encode_mbr(&self.mbr, out);
    }

    /// Reads an entry written by [`Entry::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Entry, StorageError> {
        Ok(Entry::new(r.u64()?, Entry::decode_mbr(r)?))
    }

    /// Appends `mbr` as six little-endian `f64`s, the minimum corner's x,
    /// y and z, then the maximum corner's: an entry's MBR, also written
    /// alone by records that carry a box and no id.
    pub fn encode_mbr(mbr: &Aabb, out: &mut Vec<u8>) {
        let (lo, hi) = (mbr.min, mbr.max);
        for v in [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Reads an MBR written by [`Entry::encode_mbr`], as stored: the
    /// corners are not checked, so any bytes decode without a panic.
    pub fn decode_mbr(r: &mut Reader<'_>) -> Result<Aabb, StorageError> {
        Ok(Aabb {
            min: Point3::new(r.f64()?, r.f64()?, r.f64()?),
            max: Point3::new(r.f64()?, r.f64()?, r.f64()?),
        })
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use flat_geom::Point3;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Deterministic cloud of small boxes in `[0, 100)³`.
    pub fn random_entries(n: usize, seed: u64) -> Vec<Entry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let center = Point3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                let extents = Point3::new(
                    rng.gen_range(0.01..1.0),
                    rng.gen_range(0.01..1.0),
                    rng.gen_range(0.01..1.0),
                );
                Entry::new(i as u64, Aabb::centered(center, extents))
            })
            .collect()
    }

    /// Brute-force oracle for range queries.
    pub fn brute_force(entries: &[Entry], query: &Aabb) -> Vec<u64> {
        let mut ids: Vec<u64> = entries
            .iter()
            .filter(|e| query.intersects(&e.mbr))
            .map(|e| e.id)
            .collect();
        ids.sort_unstable();
        ids
    }
}
