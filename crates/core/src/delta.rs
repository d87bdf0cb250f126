//! Dynamic updates: [`DeltaIndex`], delta inserts/deletes over a built
//! [`FlatIndex`] with neighbor-link repair and compaction.
//!
//! The paper's FLAT is a pure bulkload: the index is built once and never
//! changes. An evolving simulation re-runs against a *churning* model —
//! each timestep moves, adds and removes elements — and rebuilding from
//! scratch per timestep is exactly the cost the bulkload was supposed to
//! amortize away. This module adds bounded, incremental mutation while
//! keeping the crawl's two invariants intact:
//!
//! * **Inserts** land in *delta partitions*: the batch is tiled over the
//!   full domain by the same STR code as the bulkload
//!   ([`crate::partition::partition`]), its object pages are appended
//!   (reusing freed pages), and its metadata records are written to fresh
//!   seed-leaf pages. Links are *stitched* both ways: new records point at
//!   every intersecting live partition, and each existing record gains a
//!   continuation chunk (spliced at the head of its chain — a same-size
//!   in-place edit) listing its new delta neighbors. Because every batch
//!   tiles the whole domain and cross-links against everything live, the
//!   crawl's connectivity argument survives: within any query box, each
//!   generation is connected through its own tiling and anchored to the
//!   others through the cross links.
//! * **Deletes** tombstone elements by physical location `(object page,
//!   slot)`; queries filter tombstones at scan time. When a partition's
//!   last live element dies the partition is *retired*: every inbound
//!   link is pruned, its former neighbors are patched into a clique (so
//!   crawl paths that crossed the dead partition reroute around it), its
//!   record is flagged dead and its object page returns to the store's
//!   free list. The clique trades link growth for crawl exactness:
//!   contiguous mass retirement lets surviving frontier partitions
//!   accumulate links quadratically in the frontier size, a cost that
//!   only `compact()` resets — churn deployments should compact once the
//!   delta fraction (or neighbor-list growth) passes a threshold rather
//!   than retire indefinitely.
//! * **Compaction** ([`DeltaIndex::compact`]) scans the surviving
//!   elements, frees every page of the old index and rebuilds through
//!   [`FlatIndexBuilder`] — producing pages **byte-identical** to
//!   a from-scratch [`FlatIndex::build`] over the survivors (the
//!   differential test `tests/update_equivalence.rs` asserts this), so a
//!   compacted index is indistinguishable from a pristine bulkload.
//!
//! The delta layer keeps a resident *summary table* (two MBRs, a record
//! address and a live-count per partition, ~120 bytes each) plus an
//! id→partition locator for the live elements. That is the memtable-style
//! price of mutability; `compact` drops all of it. Updates require
//! exclusive access (`&mut` pool — [`flat_storage::PageWrite`] is also
//! implemented by [`flat_storage::ConcurrentBufferPool`], so an updater
//! can alternate with shared readers under an `RwLock` discipline:
//! readers see pre- or post-batch pages, never a torn mix).
//!
//! Requirements: the base index must use [`LeafLayout::WithIds`] (deletes
//! address elements by application id) and a fixed explicit domain
//! ([`FlatOptions::domain`]), so that every insert batch tiles the same
//! space as the base build.

use crate::builder::FlatIndexBuilder;
use crate::error::FlatError;
use crate::index::{BuildStats, FlatIndex, FlatOptions, SeedTreePages};
use crate::knn::{KnnStats, Neighbor};
use crate::meta::{
    assign_slots, decode_meta_leaf, encode_meta_leaf, max_neighbors_per_record, meta_leaf_len,
    MetaRecord, MetaRecordId, MetaView, PlannedRecord,
};
use crate::neighbors::NeighborSweep;
use crate::partition::partition;
use crate::query::{read_record, walk_links, AddrMap, IndexRef, LivePage, QueryStats, Tombstones};
use flat_geom::{Aabb, Point3};
use flat_rtree::node::{decode_leaf, encode_leaf};
use flat_rtree::{leaf_capacity, Entry, Hit, LeafLayout};
use flat_storage::{Page, PageId, PageKind, PageRead, PageStore, PageWrite, StorageError};
use std::collections::{HashMap, HashSet};

/// Resident summary of one partition (base or delta).
#[derive(Debug, Clone)]
pub(crate) struct PartState {
    /// Address of the partition's primary metadata record.
    pub(crate) record: MetaRecordId,
    /// The partition's object page (freed once the partition retires).
    pub(crate) object_page: PageId,
    /// Tight MBR of the object page's elements (tombstoned included — MBRs
    /// never shrink, so they still contain every live element).
    pub(crate) page_mbr: Aabb,
    /// The partition MBR the neighbor relation is computed on.
    partition_mbr: Aabb,
    /// Elements on the object page that are not tombstoned.
    live: u32,
    /// `true` once retired (object page freed, record flagged dead).
    pub(crate) dead: bool,
}

/// What [`DeltaIndex::check_invariants`] verified, for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaReport {
    /// Partitions that are still live (not retired).
    pub live_partitions: usize,
    /// Retired partitions.
    pub retired_partitions: usize,
    /// Live (non-tombstoned) elements.
    pub live_elements: u64,
    /// Directed neighbor links verified (each symmetric pair counts twice).
    pub neighbor_links: u64,
}

/// A mutable FLAT index: a delta layer of inserts/deletes over a bulkloaded
/// base, query-equivalent at every point to a fresh rebuild over the
/// surviving elements. See the module docs for the mechanism.
#[derive(Debug, Clone)]
pub struct DeltaIndex {
    base: FlatIndex,
    options: FlatOptions,
    domain: Aabb,
    /// Every partition ever adopted or inserted, in creation order. The
    /// first [`DeltaIndex::base_partitions`] entries are the bulkload's.
    parts: Vec<PartState>,
    base_partitions: usize,
    /// Primary record address → index into `parts`.
    by_record: AddrMap<MetaRecordId, u32>,
    /// Live application id → index into `parts`.
    locator: HashMap<u64, u32>,
    /// Deleted elements by physical location.
    tombstones: Tombstones,
    /// Seed-leaf pages: the base's metadata pages plus every delta page.
    meta_pages: Vec<PageId>,
    /// Seed-tree directory pages (base only; deltas are not in the tree).
    inner_pages: Vec<PageId>,
    live_elements: u64,
}

/// A freshly created metadata record awaiting placement on a new
/// seed-leaf page (a delta primary, one of its continuation chunks, or a
/// stitch chunk spliced into an existing chain).
struct NewRecord {
    page_mbr: Aabb,
    partition_mbr: Aabb,
    object_page: PageId,
    neighbors: Vec<NbrRef>,
    is_continuation: bool,
    /// Continuation: the record at this index in the same batch…
    next: Option<usize>,
    /// …or, for the tail of a stitch chain, the spliced record's previous
    /// continuation (the splice inserts the chain at the head).
    tail: Option<MetaRecordId>,
}

/// A neighbor pointer that may target a record not yet placed.
#[derive(Clone, Copy)]
enum NbrRef {
    /// An already-addressable record.
    Known(MetaRecordId),
    /// The primary record of new partition `j` of the current batch.
    NewPrimary(u32),
}

/// Slots are addressed as `u16` throughout the delta layer (tombstones,
/// metadata record addresses): a layout whose per-page leaf capacity does
/// not fit would silently truncate `slot as u16` and alias tombstones
/// across slots. Rejected once here, at layout-validation time, so every
/// later cast is known in-range.
fn validate_slot_capacity(capacity: usize) -> Result<(), StorageError> {
    // Slots run 0..capacity, so the largest slot index is capacity - 1.
    if capacity > u16::MAX as usize + 1 {
        return Err(StorageError::Corrupt(format!(
            "leaf capacity {capacity} exceeds the u16 slot address space \
             (max {})",
            u16::MAX as usize + 1
        )));
    }
    Ok(())
}

/// The fixed tiling domain of an updatable index, or the
/// [`FlatError::Update`] saying why `options` cannot update one: deletes
/// address elements by application id ([`LeafLayout::WithIds`]), and
/// every insert batch tiles the same fixed domain as the base. The one
/// check behind [`DeltaIndex::new`] and [`crate::FlatDb::writer`].
pub(crate) fn update_domain(options: &FlatOptions) -> Result<Aabb, FlatError> {
    if options.layout != LeafLayout::WithIds {
        return Err(FlatError::Update(
            "updates need stable element ids: build with LeafLayout::WithIds \
             (see DbOptions::updatable)"
                .into(),
        ));
    }
    options.domain.ok_or_else(|| {
        FlatError::Update(
            "updates need a fixed tiling domain: set FlatOptions::domain \
             (see DbOptions::updatable)"
                .into(),
        )
    })
}

impl DeltaIndex {
    /// Adopts a pristine (freshly built or freshly compacted) index.
    ///
    /// Scans the metadata and object pages once to build the resident
    /// summary table and the id→partition locator; an index that holds an
    /// application id twice is rejected as [`StorageError::Corrupt`].
    /// Options that cannot update an index (see [`DbOptions::updatable`])
    /// or that disagree with `base`'s layout are a [`FlatError::Update`].
    ///
    /// [`DbOptions::updatable`]: crate::DbOptions::updatable
    pub fn new(
        pool: &impl PageRead,
        base: FlatIndex,
        options: FlatOptions,
    ) -> Result<DeltaIndex, FlatError> {
        if base.layout() != options.layout {
            return Err(FlatError::Update(format!(
                "options disagree with the index: the index has the {:?} layout, \
                 the options {:?}",
                base.layout(),
                options.layout
            )));
        }
        let domain = update_domain(&options)?;
        Ok(Self::adopt(pool, base, options, domain)?)
    }

    /// [`DeltaIndex::new`] over already validated options.
    fn adopt(
        pool: &impl PageRead,
        base: FlatIndex,
        options: FlatOptions,
        domain: Aabb,
    ) -> Result<DeltaIndex, StorageError> {
        // A pristine index's metadata pages are exactly its seed-tree
        // leaves, created in page-id order, and nothing is deleted.
        let SeedTreePages { inner, leaves } = base.seed_tree_pages(pool)?;
        let delta = Self::scan(
            pool,
            base,
            options,
            domain,
            inner,
            leaves,
            Tombstones::default(),
        )?;
        debug_assert!(
            delta.parts.iter().all(|part| !part.dead),
            "adopting a non-pristine index"
        );
        Ok(delta)
    }

    /// Rebuilds a delta index from recovered pages: the crash-recovery
    /// counterpart of [`DeltaIndex::new`], for an index that is **not**
    /// pristine (it may hold delta partitions, tombstones and retired
    /// records).
    ///
    /// `meta_pages` must be the metadata pages in their original creation
    /// order (the base's sorted leaves first, then every delta page in
    /// allocation order) — the checkpoint snapshot records exactly that
    /// list.
    pub(crate) fn reopen(
        pool: &impl PageRead,
        base: FlatIndex,
        options: FlatOptions,
        meta_pages: Vec<PageId>,
        tombstones: Tombstones,
    ) -> Result<DeltaIndex, FlatError> {
        let domain = update_domain(&options)?;
        // Seed-tree directory pages come from the tree itself.
        let inner_pages = base.seed_tree_pages(pool)?.inner;
        Ok(Self::scan(
            pool,
            base,
            options,
            domain,
            inner_pages,
            meta_pages,
            tombstones,
        )?)
    }

    /// The one scan behind [`DeltaIndex::new`] and [`DeltaIndex::reopen`]:
    /// builds the resident tables from `meta_pages`. Scanning them in
    /// creation order, slot by slot and skipping continuation chunks,
    /// reproduces the partition numbering: the bulkload adopts primaries
    /// in sorted-leaf order, and every insert batch lays its primaries
    /// onto fresh pages in batch order before any stitch chunk.
    fn scan(
        pool: &impl PageRead,
        base: FlatIndex,
        options: FlatOptions,
        domain: Aabb,
        inner_pages: Vec<PageId>,
        meta_pages: Vec<PageId>,
        tombstones: Tombstones,
    ) -> Result<DeltaIndex, StorageError> {
        validate_slot_capacity(leaf_capacity(options.layout))?;

        let mut delta = DeltaIndex {
            base,
            options,
            domain,
            parts: Vec::new(),
            base_partitions: 0,
            by_record: AddrMap::default(),
            locator: HashMap::new(),
            tombstones,
            meta_pages: Vec::new(),
            inner_pages,
            live_elements: 0,
        };

        // Every primary (dead ones included — they keep their partition
        // number) becomes a resident summary entry.
        let base_meta = delta.base.num_meta_pages as usize;
        if meta_pages.len() < base_meta {
            return Err(StorageError::Corrupt(format!(
                "snapshot lists {} metadata pages, the base descriptor needs {base_meta}",
                meta_pages.len()
            )));
        }
        for (page_seq, &pid) in meta_pages.iter().enumerate() {
            let page = pool.read_page(pid, PageKind::SeedLeaf)?;
            for slot in 0..meta_leaf_len(&page)? as u16 {
                let record = MetaView::new(page.clone(), slot)?;
                if record.is_continuation {
                    continue;
                }
                let addr = MetaRecordId { page: pid, slot };
                let idx = delta.parts.len() as u32;
                delta.by_record.insert(addr, idx);
                delta.parts.push(PartState {
                    record: addr,
                    object_page: record.object_page,
                    page_mbr: record.page_mbr,
                    partition_mbr: record.partition_mbr,
                    live: 0,
                    dead: record.is_dead,
                });
                if page_seq < base_meta {
                    delta.base_partitions += 1;
                }
            }
        }
        delta.meta_pages = meta_pages;

        // Object-page scan over the live partitions: live counts and the
        // id locator, with the tombstones filtered out.
        for idx in 0..delta.parts.len() {
            if delta.parts[idx].dead {
                continue;
            }
            let page = LivePage::read(pool, delta.parts[idx].object_page, Some(&delta.tombstones))?;
            let mut live = 0u32;
            for hit in page.hits() {
                live += 1;
                if delta.locator.insert(hit.id, idx as u32).is_some() {
                    return Err(StorageError::Corrupt(format!(
                        "index holds application id {} twice",
                        hit.id
                    )));
                }
            }
            delta.parts[idx].live = live;
            delta.live_elements += live as u64;
        }
        Ok(delta)
    }

    /// The base index descriptor (the crawl machinery runs on it).
    pub fn base(&self) -> &FlatIndex {
        &self.base
    }

    /// The deleted-element set, for the crawl's scan filter.
    pub(crate) fn tombstones(&self) -> &Tombstones {
        &self.tombstones
    }

    /// Resident live-element count of the partition whose primary record
    /// is at `addr` (`None` for continuation chunks or unknown records).
    /// The aggregate crawl's containment early-exit reads this instead of
    /// the object page.
    pub(crate) fn live_count_at(&self, addr: MetaRecordId) -> Option<u64> {
        self.by_record
            .get(&addr)
            .map(|&idx| self.parts[idx as usize].live as u64)
    }

    /// Every partition ever adopted or inserted, retired ones included,
    /// in creation order.
    pub(crate) fn parts(&self) -> &[PartState] {
        &self.parts
    }

    /// The partitions inserted since the bulkload (the seed tree does not
    /// index them).
    pub(crate) fn delta_parts(&self) -> &[PartState] {
        &self.parts[self.base_partitions..]
    }

    /// The metadata pages in creation order — what a checkpoint snapshot
    /// must record for [`DeltaIndex::reopen`] to reproduce the partition
    /// numbering.
    pub(crate) fn meta_page_list(&self) -> &[PageId] {
        &self.meta_pages
    }

    /// Live (non-tombstoned) elements.
    pub fn num_live_elements(&self) -> u64 {
        self.live_elements
    }

    /// Whether application id `id` names a live element (deleted ids may
    /// be reused by later inserts).
    pub fn contains_id(&self, id: u64) -> bool {
        self.locator.contains_key(&id)
    }

    /// Tombstoned elements awaiting compaction.
    pub fn num_tombstones(&self) -> u64 {
        self.tombstones.len() as u64
    }

    /// Live partitions inserted since the last bulkload/compaction.
    pub fn num_delta_partitions(&self) -> usize {
        self.delta_parts().iter().filter(|p| !p.dead).count()
    }

    /// All live partitions (base + delta).
    pub fn num_live_partitions(&self) -> usize {
        self.parts.iter().filter(|p| !p.dead).count()
    }

    /// Seed-leaf (metadata) pages, the base's plus every delta page.
    pub fn num_meta_pages(&self) -> u64 {
        self.meta_pages.len() as u64
    }

    /// Seed-tree directory pages (base only — delta records are reached
    /// through stitched links, not the tree).
    pub fn num_seed_inner_pages(&self) -> u64 {
        self.inner_pages.len() as u64
    }

    /// Share of live partitions that live outside the bulkloaded base —
    /// the "delta fraction" the update benchmark sweeps.
    pub fn delta_fraction(&self) -> f64 {
        let live = self.num_live_partitions();
        if live == 0 {
            0.0
        } else {
            self.num_delta_partitions() as f64 / live as f64
        }
    }

    // ------------------------------------------------------------------
    // Inserts
    // ------------------------------------------------------------------

    /// Inserts a batch of new elements.
    ///
    /// The batch is STR-tiled over the domain into delta partitions whose
    /// object pages and metadata records are appended (reusing freed
    /// pages); neighbor links against everything live are computed by the
    /// plane-sweep [`NeighborSweep`] and stitched both ways (existing
    /// records gain spliced continuation chunks).
    ///
    /// # Panics
    /// Panics if an entry's id collides with a live element's id (ids of
    /// deleted elements may be reused).
    pub fn insert_batch<P: PageRead + PageWrite>(
        &mut self,
        pool: &mut P,
        entries: Vec<Entry>,
    ) -> Result<(), StorageError> {
        if entries.is_empty() {
            return Ok(());
        }
        let capacity = leaf_capacity(self.options.layout);
        {
            let mut batch_ids = HashSet::with_capacity(entries.len());
            for e in &entries {
                assert!(
                    !self.locator.contains_key(&e.id) && batch_ids.insert(e.id),
                    "insert of id {} which is already live",
                    e.id
                );
            }
        }

        // 1. Tile the batch over the full domain (same STR code as the
        //    bulkload) and write its object pages.
        let mut new_parts = partition(entries, capacity, Some(self.domain));
        if self.options.partition_volume_scale > 1.0 {
            for p in &mut new_parts {
                p.partition_mbr = p
                    .partition_mbr
                    .scale_volume(self.options.partition_volume_scale);
            }
        }
        let mut page = Page::new();
        let mut object_ids = Vec::with_capacity(new_parts.len());
        for p in &new_parts {
            encode_leaf(&p.elements, self.options.layout, &mut page);
            let id = pool.alloc()?;
            pool.write(id, &page, PageKind::ObjectPage)?;
            object_ids.push(id);
        }

        // 2. Plane-sweep the batch against every live partition. Existing
        //    partitions keep their global index (< E); the batch occupies
        //    E..E+new. Only pairs involving a new partition matter — links
        //    among existing partitions are already on disk.
        let e_count = self.parts.len() as u32;
        let mut items: Vec<(u32, Aabb, Aabb)> = self
            .parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.dead)
            .map(|(i, p)| (i as u32, p.page_mbr, p.partition_mbr))
            .collect();
        items.extend(
            new_parts
                .iter()
                .enumerate()
                .map(|(j, p)| (e_count + j as u32, p.page_mbr, p.partition_mbr)),
        );
        items.sort_by(|a, b| a.2.min.x.total_cmp(&b.2.min.x).then(a.0.cmp(&b.0)));
        // The boundary makes the sweep skip existing×existing pairs —
        // those links are already on disk — so a small batch over a big
        // index pays for the new partitions' overlaps, not a full re-join.
        let mut sweep = NeighborSweep::with_existing_boundary(e_count);
        let mut retired = Vec::new();
        for (idx, page_mbr, partition_mbr) in items {
            sweep.push(idx, page_mbr, partition_mbr, &mut retired);
        }
        sweep.finish(&mut retired);
        let mut new_nbrs: Vec<Vec<u32>> = vec![Vec::new(); new_parts.len()];
        let mut stitched: Vec<(u32, Vec<u32>)> = Vec::new();
        for r in retired {
            if r.index >= e_count {
                new_nbrs[(r.index - e_count) as usize] = r.neighbors;
            } else if !r.neighbors.is_empty() {
                // Under the boundary, an existing partition's list holds
                // exactly its new cross links.
                stitched.push((r.index, r.neighbors));
            }
        }
        stitched.sort_by_key(|&(i, _)| i); // deterministic page layout

        // 3. Lay out the new metadata records: delta primaries (chunked if
        //    over-full) first, then the stitch chunks for existing records.
        let max = max_neighbors_per_record();
        let mut records: Vec<NewRecord> = Vec::new();
        let mut primary_of: Vec<usize> = Vec::with_capacity(new_parts.len());
        let addr_of_global = |i: u32| -> NbrRef {
            if i >= e_count {
                NbrRef::NewPrimary(i - e_count)
            } else {
                NbrRef::Known(self.parts[i as usize].record)
            }
        };
        for (j, p) in new_parts.iter().enumerate() {
            primary_of.push(records.len());
            push_chunks(
                &mut records,
                new_nbrs[j].iter().map(|&i| addr_of_global(i)),
                new_nbrs[j].len(),
                max,
                p.page_mbr,
                p.partition_mbr,
                object_ids[j],
                false,
                None,
            );
        }
        // Stitch chunks: read the spliced records' current continuations
        // first — the new chain head must point at the old chain.
        let mut splices: Vec<(MetaRecordId, usize)> = Vec::with_capacity(stitched.len());
        for (i, added) in &stitched {
            let part = &self.parts[*i as usize];
            let old_cont = read_record(pool, part.record)?.continuation;
            splices.push((part.record, records.len()));
            push_chunks(
                &mut records,
                added.iter().map(|&g| addr_of_global(g)),
                added.len(),
                max,
                part.page_mbr,
                part.partition_mbr,
                part.object_page,
                true,
                old_cont,
            );
        }

        // 4. Write the new pages and splice the stitch chains in.
        let addrs = self.write_new_records(pool, &records, &primary_of)?;
        for (record, head) in splices {
            edit_record(pool, record, |r| r.continuation = Some(addrs[head]))?;
        }

        // 5. Adopt the batch into the resident tables.
        for (j, p) in new_parts.into_iter().enumerate() {
            let idx = self.parts.len() as u32;
            let addr = addrs[primary_of[j]];
            self.by_record.insert(addr, idx);
            for e in &p.elements {
                self.locator.insert(e.id, idx);
            }
            self.live_elements += p.elements.len() as u64;
            self.parts.push(PartState {
                record: addr,
                object_page: object_ids[j],
                page_mbr: p.page_mbr,
                partition_mbr: p.partition_mbr,
                live: p.elements.len() as u32,
                dead: false,
            });
        }
        Ok(())
    }

    /// Assigns slots for `records`, allocates the needed seed-leaf pages,
    /// resolves cross references and writes the pages. Returns the address
    /// of each record.
    fn write_new_records<P: PageRead + PageWrite>(
        &mut self,
        pool: &mut P,
        records: &[NewRecord],
        primary_of: &[usize],
    ) -> Result<Vec<MetaRecordId>, StorageError> {
        if records.is_empty() {
            return Ok(Vec::new());
        }
        let plan: Vec<PlannedRecord> = records
            .iter()
            .enumerate()
            .map(|(i, r)| PlannedRecord {
                partition: i,
                start: 0,
                len: r.neighbors.len(),
                primary: !r.is_continuation,
            })
            .collect();
        let slots = assign_slots(&plan);
        let num_pages = slots.last().expect("records is non-empty").0 + 1;
        let mut page_ids = Vec::with_capacity(num_pages);
        for _ in 0..num_pages {
            let id = pool.alloc()?;
            self.meta_pages.push(id);
            page_ids.push(id);
        }
        let addrs: Vec<MetaRecordId> = slots
            .iter()
            .map(|&(seq, slot)| MetaRecordId {
                page: page_ids[seq],
                slot,
            })
            .collect();
        let resolve = |n: &NbrRef| match *n {
            NbrRef::Known(a) => a,
            NbrRef::NewPrimary(j) => addrs[primary_of[j as usize]],
        };
        let mut page = Page::new();
        let mut at = 0usize;
        for (seq, &page_id) in page_ids.iter().enumerate() {
            let mut out = Vec::new();
            while at < records.len() && slots[at].0 == seq {
                let r = &records[at];
                out.push(MetaRecord {
                    page_mbr: r.page_mbr,
                    partition_mbr: r.partition_mbr,
                    object_page: r.object_page,
                    neighbors: r.neighbors.iter().map(resolve).collect(),
                    continuation: r.next.map(|n| addrs[n]).or(r.tail),
                    is_continuation: r.is_continuation,
                    is_dead: false,
                });
                at += 1;
            }
            encode_meta_leaf(&out, &mut page);
            pool.write(page_id, &page, PageKind::SeedLeaf)?;
        }
        debug_assert_eq!(at, records.len());
        Ok(addrs)
    }

    // ------------------------------------------------------------------
    // Deletes
    // ------------------------------------------------------------------

    /// Deletes elements by application id, returning how many were live.
    ///
    /// Deleted elements are tombstoned (queries filter them at scan time);
    /// a partition whose last live element dies is retired — inbound links
    /// pruned, its neighbors patched into a clique so crawls reroute
    /// around it, its record flagged dead and its object page freed.
    pub fn delete_batch<P: PageRead + PageWrite>(
        &mut self,
        pool: &mut P,
        ids: &[u64],
    ) -> Result<usize, StorageError> {
        let mut by_part: HashMap<u32, Vec<u64>> = HashMap::new();
        for &id in ids {
            if let Some(idx) = self.locator.remove(&id) {
                by_part.entry(idx).or_default().push(id);
            }
        }
        let mut deleted = 0usize;
        let mut newly_dead: Vec<u32> = Vec::new();
        for (&idx, dead_ids) in &by_part {
            let part = &self.parts[idx as usize];
            let page = pool.read_page(part.object_page, PageKind::ObjectPage)?;
            let (_, entries) = decode_leaf(&page)?;
            let wanted: HashSet<u64> = dead_ids.iter().copied().collect();
            for (slot, e) in entries.iter().enumerate() {
                if wanted.contains(&e.id) && self.tombstones.insert((part.object_page, slot as u16))
                {
                    deleted += 1;
                }
            }
            let part = &mut self.parts[idx as usize];
            part.live -= dead_ids.len() as u32;
            self.live_elements -= dead_ids.len() as u64;
            if part.live == 0 {
                newly_dead.push(idx);
            }
        }
        newly_dead.sort_unstable(); // deterministic retirement order
        for idx in newly_dead {
            self.retire(pool, idx)?;
        }
        Ok(deleted)
    }

    /// Retires partition `d`: prunes every link to it, patches its former
    /// neighbors into a clique, flags its record dead and frees its object
    /// page. See the module docs for why the clique keeps the crawl
    /// exhaustive.
    fn retire<P: PageRead + PageWrite>(
        &mut self,
        pool: &mut P,
        d: u32,
    ) -> Result<(), StorageError> {
        let d_rec = self.parts[d as usize].record;
        let d_nbrs = read_chain_neighbors(pool, d_rec)?;
        // Resolve neighbors to partition indices and collect each one's
        // full link set (for the clique check).
        let mut nbr_idx: Vec<u32> = Vec::with_capacity(d_nbrs.len());
        let mut link_sets: HashMap<u32, HashSet<MetaRecordId>> = HashMap::new();
        for addr in &d_nbrs {
            let &idx = self
                .by_record
                .get(addr)
                .expect("neighbor pointer to an unknown record");
            if self.parts[idx as usize].dead {
                // Retirement prunes every inbound link before flagging a
                // record dead, so a link into a dead partition means the
                // graph and the summary table disagree. A debug_assert here
                // would let release builds crawl into freed pages.
                return Err(StorageError::Corrupt(format!(
                    "neighbor chain of {:?} links to dead partition {idx}",
                    d_rec
                )));
            }
            nbr_idx.push(idx);
            let links = read_chain_neighbors(pool, *addr)?;
            link_sets.insert(idx, links.into_iter().collect());
        }
        nbr_idx.sort_unstable();

        // Prune the dead partition out of each neighbor's chain.
        for &a in &nbr_idx {
            remove_neighbor(pool, self.parts[a as usize].record, d_rec)?;
        }

        // Clique repair: every pair of former neighbors that is not
        // already linked gets a (symmetric) link, so crawl paths that
        // crossed `d` reroute through a direct edge.
        let max = max_neighbors_per_record();
        let mut records: Vec<NewRecord> = Vec::new();
        let mut splices: Vec<(MetaRecordId, usize)> = Vec::new();
        for &a in &nbr_idx {
            let a_rec = self.parts[a as usize].record;
            let missing: Vec<NbrRef> = nbr_idx
                .iter()
                .filter(|&&b| b != a && !link_sets[&a].contains(&self.parts[b as usize].record))
                .map(|&b| NbrRef::Known(self.parts[b as usize].record))
                .collect();
            if missing.is_empty() {
                continue;
            }
            let part = &self.parts[a as usize];
            let old_cont = read_record(pool, a_rec)?.continuation;
            splices.push((a_rec, records.len()));
            let count = missing.len();
            push_chunks(
                &mut records,
                missing.into_iter(),
                count,
                max,
                part.page_mbr,
                part.partition_mbr,
                part.object_page,
                true,
                old_cont,
            );
        }
        let addrs = self.write_new_records(pool, &records, &[])?;
        for (record, head) in splices {
            edit_record(pool, record, |r| r.continuation = Some(addrs[head]))?;
        }

        // Flag the record dead and drop its chain; free the object page.
        edit_record(pool, d_rec, |r| {
            r.neighbors.clear();
            r.continuation = None;
            r.is_dead = true;
        })?;
        let obj = self.parts[d as usize].object_page;
        pool.free(obj)?;
        // The page id may be reused by a later insert: stale tombstones
        // keyed to it would silently delete the new tenants. Slots are
        // bounded by the page capacity, so the purge is O(capacity), not
        // O(total tombstones).
        for slot in 0..leaf_capacity(self.options.layout) as u16 {
            self.tombstones.remove(&(obj, slot));
        }
        self.parts[d as usize].dead = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Compaction
    // ------------------------------------------------------------------

    /// Merges all deltas into a pristine base: scans the surviving
    /// elements, frees every page of the old index and rebuilds through
    /// [`FlatIndexBuilder`]. The resulting pages are
    /// byte-identical to a from-scratch [`FlatIndex::build`] over the
    /// survivors when the pool holds only this index's pages (the freed
    /// ids then form a dense prefix that the rebuild reuses in order).
    pub fn compact<P: PageRead + PageWrite>(
        &mut self,
        pool: &mut P,
    ) -> Result<BuildStats, StorageError> {
        // 1. Surviving elements, partition by partition.
        let mut survivors: Vec<Entry> = Vec::with_capacity(self.live_elements as usize);
        for part in self.parts.iter().filter(|p| !p.dead) {
            let page = LivePage::read(pool, part.object_page, Some(&self.tombstones))?;
            survivors.extend(page.hits().map(|hit| Entry::new(hit.id, hit.mbr)));
        }
        // 2. Free the old index wholesale.
        for part in self.parts.iter().filter(|p| !p.dead) {
            pool.free(part.object_page)?;
        }
        for &pid in self.meta_pages.iter().chain(self.inner_pages.iter()) {
            pool.free(pid)?;
        }
        // 3. Rebuild through the bulkload pipeline.
        let (index, stats, _) = FlatIndexBuilder::new(self.options).build(pool, survivors)?;
        // 4. Re-adopt: the delta layer is empty again.
        *self = DeltaIndex::adopt(&*pool, index, self.options, self.domain)?;
        Ok(stats)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Evaluates a range query over the live elements — exactly the set a
    /// fresh rebuild over the survivors would return.
    pub fn range_query(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
    ) -> Result<Vec<Hit>, StorageError> {
        self.range_query_with_stats(pool, query, &mut QueryStats::default())
    }

    /// Like [`DeltaIndex::range_query`], accumulating counters.
    pub fn range_query_with_stats(
        &self,
        pool: &impl PageRead,
        query: &Aabb,
        stats: &mut QueryStats,
    ) -> Result<Vec<Hit>, StorageError> {
        IndexRef::Delta(self).range_query_with_stats(pool, query, stats)
    }

    /// Returns the `k` live elements nearest to `point`, exactly as a
    /// fresh rebuild over the survivors would.
    pub fn knn_query(
        &self,
        pool: &impl PageRead,
        point: Point3,
        k: usize,
    ) -> Result<Vec<Neighbor>, StorageError> {
        self.knn_query_with_stats(pool, point, k, &mut KnnStats::default())
    }

    /// Like [`DeltaIndex::knn_query`], accumulating counters.
    pub fn knn_query_with_stats(
        &self,
        pool: &impl PageRead,
        point: Point3,
        k: usize,
        stats: &mut KnnStats,
    ) -> Result<Vec<Neighbor>, StorageError> {
        IndexRef::Delta(self).knn(pool, point, k, stats)
    }

    // ------------------------------------------------------------------
    // Invariants
    // ------------------------------------------------------------------

    /// Verifies the structural invariants the update machinery must
    /// preserve (the property-test layer drives this under randomized
    /// update sequences):
    ///
    /// 1. neighbor links are symmetric and never duplicated;
    /// 2. no link targets a tombstoned (dead) or unknown record, and every
    ///    target is a live primary;
    /// 3. every partition's MBRs contain its live elements (and the
    ///    partition MBR contains the page MBR);
    /// 4. no page on `free_pages` is reachable from any crawl (object
    ///    pages, chain pages, seed-tree pages);
    /// 5. the resident live counts and locator agree with the pages.
    pub fn check_invariants(
        &self,
        pool: &impl PageRead,
        free_pages: &[PageId],
    ) -> Result<DeltaReport, String> {
        let mut report = DeltaReport::default();
        let mut edges: HashSet<(u32, u32)> = HashSet::new();
        let mut reachable: HashSet<PageId> = HashSet::new();
        reachable.extend(self.inner_pages.iter().copied());

        for (i, part) in self.parts.iter().enumerate() {
            let i = i as u32;
            if part.dead {
                report.retired_partitions += 1;
                let record =
                    read_record(pool, part.record).map_err(|e| format!("partition {i}: {e}"))?;
                if !record.is_dead {
                    return Err(format!("retired partition {i} is not flagged dead"));
                }
                if record.neighbors().len() > 0 || record.continuation.is_some() {
                    return Err(format!("retired partition {i} still has links"));
                }
                continue;
            }
            report.live_partitions += 1;
            reachable.insert(part.object_page);
            if !part.partition_mbr.contains(&part.page_mbr) {
                return Err(format!("partition {i}: partition MBR lost the page MBR"));
            }

            // Walk the chain, collecting neighbors and reachable pages.
            let mut seen_chunks = HashSet::new();
            let mut nbrs: Vec<MetaRecordId> = Vec::new();
            let mut at = Some(part.record);
            let mut first = true;
            while let Some(addr) = at {
                if !seen_chunks.insert(addr) {
                    return Err(format!("partition {i}: continuation cycle at {:?}", addr));
                }
                reachable.insert(addr.page);
                let record = read_record(pool, addr).map_err(|e| format!("partition {i}: {e}"))?;
                if record.is_dead {
                    return Err(format!("live partition {i} chain is flagged dead"));
                }
                if first && record.is_continuation {
                    return Err(format!("partition {i}: primary flagged as continuation"));
                }
                first = false;
                nbrs.extend(record.neighbors());
                at = record.continuation;
            }

            // Each link must resolve to a distinct live primary; record
            // the directed edge for the symmetry pass.
            let mut distinct = HashSet::new();
            for n in &nbrs {
                if !distinct.insert(*n) {
                    return Err(format!("partition {i}: duplicate link to {n:?}"));
                }
                let Some(&j) = self.by_record.get(n) else {
                    return Err(format!("partition {i}: link to unknown record {n:?}"));
                };
                if j == i {
                    return Err(format!("partition {i}: self link"));
                }
                if self.parts[j as usize].dead {
                    return Err(format!("partition {i}: link to retired partition {j}"));
                }
                edges.insert((i, j));
            }
            report.neighbor_links += nbrs.len() as u64;

            // Live elements sit inside the MBRs and match the counts.
            let page = LivePage::read(pool, part.object_page, Some(&self.tombstones))
                .map_err(|e| format!("partition {i} object page: {e}"))?;
            let mut live = 0u32;
            for e in page.hits() {
                live += 1;
                if !part.page_mbr.contains(&e.mbr) {
                    return Err(format!("partition {i}: live element outside the page MBR"));
                }
                if self.locator.get(&e.id) != Some(&i) {
                    return Err(format!("partition {i}: locator disagrees for id {}", e.id));
                }
            }
            if live != part.live {
                return Err(format!(
                    "partition {i}: resident live count {} vs {live} on the page",
                    part.live
                ));
            }
            report.live_elements += live as u64;
        }

        for &(a, b) in &edges {
            if !edges.contains(&(b, a)) {
                return Err(format!("asymmetric link {a} -> {b}"));
            }
        }
        if report.live_elements != self.live_elements {
            return Err(format!(
                "live element count drifted: {} resident vs {} on pages",
                self.live_elements, report.live_elements
            ));
        }
        for free in free_pages {
            if reachable.contains(free) {
                return Err(format!("freed {free} is reachable from a crawl"));
            }
        }
        Ok(report)
    }
}

/// Splits a neighbor list into record-sized chunks appended to `records`,
/// chained head-to-tail; the final chunk continues into `tail`.
#[allow(clippy::too_many_arguments)]
fn push_chunks(
    records: &mut Vec<NewRecord>,
    neighbors: impl Iterator<Item = NbrRef>,
    count: usize,
    max: usize,
    page_mbr: Aabb,
    partition_mbr: Aabb,
    object_page: PageId,
    continuation_chain: bool,
    tail: Option<MetaRecordId>,
) {
    let mut neighbors = neighbors.peekable();
    let num_chunks = count.div_ceil(max).max(1);
    for c in 0..num_chunks {
        let take: Vec<NbrRef> = neighbors.by_ref().take(max).collect();
        let last = c + 1 == num_chunks;
        records.push(NewRecord {
            page_mbr,
            partition_mbr,
            object_page,
            neighbors: take,
            is_continuation: continuation_chain || c > 0,
            next: if last { None } else { Some(records.len() + 1) },
            tail: if last { tail } else { None },
        });
    }
    debug_assert!(neighbors.peek().is_none());
}

/// Verifies the compaction contract against a reference store: a
/// compacted store must hold exactly the fresh rebuild's pages — pages
/// `0..fresh.num_pages()` byte-identical and none of them on the free
/// list — with every surplus tail page (left over from the larger
/// pre-compaction index) sitting on the free list. The differential test
/// layer asserts through this one checker.
pub fn verify_compacted_store(
    compacted: &impl PageStore,
    fresh: &impl PageStore,
) -> Result<(), String> {
    let fresh_pages = fresh.num_pages();
    if compacted.num_pages() < fresh_pages {
        return Err(format!(
            "compacted store holds {} pages, rebuild needs {fresh_pages}",
            compacted.num_pages()
        ));
    }
    let free: HashSet<PageId> = compacted.free_pages().into_iter().collect();
    let (mut a, mut b) = (Page::new(), Page::new());
    for i in 0..compacted.num_pages() {
        let id = PageId(i);
        if i >= fresh_pages {
            if !free.contains(&id) {
                return Err(format!("{id} beyond the rebuild is not on the free list"));
            }
            continue;
        }
        if free.contains(&id) {
            return Err(format!("rebuild {id} was left on the free list"));
        }
        compacted
            .read_page(id, &mut a)
            .map_err(|e| format!("compacted {id}: {e}"))?;
        fresh
            .read_page(id, &mut b)
            .map_err(|e| format!("fresh {id}: {e}"))?;
        if a.bytes() != b.bytes() {
            return Err(format!("{id} differs from the fresh rebuild"));
        }
    }
    Ok(())
}

/// Reads the full neighbor list of a record by walking its continuation
/// chain.
fn read_chain_neighbors(
    pool: &impl PageRead,
    record: MetaRecordId,
) -> Result<Vec<MetaRecordId>, StorageError> {
    let mut nbrs = Vec::new();
    walk_links(pool, &read_record(pool, record)?, |chunk| {
        nbrs.extend(chunk.neighbors());
        Ok(())
    })?;
    Ok(nbrs)
}

/// Rewrites one record of a seed-leaf page in place. Record slots are
/// stable (the page is re-encoded with the same record count), so this is
/// only safe for edits that do not grow the page: link pruning, dead
/// flagging, continuation splicing.
fn edit_record<P: PageRead + PageWrite>(
    pool: &mut P,
    addr: MetaRecordId,
    edit: impl FnOnce(&mut MetaRecord),
) -> Result<(), StorageError> {
    let mut page = pool.read_page(addr.page, PageKind::SeedLeaf)?;
    let mut records = decode_meta_leaf(&page)?;
    edit(&mut records[addr.slot as usize]);
    encode_meta_leaf(&records, &mut page);
    pool.write(addr.page, &page, PageKind::SeedLeaf)
}

/// Removes `target` from `record`'s neighbor list, wherever in the chain
/// it appears.
fn remove_neighbor<P: PageRead + PageWrite>(
    pool: &mut P,
    record: MetaRecordId,
    target: MetaRecordId,
) -> Result<(), StorageError> {
    let mut at = Some(record);
    while let Some(addr) = at {
        let chunk = read_record(pool, addr)?;
        if chunk.neighbors().any(|n| n == target) {
            return edit_record(pool, addr, |r| r.neighbors.retain(|n| *n != target));
        }
        at = chunk.continuation;
    }
    // Links are symmetric: the caller found `record` in `target`'s chain,
    // so `target` must appear in `record`'s. Falling through means the
    // link graph lost symmetry — corruption a release build must surface
    // rather than leave half-pruned.
    Err(StorageError::Corrupt(format!(
        "pruning link {target:?} from {record:?}: not present in the chain"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::random_entries;
    use flat_storage::{ConcurrentBufferPool, MemStore, PageStore};

    fn options() -> FlatOptions {
        FlatOptions {
            layout: LeafLayout::WithIds,
            domain: Some(Aabb::new(Point3::splat(0.0), Point3::splat(100.0))),
            ..FlatOptions::default()
        }
    }

    fn build_delta(
        n: usize,
        seed: u64,
    ) -> (ConcurrentBufferPool<MemStore>, DeltaIndex, Vec<Entry>) {
        let entries = random_entries(n, seed);
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options()).unwrap();
        let delta = DeltaIndex::new(&pool, index, options()).unwrap();
        (pool, delta, entries)
    }

    fn check(pool: &ConcurrentBufferPool<MemStore>, delta: &DeltaIndex) -> DeltaReport {
        delta
            .check_invariants(pool, &pool.store().free_pages())
            .unwrap_or_else(|e| panic!("invariants violated: {e}"))
    }

    #[test]
    fn oversized_slot_capacity_is_rejected_at_validation_time() {
        // Every layout the page format can express today fits: slots are
        // addressed as u16 and a page holds far fewer entries than 65536.
        for layout in [LeafLayout::MbrOnly, LeafLayout::WithIds] {
            validate_slot_capacity(leaf_capacity(layout)).unwrap();
        }
        // The boundary: the largest slot index must fit in a u16.
        validate_slot_capacity(u16::MAX as usize + 1).unwrap();
        let err = validate_slot_capacity(u16::MAX as usize + 2).unwrap_err();
        assert!(
            err.to_string().contains("slot address space"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn pruning_a_missing_link_is_a_release_mode_error() {
        let (mut pool, delta, _) = build_delta(2_000, 60);
        let record = delta.parts[0].record;
        // A record address that no chain links to: pruning it must surface
        // the lost-symmetry corruption instead of silently succeeding.
        let bogus = MetaRecordId {
            page: record.page,
            slot: u16::MAX,
        };
        let err = remove_neighbor(&mut pool, record, bogus).unwrap_err();
        assert!(
            err.to_string().contains("not present in the chain"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn adoption_matches_the_build() {
        let (pool, delta, entries) = build_delta(8_000, 61);
        assert_eq!(delta.num_live_elements(), entries.len() as u64);
        assert_eq!(delta.num_delta_partitions(), 0);
        assert_eq!(delta.delta_fraction(), 0.0);
        let report = check(&pool, &delta);
        assert_eq!(report.live_elements, entries.len() as u64);
        assert!(report.neighbor_links > 0);
    }

    #[test]
    fn inserts_are_queryable_and_keep_invariants() {
        let (mut pool, mut delta, mut entries) = build_delta(6_000, 62);
        let fresh = random_entries(800, 63)
            .into_iter()
            .map(|e| Entry::new(e.id + 1_000_000, e.mbr))
            .collect::<Vec<_>>();
        entries.extend(fresh.iter().copied());
        delta.insert_batch(&mut pool, fresh).unwrap();
        assert_eq!(delta.num_live_elements(), entries.len() as u64);
        assert!(delta.num_delta_partitions() > 0);
        check(&pool, &delta);
        for side in [10.0, 40.0, 300.0] {
            let q = Aabb::cube(Point3::splat(50.0), side);
            let expected = entries.iter().filter(|e| q.intersects(&e.mbr)).count();
            assert_eq!(delta.range_query(&pool, &q).unwrap().len(), expected);
        }
    }

    #[test]
    fn deletes_hide_elements_and_retire_partitions() {
        let (mut pool, mut delta, entries) = build_delta(4_000, 64);
        // Delete every element of the "left half": partitions there die.
        let doomed: Vec<u64> = entries
            .iter()
            .filter(|e| e.mbr.center().x < 50.0)
            .map(|e| e.id)
            .collect();
        let deleted = delta.delete_batch(&mut pool, &doomed).unwrap();
        assert_eq!(deleted, doomed.len());
        let report = check(&pool, &delta);
        assert!(report.retired_partitions > 0, "no partition retired");
        assert!(pool.store().num_free() > 0, "no object page was freed");
        let q = Aabb::cube(Point3::splat(50.0), 300.0);
        let expected = entries.len() - doomed.len();
        assert_eq!(delta.range_query(&pool, &q).unwrap().len(), expected);
    }

    #[test]
    fn compact_restores_a_pristine_index() {
        let (mut pool, mut delta, entries) = build_delta(3_000, 65);
        let doomed: Vec<u64> = entries
            .iter()
            .map(|e| e.id)
            .filter(|i| i % 3 == 0)
            .collect();
        delta.delete_batch(&mut pool, &doomed).unwrap();
        let extra: Vec<Entry> = random_entries(500, 66)
            .into_iter()
            .map(|e| Entry::new(e.id + 2_000_000, e.mbr))
            .collect();
        delta.insert_batch(&mut pool, extra.clone()).unwrap();
        delta.compact(&mut pool).unwrap();
        assert_eq!(delta.num_delta_partitions(), 0);
        assert_eq!(delta.num_tombstones(), 0);
        assert_eq!(
            delta.num_live_elements(),
            (entries.len() - doomed.len() + extra.len()) as u64
        );
        check(&pool, &delta);
    }

    #[test]
    fn knn_skips_tombstones() {
        let (mut pool, mut delta, entries) = build_delta(3_000, 67);
        let p = Point3::splat(50.0);
        let nearest = delta.knn_query(&pool, p, 5).unwrap();
        let victim = nearest[0].hit.id;
        delta.delete_batch(&mut pool, &[victim]).unwrap();
        let after = delta.knn_query(&pool, p, 5).unwrap();
        assert!(after.iter().all(|n| n.hit.id != victim));
        // Brute force over survivors agrees.
        let mut dists: Vec<f64> = entries
            .iter()
            .filter(|e| e.id != victim)
            .map(|e| e.mbr.distance_sq_to_point(&p))
            .collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        let got: Vec<f64> = after.iter().map(|n| n.dist_sq).collect();
        assert_eq!(got, dists[..5].to_vec());
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn reinserting_a_live_id_is_rejected() {
        let (mut pool, mut delta, entries) = build_delta(500, 68);
        let dup = Entry::new(entries[0].id, Aabb::cube(Point3::splat(1.0), 1.0));
        let _ = delta.insert_batch(&mut pool, vec![dup]);
    }

    #[test]
    fn mbr_only_layout_is_rejected() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 12);
        let opts = FlatOptions {
            domain: Some(Aabb::new(Point3::splat(0.0), Point3::splat(100.0))),
            ..FlatOptions::default()
        };
        let (index, _) = FlatIndex::build(&mut pool, random_entries(100, 1), opts).unwrap();
        let err = DeltaIndex::new(&pool, index, opts).unwrap_err();
        assert!(matches!(err, FlatError::Update(_)), "{err}");
        assert!(err.to_string().contains("WithIds"), "{err}");
    }
}
