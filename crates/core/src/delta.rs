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
//!   (reusing freed pages), and its primary records — with empty neighbor
//!   lists — are written to fresh seed-leaf pages through the one metadata
//!   writer ([`crate::meta`]). A batch runs no neighbor sweep and edits no
//!   existing record: delta partitions are in neither the seed tree nor
//!   the link graph. Every read verb takes them from the resident summary
//!   table instead ([`crate::IndexRef`]): range, aggregate and join scan
//!   the live ones whose page MBR meets the query box beside the crawl,
//!   and kNN merges them, keyed by page-MBR distance, into its best-first
//!   frontier. The crawl's connectivity argument is then the bulkload's
//!   own: the base partitions tile the domain with no gap and every
//!   touching pair is linked, so the base partitions that meet a query box
//!   are connected and the crawl reaches all of them from one seed —
//!   however many batches were inserted, a crawl reads the pages it read
//!   on the pristine index plus one object page per delta partition that
//!   meets the box. The price is a resident scan of the delta list per
//!   query, linear in the number of live delta partitions; `compact()`
//!   empties it.
//! * **Deletes** tombstone elements by physical location `(object page,
//!   slot)`; queries filter tombstones at scan time. When a partition's
//!   last live element dies the partition is *retired*: its record is
//!   flagged dead and its object page returns to the store's free list. A
//!   base partition is first cut out of the graph: every inbound link is
//!   pruned and its former neighbors are patched into a clique (so crawl
//!   paths that crossed the dead partition reroute around it — the missing
//!   links are stitch chains, written by the one metadata writer and
//!   spliced in by its editor). Only base partitions are ever linked, so
//!   the clique stays among them. It trades link growth for crawl
//!   exactness: contiguous mass retirement lets surviving frontier
//!   partitions accumulate links quadratically in the frontier size, a
//!   cost that only `compact()` resets — churn deployments should compact
//!   once the delta fraction (or neighbor-list growth) passes a threshold
//!   rather than retire indefinitely. A delta partition has no links, so
//!   its retirement is the flag and the free alone.
//! * **Compaction** ([`DeltaIndex::compact`]) scans the surviving
//!   elements, frees every page of the old index and rebuilds through
//!   [`FlatIndexBuilder`] — producing pages **byte-identical** to
//!   a from-scratch [`FlatIndex::build`] over the survivors (the
//!   differential test `tests/update_equivalence.rs` asserts this), so a
//!   compacted index is indistinguishable from a pristine bulkload.
//!
//! The delta layer keeps a resident *summary table* (a record address, an
//! object page, a page MBR and a live-count per partition, ~80 bytes
//! each) plus an id→partition locator for the live elements. That is the
//! memtable-style price of mutability, and the table is how readers find
//! the delta partitions; `compact` drops all of it. The tables fill once,
//! at *adoption*: [`DeltaIndex::new`] adopts at once, while a
//! [`crate::FlatDb`] wraps its bulkload unfilled and adopts it at the
//! first writer — until then every query reads the bulkload alone, and a
//! session that never writes never holds a table. Updates require
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
use crate::meta::{edit, meta_leaf_len, write_runs, Edit, Link, MetaRecordId, MetaView, Run};
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
    /// The tiling domain of every insert batch; `None` until adoption
    /// fills the tables below.
    domain: Option<Aabb>,
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

/// The fixed tiling domain of an updatable index of `layout`, or the
/// [`FlatError::Update`] saying why `options` cannot update it: they must
/// name the index's layout, deletes address elements by application id
/// ([`LeafLayout::WithIds`]), and every insert batch tiles the same fixed
/// domain as the base. The one check behind every adoption.
fn update_domain(layout: LeafLayout, options: &FlatOptions) -> Result<Aabb, FlatError> {
    if layout != options.layout {
        return Err(FlatError::Update(format!(
            "options disagree with the index: the index has the {layout:?} layout, \
             the options {:?}",
            options.layout
        )));
    }
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
        let mut delta = Self::pristine(base, options);
        delta.adopt(pool)?;
        Ok(delta)
    }

    /// Wraps a bulkload without reading a page: the tables stay empty
    /// and every query runs on `base` ([`DeltaIndex::view`]) until
    /// [`DeltaIndex::adopt`] fills them. `options` are checked only then,
    /// so a read-only session may pass any.
    pub(crate) fn pristine(base: FlatIndex, options: FlatOptions) -> DeltaIndex {
        DeltaIndex {
            base,
            options,
            domain: None,
            parts: Vec::new(),
            base_partitions: 0,
            by_record: AddrMap::default(),
            locator: HashMap::new(),
            tombstones: Tombstones::default(),
            meta_pages: Vec::new(),
            inner_pages: Vec::new(),
            live_elements: 0,
        }
    }

    /// Fills the resident tables of a [`DeltaIndex::pristine`] index:
    /// checks the options as [`DeltaIndex::new`] documents, then scans
    /// the pages once. Later calls do nothing; on an error the index is
    /// unchanged. Returns the tiling domain.
    pub(crate) fn adopt(&mut self, pool: &impl PageRead) -> Result<Aabb, FlatError> {
        self.adopt_pages(pool, None)
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
        let mut delta = Self::pristine(base, options);
        delta.adopt_pages(pool, Some((meta_pages, tombstones)))?;
        Ok(delta)
    }

    /// [`DeltaIndex::adopt`] for the write methods, which run it first
    /// so that none of them sees an unfilled table. Their error type is
    /// [`StorageError`], so options that cannot update an index (only a
    /// never-adopted index can carry them) come back as invalid input.
    fn adopt_to_write(&mut self, pool: &impl PageRead) -> Result<Aabb, StorageError> {
        self.adopt(pool).map_err(|e| match e {
            FlatError::Storage(e) => e,
            e => StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                e.to_string(),
            )),
        })
    }

    /// The one scan behind [`DeltaIndex::adopt`] and
    /// [`DeltaIndex::reopen`]: builds the resident tables from the
    /// recovered metadata pages and tombstones, or — for a pristine
    /// index — from the seed tree's leaves, which are exactly its
    /// metadata pages, created in page-id order, with nothing deleted.
    /// Scanning the pages in creation order, slot by slot and skipping
    /// continuation chunks, reproduces the partition numbering: the
    /// bulkload adopts primaries in sorted-leaf order, every insert batch
    /// lays its primaries onto fresh pages in batch order, and a
    /// retirement's clique chunks are continuations.
    fn adopt_pages(
        &mut self,
        pool: &impl PageRead,
        recovered: Option<(Vec<PageId>, Tombstones)>,
    ) -> Result<Aabb, FlatError> {
        if let Some(domain) = self.domain {
            return Ok(domain);
        }
        let domain = update_domain(self.base.layout(), &self.options)?;
        validate_slot_capacity(leaf_capacity(self.options.layout))?;
        let SeedTreePages { inner, leaves } = self.base.seed_tree_pages(pool)?;
        let (meta_pages, tombstones) = recovered.unwrap_or((leaves, Tombstones::default()));
        let mut delta = DeltaIndex {
            domain: Some(domain),
            tombstones,
            inner_pages: inner,
            ..Self::pristine(self.base.clone(), self.options)
        };

        // Every primary (dead ones included — they keep their partition
        // number) becomes a resident summary entry.
        let base_meta = delta.base.num_meta_pages as usize;
        if meta_pages.len() < base_meta {
            return Err(StorageError::Corrupt(format!(
                "snapshot lists {} metadata pages, the base descriptor needs {base_meta}",
                meta_pages.len()
            ))
            .into());
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
                    ))
                    .into());
                }
            }
            delta.parts[idx].live = live;
            delta.live_elements += live as u64;
        }
        *self = delta;
        Ok(domain)
    }

    /// The base index descriptor (the crawl machinery runs on it).
    pub fn base(&self) -> &FlatIndex {
        &self.base
    }

    /// `true` once the resident tables are filled.
    pub(crate) fn is_adopted(&self) -> bool {
        self.domain.is_some()
    }

    /// The read view: the bulkload alone until adoption — no tombstone
    /// probe, and join summaries and aggregate counts read from pages —
    /// and the delta layer after it.
    pub(crate) fn view(&self) -> IndexRef<'_> {
        if self.is_adopted() {
            IndexRef::Delta(self)
        } else {
            IndexRef::Flat(&self.base)
        }
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

    /// The partitions inserted since the bulkload: in neither the seed
    /// tree nor the link graph, so every read verb lists them from here.
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

    /// Seed-tree directory pages (base only — delta partitions are found
    /// in the resident table, not the tree).
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
    /// object pages and primary metadata records are appended (reusing
    /// freed pages). The records link nowhere and no existing record
    /// changes: queries find delta partitions in the resident table.
    ///
    /// An entry whose id is live (ids of deleted elements may be reused)
    /// or repeated within `entries` is invalid input
    /// ([`StorageError::Io`] of kind [`std::io::ErrorKind::InvalidInput`]),
    /// rejected before any page is written.
    pub fn insert_batch<P: PageRead + PageWrite>(
        &mut self,
        pool: &mut P,
        entries: Vec<Entry>,
    ) -> Result<(), StorageError> {
        if entries.is_empty() {
            return Ok(());
        }
        let domain = self.adopt_to_write(pool)?;
        let capacity = leaf_capacity(self.options.layout);
        let mut batch_ids = HashSet::with_capacity(entries.len());
        if let Some(e) = entries
            .iter()
            .find(|e| self.locator.contains_key(&e.id) || !batch_ids.insert(e.id))
        {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "insert of id {} which is already live or repeated in the batch",
                    e.id
                ),
            )));
        }

        // 1. Tile the batch over the full domain (same STR code as the
        //    bulkload) and write its object pages.
        let new_parts = partition(entries, capacity, Some(domain));
        let mut page = Page::new();
        let mut runs = Vec::with_capacity(new_parts.len());
        for p in &new_parts {
            encode_leaf(&p.elements, self.options.layout, &mut page);
            let object_page = pool.alloc()?;
            pool.write(object_page, &page, PageKind::ObjectPage)?;
            runs.push(Run {
                page_mbr: p.page_mbr,
                partition_mbr: p.partition_mbr,
                object_page,
                neighbors: Vec::new(),
                splice: false,
                tail: None,
            });
        }

        // 2. Lay out the batch's primaries, then adopt the batch into the
        //    resident tables.
        let object_pages: Vec<PageId> = runs.iter().map(|r| r.object_page).collect();
        let primaries = self.write_layout(pool, runs, Vec::new())?;
        for ((p, record), object_page) in new_parts.into_iter().zip(primaries).zip(object_pages) {
            let idx = self.parts.len() as u32;
            self.by_record.insert(record, idx);
            for e in &p.elements {
                self.locator.insert(e.id, idx);
            }
            self.live_elements += p.elements.len() as u64;
            self.parts.push(PartState {
                record,
                object_page,
                page_mbr: p.page_mbr,
                live: p.elements.len() as u32,
                dead: false,
            });
        }
        Ok(())
    }

    /// Writes one layout through the one metadata writer — the `fresh`
    /// partitions, then, for each `(a, links)` of `stitches`, a stitch
    /// chain of `links` for existing partition `a` — appends its pages to
    /// the metadata page list and splices each chain in at the head of its
    /// partition's chain. Returns the fresh partitions' primary records.
    fn write_layout<P: PageRead + PageWrite>(
        &mut self,
        pool: &mut P,
        mut runs: Vec<Run>,
        stitches: Vec<(u32, Vec<Link>)>,
    ) -> Result<Vec<MetaRecordId>, StorageError> {
        let fresh = runs.len();
        let mut spliced = Vec::with_capacity(stitches.len());
        for (a, neighbors) in stitches {
            let part = &self.parts[a as usize];
            let head = read_record(pool, part.record)?;
            spliced.push(part.record);
            runs.push(Run {
                page_mbr: part.page_mbr,
                partition_mbr: head.partition_mbr,
                object_page: part.object_page,
                neighbors,
                splice: true,
                tail: head.continuation,
            });
        }
        let shapes: Vec<_> = runs.iter().map(Run::shape).collect();
        let mut layout = write_runs(pool, &shapes, runs.into_iter().map(Ok))?;
        self.meta_pages
            .extend(layout.leaves.iter().map(|leaf| leaf.page));
        for (record, head) in spliced.into_iter().zip(layout.heads.split_off(fresh)) {
            edit(pool, record, Edit::Splice(head))?;
        }
        Ok(layout.heads)
    }

    // ------------------------------------------------------------------
    // Deletes
    // ------------------------------------------------------------------

    /// Deletes elements by application id, returning how many were live.
    ///
    /// Deleted elements are tombstoned (queries filter them at scan time);
    /// a partition whose last live element dies is retired — its record
    /// flagged dead and its object page freed, and, for a base partition,
    /// its inbound links pruned and its neighbors patched into a clique
    /// so crawls reroute around it.
    pub fn delete_batch<P: PageRead + PageWrite>(
        &mut self,
        pool: &mut P,
        ids: &[u64],
    ) -> Result<usize, StorageError> {
        self.adopt_to_write(pool)?;
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

    /// Retires partition `d`: cuts a base partition out of the link graph
    /// ([`DeltaIndex::cut_out`]), then flags its record dead and frees its
    /// object page. A delta partition is linked to nothing, so it takes
    /// the flag and the free alone.
    fn retire<P: PageRead + PageWrite>(
        &mut self,
        pool: &mut P,
        d: u32,
    ) -> Result<(), StorageError> {
        if (d as usize) < self.base_partitions {
            self.cut_out(pool, d)?;
        }
        // Flag the record dead and drop its chain; free the object page.
        edit(pool, self.parts[d as usize].record, Edit::Retire)?;
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

    /// Prunes every link to base partition `d` and patches its former
    /// neighbors into a clique. See the module docs for why the clique
    /// keeps the crawl exhaustive.
    fn cut_out<P: PageRead + PageWrite>(
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
            let Some(&idx) = self.by_record.get(addr) else {
                return Err(StorageError::Corrupt(format!(
                    "neighbor chain of {d_rec:?} points at {addr:?}, which is no partition"
                )));
            };
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
            edit(pool, self.parts[a as usize].record, Edit::Prune(d_rec))?;
        }

        // Clique repair: every pair of former neighbors that is not
        // already linked gets a (symmetric) link, so crawl paths that
        // crossed `d` reroute through a direct edge.
        let cliques = nbr_idx
            .iter()
            .map(|&a| {
                let missing: Vec<Link> = nbr_idx
                    .iter()
                    .filter(|&&b| b != a && !link_sets[&a].contains(&self.parts[b as usize].record))
                    .map(|&b| Link::At(self.parts[b as usize].record))
                    .collect();
                (a, missing)
            })
            .filter(|(_, missing)| !missing.is_empty())
            .collect();
        self.write_layout(pool, Vec::new(), cliques)?;
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
        self.adopt_to_write(pool)?;
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
        *self = DeltaIndex::pristine(index, self.options);
        self.adopt_to_write(&*pool)?;
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
    ///    target is a live primary of the bulkload — a delta partition
    ///    links to nothing and nothing links to it;
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
                if first && !record.partition_mbr.contains(&part.page_mbr) {
                    return Err(format!("partition {i}: partition MBR lost the page MBR"));
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
                if i as usize >= self.base_partitions || j as usize >= self.base_partitions {
                    return Err(format!("link {i} -> {j} touches a delta partition"));
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
        let err = edit(&mut pool, record, Edit::Prune(bogus)).unwrap_err();
        assert!(
            err.to_string().contains("not present in the chain"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn a_pointer_to_no_partition_is_a_corrupt_error_at_retirement() {
        let (mut pool, mut delta, _) = build_delta(2_000, 69);
        let part = delta.parts[0].clone();
        // Stitch a link to an address that resolves to no partition into
        // partition 0's chain.
        let bogus = MetaRecordId {
            page: part.record.page,
            slot: u16::MAX,
        };
        delta
            .write_layout(&mut pool, Vec::new(), vec![(0, vec![Link::At(bogus)])])
            .unwrap();
        // Deleting the partition's last element retires it, which walks
        // the rewritten chain.
        let ids: Vec<u64> = LivePage::read(&pool, part.object_page, None)
            .unwrap()
            .hits()
            .map(|hit| hit.id)
            .collect();
        let err = delta.delete_batch(&mut pool, &ids).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(msg) if msg.contains("no partition")),
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
    fn insert_batches_leave_the_link_graph_untouched() {
        let (mut pool, mut delta, _) = build_delta(6_000, 70);
        // Every base partition's chain, record by record, with the raw
        // bytes of the pages it lies on.
        let chains = |pool: &ConcurrentBufferPool<MemStore>, delta: &DeltaIndex| {
            let base = &delta.parts[..delta.base_partitions];
            let mut out = Vec::new();
            for part in base {
                let mut at = Some(part.record);
                while let Some(addr) = at {
                    let record = read_record(pool, addr).unwrap();
                    let page = pool.read_page(addr.page, PageKind::SeedLeaf).unwrap();
                    out.push((addr, record.to_record(), page.bytes().to_vec()));
                    at = record.continuation;
                }
            }
            out
        };
        let before = chains(&pool, &delta);
        for batch in 0..3u64 {
            let fresh: Vec<Entry> = random_entries(400 + 150 * batch as usize, 71 + batch)
                .into_iter()
                .map(|e| Entry::new(e.id + 1_000_000 * (batch + 1), e.mbr))
                .collect();
            delta.insert_batch(&mut pool, fresh).unwrap();
        }
        assert!(delta.num_delta_partitions() >= 3);
        for part in delta.delta_parts() {
            let record = read_record(&pool, part.record).unwrap();
            assert_eq!(
                record.neighbors().len(),
                0,
                "delta record {:?}",
                part.record
            );
            assert!(record.continuation.is_none());
        }
        assert!(
            chains(&pool, &delta) == before,
            "a base record's chain changed"
        );
        check(&pool, &delta);
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
    fn reinserting_a_live_id_is_rejected() {
        let (mut pool, mut delta, entries) = build_delta(500, 68);
        let pages = pool.store().num_pages();
        let fresh = Entry::new(1_000_000, Aabb::cube(Point3::splat(2.0), 1.0));
        let live = Entry::new(entries[0].id, Aabb::cube(Point3::splat(1.0), 1.0));
        for batch in [vec![fresh, live], vec![fresh, fresh]] {
            let err = delta.insert_batch(&mut pool, batch).unwrap_err();
            assert!(
                matches!(&err, StorageError::Io(e) if e.kind() == std::io::ErrorKind::InvalidInput),
                "unexpected error: {err}"
            );
            assert_eq!(pool.store().num_pages(), pages, "no page is allocated");
        }
        assert!(!delta.contains_id(fresh.id));
        check(&pool, &delta);
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
