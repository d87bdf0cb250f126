//! Dynamic updates: [`DeltaIndex`], delta inserts/deletes over a built
//! [`FlatIndex`] with hollow retirement and compaction.
//!
//! The paper's FLAT is a pure bulkload: the index is built once and never
//! changes. An evolving simulation re-runs against a *churning* model —
//! each timestep moves, adds and removes elements — and rebuilding from
//! scratch per timestep is exactly the cost the bulkload was supposed to
//! amortize away. This module adds bounded, incremental mutation while
//! keeping the bulkload's link graph, and so its connectivity argument,
//! exactly as the bulkload left it: after a bulkload, and until
//! compaction, no metadata record is laid out again, and the only
//! metadata write is an in-place dead flag.
//!
//! * **Inserts** land in *delta partitions*: the batch is tiled over the
//!   full domain by the same STR code as the bulkload
//!   ([`crate::partition::partition`]) and its object pages are appended
//!   (reusing freed pages). A delta partition is its object page plus one
//!   row of the resident summary table: it has no metadata record and is
//!   in neither the seed tree nor the link graph. Every read verb takes
//!   the delta partitions from the table ([`crate::IndexRef`]): range,
//!   aggregate and join scan the live ones whose page MBR meets the query
//!   box beside the crawl, and kNN merges them, keyed by page-MBR
//!   distance, into its best-first frontier. However many batches were
//!   inserted, a crawl reads the pages it read on the pristine index plus
//!   one object page per delta partition that meets the box. The price is
//!   a resident scan of the delta list per query, linear in the number of
//!   live delta partitions; `compact()` empties it.
//! * **Deletes** tombstone elements by physical location `(object page,
//!   slot)`; queries filter tombstones at scan time. When a partition's
//!   last live element dies the partition is *retired*: its object page
//!   returns to the store's free list and, for a base partition, the dead
//!   flag of its record is set in place ([`crate::meta`]) — one metadata
//!   page write. The dead record keeps its links and its continuation
//!   chain and stays a link target, so the crawl's connectivity argument
//!   is the bulkload's own: the base partitions tile the domain with no
//!   gap and every touching pair is linked, so the base partitions that
//!   meet a query box are connected, dead ones included. A crawl follows
//!   a dead record's links and never wants its object page; the seed
//!   phases never start from it. A delta partition has no record, so its
//!   retirement is the free alone.
//! * **Compaction** ([`DeltaIndex::compact`]) scans the surviving
//!   elements, frees every page of the old index and rebuilds through
//!   [`FlatIndexBuilder`] — producing pages **byte-identical** to
//!   a from-scratch [`FlatIndex::build`] over the survivors (the
//!   differential test `tests/update_equivalence.rs` asserts this), so a
//!   compacted index is indistinguishable from a pristine bulkload.
//!
//! The delta layer keeps a resident *summary table* (an object page, a
//! page MBR and a live count per partition, ~64 bytes each, plus the
//! record address of each bulkload partition), an id→partition locator
//! for the live elements and an object page→partition map for the live
//! partitions. That is the memtable-style price of mutability, and the
//! table is how readers find the delta partitions; `compact` drops all of
//! it. The tables fill once, at *adoption*: [`DeltaIndex::new`] adopts at
//! once, while a [`crate::FlatDb`] wraps its bulkload unfilled and adopts
//! it at the first writer — until then every query reads the bulkload
//! alone, and a session that never writes never holds a table. Updates
//! require exclusive access (`&mut` pool — [`flat_storage::PageWrite`] is
//! also implemented by [`flat_storage::ConcurrentBufferPool`], so an
//! updater can alternate with shared readers under an `RwLock`
//! discipline: readers see pre- or post-batch pages, never a torn mix).
//!
//! Requirements: the base index must use [`LeafLayout::WithIds`] (deletes
//! address elements by application id) and a fixed explicit domain
//! ([`FlatOptions::domain`]), so that every insert batch tiles the same
//! space as the base build.

#![deny(
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable
)]

use crate::builder::FlatIndexBuilder;
use crate::error::FlatError;
use crate::index::{BuildStats, FlatIndex, FlatOptions, SeedTreePages};
use crate::knn::{KnnStats, Neighbor};
use crate::meta::{meta_leaf_len, set_dead, MetaRecordId, MetaView};
use crate::neighbors::NeighborSweep;
use crate::partition::partition;
use crate::query::{read_record, AddrMap, IndexRef, LivePage, QueryStats, Tombstones};
use flat_geom::{Aabb, Point3};
use flat_rtree::node::{decode_leaf, encode_leaf};
use flat_rtree::{leaf_capacity, Entry, Hit, LeafLayout};
use flat_storage::{Page, PageId, PageKind, PageRead, PageStore, PageWrite, StorageError};
use std::collections::{HashMap, HashSet};

/// Resident summary of one partition (base or delta).
#[derive(Debug, Clone)]
pub(crate) struct PartState {
    /// The partition's object page (freed once the partition retires).
    pub(crate) object_page: PageId,
    /// Tight MBR of the object page's elements (tombstoned included — MBRs
    /// never shrink, so they still contain every live element).
    pub(crate) page_mbr: Aabb,
    /// Elements on the object page that are not tombstoned.
    live: u32,
    /// `true` once retired (object page freed, a base record flagged dead).
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
    /// Every partition ever adopted or inserted, in creation order: the
    /// bulkload's first, one per entry of `records`, then the delta
    /// partitions.
    parts: Vec<PartState>,
    /// The primary metadata record of each bulkload partition, in the
    /// order of `parts`. Delta partitions have none.
    records: Vec<MetaRecordId>,
    /// Object page of a live partition → index into `parts`.
    by_page: AddrMap<PageId, u32>,
    /// Live application id → index into `parts`.
    locator: HashMap<u64, u32>,
    /// Deleted elements by physical location.
    tombstones: Tombstones,
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
            records: Vec::new(),
            by_page: AddrMap::default(),
            locator: HashMap::new(),
            tombstones: Tombstones::default(),
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
    /// `delta_pages` must be the object pages of the live delta
    /// partitions in table order ([`DeltaIndex::delta_object_pages`]) —
    /// the checkpoint snapshot records exactly that list.
    pub(crate) fn reopen(
        pool: &impl PageRead,
        base: FlatIndex,
        options: FlatOptions,
        delta_pages: Vec<PageId>,
        tombstones: Tombstones,
    ) -> Result<DeltaIndex, FlatError> {
        let mut delta = Self::pristine(base, options);
        delta.adopt_pages(pool, Some((delta_pages, tombstones)))?;
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
    /// [`DeltaIndex::reopen`]. The bulkload's partitions come from the
    /// seed tree's leaves, which are exactly its metadata pages, in
    /// creation order: every primary record, dead ones included, becomes a
    /// row. The live delta partitions come from the recovered list (none
    /// for a pristine index): reading each object page gives its page MBR
    /// — the union of all its slots, tombstoned ones included, which is
    /// what the insert computed, exactly, as a union of boxes is exact in
    /// f64 — and the object-page scan below gives its live count and
    /// locator entries.
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
        let (delta_pages, tombstones) = recovered.unwrap_or_default();
        let mut delta = DeltaIndex {
            domain: Some(domain),
            tombstones,
            ..Self::pristine(self.base.clone(), self.options)
        };

        for pid in delta.base.seed_tree_pages(pool)?.leaves {
            let page = pool.read_page(pid, PageKind::SeedLeaf)?;
            for slot in 0..meta_leaf_len(&page)? as u16 {
                let record = MetaView::new(page.clone(), slot)?;
                if record.is_continuation {
                    continue;
                }
                delta.records.push(MetaRecordId { page: pid, slot });
                delta.parts.push(PartState {
                    object_page: record.object_page,
                    page_mbr: record.page_mbr,
                    live: 0,
                    dead: record.is_dead,
                });
            }
        }
        for object_page in delta_pages {
            let page = LivePage::read(pool, object_page, None)?;
            delta.parts.push(PartState {
                object_page,
                page_mbr: Aabb::union_all(page.hits().map(|hit| hit.mbr)),
                live: 0,
                dead: false,
            });
        }

        // Object-page scan over the live partitions: live counts, the id
        // locator and the object-page map, with the tombstones filtered
        // out.
        for idx in 0..delta.parts.len() {
            let part = &delta.parts[idx];
            if part.dead {
                continue;
            }
            if delta.by_page.insert(part.object_page, idx as u32).is_some() {
                return Err(StorageError::Corrupt(format!(
                    "{} holds two partitions",
                    part.object_page
                ))
                .into());
            }
            let page = LivePage::read(pool, part.object_page, Some(&delta.tombstones))?;
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

    /// Resident live-element count of the live partition whose object
    /// page is `page` (`None` when no live partition holds it). The
    /// aggregate crawl's containment early-exit reads this instead of the
    /// object page.
    pub(crate) fn live_count(&self, page: PageId) -> Option<u64> {
        self.by_page
            .get(&page)
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
        &self.parts[self.records.len()..]
    }

    /// The object pages of the live delta partitions in table order —
    /// what a checkpoint snapshot records for [`DeltaIndex::reopen`].
    pub(crate) fn delta_object_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        let live = self.delta_parts().iter().filter(|part| !part.dead);
        live.map(|part| part.object_page)
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
    /// object pages are appended (reusing freed pages), and each gets a
    /// row of the resident table. No metadata record is written or
    /// changed: queries find delta partitions in the resident table.
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

        // Tile the batch over the full domain (same STR code as the
        // bulkload) and write its object pages, then add the rows.
        let new_parts = partition(entries, capacity, Some(domain));
        let mut page = Page::new();
        let mut object_pages = Vec::with_capacity(new_parts.len());
        for p in &new_parts {
            encode_leaf(&p.elements, self.options.layout, &mut page);
            let object_page = pool.alloc()?;
            pool.write(object_page, &page, PageKind::ObjectPage)?;
            object_pages.push(object_page);
        }
        for (p, object_page) in new_parts.into_iter().zip(object_pages) {
            let idx = self.parts.len() as u32;
            self.by_page.insert(object_page, idx);
            for e in &p.elements {
                self.locator.insert(e.id, idx);
            }
            self.live_elements += p.elements.len() as u64;
            self.parts.push(PartState {
                object_page,
                page_mbr: p.page_mbr,
                live: p.elements.len() as u32,
                dead: false,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Deletes
    // ------------------------------------------------------------------

    /// Deletes elements by application id, returning how many were live.
    ///
    /// Deleted elements are tombstoned (queries filter them at scan time);
    /// a partition whose last live element dies is retired — its object
    /// page freed and, for a base partition, its record flagged dead.
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

    /// Retires partition `d`: sets the dead flag of a base partition's
    /// record in place — its links and chain stay, so crawls cross it as
    /// they crossed the live partition — and frees the object page. A
    /// retirement writes at most one metadata page and edits no other
    /// record.
    fn retire<P: PageRead + PageWrite>(
        &mut self,
        pool: &mut P,
        d: u32,
    ) -> Result<(), StorageError> {
        if let Some(&record) = self.records.get(d as usize) {
            set_dead(pool, record)?;
        }
        let obj = self.parts[d as usize].object_page;
        pool.free(obj)?;
        self.by_page.remove(&obj);
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
        self.adopt_to_write(pool)?;
        // 1. Surviving elements, partition by partition, and the seed
        //    tree's pages.
        let mut survivors: Vec<Entry> = Vec::with_capacity(self.live_elements as usize);
        for part in self.parts.iter().filter(|p| !p.dead) {
            let page = LivePage::read(pool, part.object_page, Some(&self.tombstones))?;
            survivors.extend(page.hits().map(|hit| Entry::new(hit.id, hit.mbr)));
        }
        let SeedTreePages { inner, leaves } = self.base.seed_tree_pages(pool)?;
        // 2. Free the old index wholesale.
        for part in self.parts.iter().filter(|p| !p.dead) {
            pool.free(part.object_page)?;
        }
        for pid in leaves.into_iter().chain(inner) {
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
    /// 1. the link graph is exactly the bulkload's: each bulkload
    ///    partition's chain, dead or live, links to exactly the bulkload
    ///    partitions whose partition MBRs meet its own (the relation
    ///    [`NeighborSweep`] computes), so links are symmetric, never
    ///    duplicated and never point at a delta partition, which has no
    ///    record at all;
    /// 2. a retired bulkload partition's record is flagged dead and a live
    ///    one's is not, and the resident row agrees with the record;
    /// 3. every live partition's page MBR contains its live elements, and
    ///    a record's partition MBR contains its page MBR;
    /// 4. no page on `free_pages` is reachable from any crawl (live object
    ///    pages, and the seed tree's pages, which hold every record and
    ///    continuation chunk), and the freed object page of a dead record
    ///    is unreachable through it: only a partition inserted after the
    ///    retirement may hold that page again;
    /// 5. the resident live counts, the locator and the object-page map
    ///    agree with the pages.
    pub fn check_invariants(
        &self,
        pool: &impl PageRead,
        free_pages: &[PageId],
    ) -> Result<DeltaReport, String> {
        let mut report = DeltaReport::default();
        let SeedTreePages { inner, leaves } = self
            .base
            .seed_tree_pages(pool)
            .map_err(|e| format!("seed tree: {e}"))?;
        let mut reachable: HashSet<PageId> = inner.into_iter().chain(leaves).collect();

        // The bulkload's chains, and its relation recomputed from the
        // partition MBRs they carry.
        let index_of: HashMap<MetaRecordId, u32> = (0u32..)
            .zip(self.records.iter().copied())
            .map(|(i, r)| (r, i))
            .collect();
        let mut links: Vec<Vec<u32>> = Vec::with_capacity(self.records.len());
        let mut tiles: Vec<(Aabb, u32)> = Vec::with_capacity(self.records.len());
        for (i, (&head, part)) in self.records.iter().zip(&self.parts).enumerate() {
            let mut seen_chunks = HashSet::new();
            let mut nbrs: Vec<u32> = Vec::new();
            let mut at = Some(head);
            while let Some(addr) = at {
                if !seen_chunks.insert(addr) {
                    return Err(format!("partition {i}: continuation cycle at {addr:?}"));
                }
                if !reachable.contains(&addr.page) {
                    return Err(format!("partition {i}: {addr:?} is on no seed-tree leaf"));
                }
                let record = read_record(pool, addr).map_err(|e| format!("partition {i}: {e}"))?;
                if addr == head {
                    if record.is_continuation {
                        return Err(format!("partition {i}: primary flagged as continuation"));
                    }
                    if record.is_dead != part.dead {
                        return Err(format!(
                            "partition {i}: record dead flag {}, resident row {}",
                            record.is_dead, part.dead
                        ));
                    }
                    if record.object_page != part.object_page || record.page_mbr != part.page_mbr {
                        return Err(format!(
                            "partition {i}: resident row disagrees with its record"
                        ));
                    }
                    if !record.partition_mbr.contains(&record.page_mbr) {
                        return Err(format!("partition {i}: partition MBR lost the page MBR"));
                    }
                    tiles.push((record.partition_mbr, i as u32));
                } else if !record.is_continuation {
                    return Err(format!("partition {i}: chain runs into primary {addr:?}"));
                }
                for n in record.neighbors() {
                    let Some(&j) = index_of.get(&n) else {
                        return Err(format!("partition {i}: link to {n:?}, no bulkload record"));
                    };
                    nbrs.push(j);
                }
                at = record.continuation;
            }
            nbrs.sort_unstable();
            report.neighbor_links += nbrs.len() as u64;
            links.push(nbrs);
        }
        tiles.sort_by(|a, b| a.0.min.x.total_cmp(&b.0.min.x));
        let mut sweep = NeighborSweep::new();
        let mut swept = Vec::with_capacity(tiles.len());
        for (tile, i) in tiles {
            sweep.push(i, tile, tile, &mut swept);
        }
        sweep.finish(&mut swept);
        for s in swept {
            if links[s.index as usize] != s.neighbors {
                return Err(format!(
                    "partition {}: links to {:?}, the bulkload's relation is {:?}",
                    s.index, links[s.index as usize], s.neighbors
                ));
            }
        }

        // Every partition's row against its object page.
        for (i, part) in self.parts.iter().enumerate() {
            if part.dead {
                report.retired_partitions += 1;
                if self
                    .by_page
                    .get(&part.object_page)
                    .is_some_and(|&j| j as usize <= i)
                {
                    return Err(format!(
                        "retired partition {i}: its freed {} is reachable",
                        part.object_page
                    ));
                }
                continue;
            }
            report.live_partitions += 1;
            reachable.insert(part.object_page);
            if self.by_page.get(&part.object_page) != Some(&(i as u32)) {
                return Err(format!("partition {i}: object-page map disagrees"));
            }
            let page = LivePage::read(pool, part.object_page, Some(&self.tombstones))
                .map_err(|e| format!("partition {i} object page: {e}"))?;
            let mut live = 0u32;
            for e in page.hits() {
                live += 1;
                if !part.page_mbr.contains(&e.mbr) {
                    return Err(format!("partition {i}: live element outside the page MBR"));
                }
                if self.locator.get(&e.id) != Some(&(i as u32)) {
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
        if self.by_page.len() != report.live_partitions {
            return Err(format!(
                "object-page map holds {} pages for {} live partitions",
                self.by_page.len(),
                report.live_partitions
            ));
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

#[cfg(test)]
#[allow(
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable
)]
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
        // Every metadata page of the bulkload, byte for byte.
        let leaves = |pool: &ConcurrentBufferPool<MemStore>, delta: &DeltaIndex| {
            let pages = delta.base.seed_tree_pages(pool).unwrap().leaves;
            pages
                .into_iter()
                .map(|id| {
                    let page = pool.read_page(id, PageKind::SeedLeaf).unwrap();
                    (id, page.bytes().to_vec())
                })
                .collect::<Vec<_>>()
        };
        let before = leaves(&pool, &delta);
        for batch in 0..3u64 {
            let fresh: Vec<Entry> = random_entries(400 + 150 * batch as usize, 71 + batch)
                .into_iter()
                .map(|e| Entry::new(e.id + 1_000_000 * (batch + 1), e.mbr))
                .collect();
            delta.insert_batch(&mut pool, fresh).unwrap();
        }
        assert!(delta.num_delta_partitions() >= 3);
        assert!(leaves(&pool, &delta) == before, "a metadata page changed");
        check(&pool, &delta);
    }

    #[test]
    fn an_insert_batch_allocates_only_its_object_pages() {
        let (mut pool, mut delta, _) = build_delta(6_000, 72);
        for batch in 0..3u64 {
            let pages = pool.store().num_pages();
            let partitions = delta.parts.len();
            let fresh: Vec<Entry> = random_entries(500 + 300 * batch as usize, 73 + batch)
                .into_iter()
                .map(|e| Entry::new(e.id + 1_000_000 * (batch + 1), e.mbr))
                .collect();
            delta.insert_batch(&mut pool, fresh).unwrap();
            let new_partitions = delta.parts.len() - partitions;
            assert!(new_partitions > 1, "batch {batch}");
            assert_eq!(
                pool.store().num_pages() - pages,
                new_partitions as u64,
                "batch {batch}: one page per new partition"
            );
        }
        check(&pool, &delta);
    }

    #[test]
    fn a_retirement_writes_one_metadata_page() {
        let (mut pool, mut delta, _) = build_delta(6_000, 74);
        // A bulkload partition with neighbors, and the ids on its page.
        let victim = (0..delta.records.len())
            .find(|&i| {
                read_record(&pool, delta.records[i])
                    .unwrap()
                    .neighbors()
                    .len()
                    > 0
            })
            .unwrap();
        let ids: Vec<u64> = LivePage::read(&pool, delta.parts[victim].object_page, None)
            .unwrap()
            .hits()
            .map(|hit| hit.id)
            .collect();
        let links_before = check(&pool, &delta).neighbor_links;
        pool.reset_stats();
        assert_eq!(delta.delete_batch(&mut pool, &ids).unwrap(), ids.len());
        assert!(delta.parts[victim].dead);
        let stats = pool.stats();
        assert_eq!(stats.kind(PageKind::SeedLeaf).writes, 1);
        assert_eq!(stats.kind(PageKind::SeedInner).writes, 0);
        assert_eq!(stats.kind(PageKind::ObjectPage).writes, 0);
        let dead = read_record(&pool, delta.records[victim]).unwrap();
        assert!(dead.is_dead && dead.neighbors().len() > 0);
        let report = check(&pool, &delta);
        assert_eq!(report.retired_partitions, 1);
        assert_eq!(
            report.neighbor_links, links_before,
            "the graph kept every link"
        );
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
