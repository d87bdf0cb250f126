//! The bulkload: [`FlatIndexBuilder`], Algorithm 1 (§V-A) as a streaming
//! pipeline.
//!
//! FLAT's datasets are "considerably bigger than main memory", so the
//! build is a pipeline whose resident state is bounded by the spill
//! budget, one *slab* of the STR tiling and fixed-size per-partition
//! planning tables, never by the dataset. It is the only bulkload:
//! [`FlatIndex::build`] runs it with a budget no input reaches, in which
//! case no sorter spills and every phase works on resident vectors.
//!
//! 1. **Ingest + external x-sort** — entries stream in (any
//!    `Iterator<Item = Entry>`, e.g. a `flat_data` source) and are pushed
//!    into an [`ExternalSorter`] keyed by the STR x order (center.x in
//!    `total_cmp` order, then id, then input position). Memory: the
//!    sorter's run buffer.
//! 2. **Slab tiling** — the merged stream is consumed `slab_size` entries
//!    at a time; each slab is cut into its y-runs and z-chunks
//!    (`partition_slab`), its object pages are written immediately, and
//!    the slab's elements are dropped. Only a fixed-size summary (index +
//!    MBRs) survives, spilled into a second sorter keyed by
//!    `partition_mbr.min.x`. Memory: one slab of entries/partitions.
//! 3. **Neighbor sweep** — the summaries stream through the exact
//!    plane-sweep [`NeighborSweep`] (the paper's temporary R-tree over all
//!    partition MBRs, without holding them all); each retired partition
//!    carries its finished neighbor list into a third sorter keyed by the
//!    metadata order (Hilbert key of the partition center). Memory: the
//!    sweep window — two adjacent slabs of summaries plus stretch
//!    stragglers.
//! 4. **Metadata + seed tree** — the Hilbert-ordered stream feeds the one
//!    metadata writer (`meta.rs`) as one run per partition, and the seed
//!    tree's directory is built over the pages it wrote (`index.rs`).
//!    Memory: the planning tables (object page, neighbor count, record
//!    slots, primary address and stream position per partition — tens of
//!    bytes, no elements).
//!
//! Spill pages live in scratch [`MemStore`]s owned by the sorters — they
//! never mix with index pages, so for identical input every spill budget
//! allocates identical index pages with identical contents
//! (`tests/build_streaming.rs` holds each budget to recorded page
//! digests; `exp_build_scale` re-verifies per run and reports the peaks).

use crate::index::{seal, BuildStats, FlatIndex, FlatOptions, MetaOrder};
use crate::meta::{write_runs, Run};
use crate::neighbors::NeighborSweep;
use crate::partition::{axis_tile, partition_plan, partition_slab, Partition};
use flat_geom::{Aabb, Axis, Point3};
use flat_rtree::node::encode_leaf;
use flat_rtree::{leaf_capacity, Entry};
use flat_storage::{
    ExternalSorter, MemStore, Page, PageId, PageKind, PageWrite, SpillRecord, SpillStats,
    StorageError,
};
use std::time::{Duration, Instant};

/// Default [`FlatIndexBuilder::spill_budget`]: entries buffered per sort
/// run (~75 MB of entry records).
pub const DEFAULT_SPILL_BUDGET: usize = 1 << 20;

/// What the build held resident and spilled — the evidence for its
/// memory bounds, reported by the `exp_build_scale` benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamingStats {
    /// Peak entries resident at once: the sort-run buffer, or one slab
    /// plus the per-run merge heads, whichever was larger. When the
    /// budget exceeded the dataset nothing spilled and this honestly
    /// reports the whole dataset resident — shrink the budget to bound
    /// it.
    pub peak_resident_entries: u64,
    /// Peak partitions resident *with their elements* — the heavy state;
    /// one slab's worth by construction.
    pub peak_resident_partitions: u64,
    /// Peak partitions in the neighbor sweep's active window (summaries
    /// only: MBRs plus a growing neighbor list, no elements).
    pub peak_sweep_window: u64,
    /// Number of x-slabs the tiling produced.
    pub num_slabs: u64,
    /// Spill accounting summed over the pipeline's three external sorts
    /// (entries, partition summaries, metadata records).
    pub spill: SpillStats,
}

/// Monotone `u64` image of an `f64`: `key(a) < key(b)` iff
/// `a.total_cmp(&b)` is `Less` — the trick that lets the external sort
/// order `f64` coordinates on integer keys.
fn f64_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    }
}

/// Spilled entry: STR x-sort key plus the entry itself. Ordered like
/// `partition_slab`'s y and z sorts — center.x (`total_cmp`), then id —
/// and then by input position (`seq`), which makes the key unique and
/// the order total.
struct EntryRec {
    key: u64,
    seq: u64,
    entry: Entry,
}

impl EntryRec {
    fn rank(&self) -> (u64, u64, u64) {
        (self.key, self.entry.id, self.seq)
    }
}

impl PartialEq for EntryRec {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl Eq for EntryRec {}
impl PartialOrd for EntryRec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EntryRec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

fn put_aabb(out: &mut Vec<u8>, b: &Aabb) {
    for v in [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// The `N` bytes of a spilled record at `at`; a record too short to hold
/// them is [`StorageError::Corrupt`].
fn bytes_at<const N: usize>(buf: &[u8], at: usize) -> Result<[u8; N], StorageError> {
    buf.get(at..)
        .and_then(<[u8]>::first_chunk)
        .copied()
        .ok_or_else(|| {
            StorageError::Corrupt(format!(
                "spilled record of {} bytes ends before byte {}",
                buf.len(),
                at + N
            ))
        })
}

fn get_u32(buf: &[u8], at: usize) -> Result<u32, StorageError> {
    bytes_at(buf, at).map(u32::from_le_bytes)
}

fn get_u64(buf: &[u8], at: usize) -> Result<u64, StorageError> {
    bytes_at(buf, at).map(u64::from_le_bytes)
}

fn get_aabb(buf: &[u8], at: usize) -> Result<Aabb, StorageError> {
    let f = |i: usize| get_u64(buf, at + 8 * i).map(f64::from_bits);
    Ok(Aabb {
        min: Point3::new(f(0)?, f(1)?, f(2)?),
        max: Point3::new(f(3)?, f(4)?, f(5)?),
    })
}

fn check_len(buf: &[u8], want: usize, what: &str) -> Result<(), StorageError> {
    if buf.len() != want {
        return Err(StorageError::Corrupt(format!(
            "bad spilled {what} record: {} bytes, expected {want}",
            buf.len()
        )));
    }
    Ok(())
}

impl SpillRecord for EntryRec {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.entry.id.to_le_bytes());
        put_aabb(out, &self.entry.mbr);
    }

    fn decode(buf: &[u8]) -> Result<Self, StorageError> {
        check_len(buf, 72, "entry")?;
        Ok(EntryRec {
            key: get_u64(buf, 0)?,
            seq: get_u64(buf, 8)?,
            entry: Entry::new(get_u64(buf, 16)?, get_aabb(buf, 24)?),
        })
    }
}

/// Spilled partition summary: sweep key (`partition_mbr.min.x`) plus the
/// two MBRs. No elements — those already live on the object page.
struct SummaryRec {
    key: u64,
    index: u32,
    page_mbr: Aabb,
    partition_mbr: Aabb,
}

impl PartialEq for SummaryRec {
    fn eq(&self, other: &Self) -> bool {
        (self.key, self.index) == (other.key, other.index)
    }
}
impl Eq for SummaryRec {}
impl PartialOrd for SummaryRec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SummaryRec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.index).cmp(&(other.key, other.index))
    }
}

impl SpillRecord for SummaryRec {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&self.index.to_le_bytes());
        put_aabb(out, &self.page_mbr);
        put_aabb(out, &self.partition_mbr);
    }

    fn decode(buf: &[u8]) -> Result<Self, StorageError> {
        check_len(buf, 108, "summary")?;
        Ok(SummaryRec {
            key: get_u64(buf, 0)?,
            index: get_u32(buf, 8)?,
            page_mbr: get_aabb(buf, 12)?,
            partition_mbr: get_aabb(buf, 60)?,
        })
    }
}

/// Spilled metadata input: a retired partition with its finished neighbor
/// list, keyed by the metadata packing order (Hilbert key of the
/// partition center; ties broken by index).
struct MetaRec {
    key: u64,
    index: u32,
    page_mbr: Aabb,
    partition_mbr: Aabb,
    neighbors: Vec<u32>,
}

impl PartialEq for MetaRec {
    fn eq(&self, other: &Self) -> bool {
        (self.key, self.index) == (other.key, other.index)
    }
}
impl Eq for MetaRec {}
impl PartialOrd for MetaRec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MetaRec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.index).cmp(&(other.key, other.index))
    }
}

impl SpillRecord for MetaRec {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&self.index.to_le_bytes());
        put_aabb(out, &self.page_mbr);
        put_aabb(out, &self.partition_mbr);
        out.extend_from_slice(&(self.neighbors.len() as u32).to_le_bytes());
        for &n in &self.neighbors {
            out.extend_from_slice(&n.to_le_bytes());
        }
    }

    fn decode(buf: &[u8]) -> Result<Self, StorageError> {
        if buf.len() < 112 {
            return Err(StorageError::Corrupt(format!(
                "truncated spilled meta record: {} bytes",
                buf.len()
            )));
        }
        let count = get_u32(buf, 108)? as usize;
        check_len(buf, 112 + count * 4, "meta")?;
        let neighbors = (0..count)
            .map(|i| get_u32(buf, 112 + 4 * i))
            .collect::<Result<_, _>>()?;
        Ok(MetaRec {
            key: get_u64(buf, 0)?,
            index: get_u32(buf, 8)?,
            page_mbr: get_aabb(buf, 12)?,
            partition_mbr: get_aabb(buf, 60)?,
            neighbors,
        })
    }
}

/// Streaming bulkload of a [`FlatIndex`] with bounded resident memory.
///
/// The index pages depend on the entry sequence and the options only,
/// never on the spill budget; see the module docs for the pipeline and
/// its memory bounds.
#[derive(Debug, Clone)]
pub struct FlatIndexBuilder {
    options: FlatOptions,
    spill_budget: usize,
}

impl FlatIndexBuilder {
    /// A builder with the given index options and the default spill
    /// budget.
    pub fn new(options: FlatOptions) -> FlatIndexBuilder {
        FlatIndexBuilder {
            options,
            spill_budget: DEFAULT_SPILL_BUDGET,
        }
    }

    /// Sets the spill budget: the number of *entries* buffered in memory
    /// per sort run. The partition-level sorts scale their budgets down
    /// proportionally (one partition per `capacity` entries).
    ///
    /// The floor on resident entries is one slab (`⌈n / pn⌉ ≈ n^⅔ ·
    /// capacity^⅓`), which must fit in memory regardless of the budget —
    /// the standard external-STR bound.
    ///
    /// # Panics
    /// Panics if `budget` is zero.
    pub fn spill_budget(mut self, budget: usize) -> FlatIndexBuilder {
        assert!(budget > 0, "spill budget must be positive");
        self.spill_budget = budget;
        self
    }

    /// Streams `entries` into a new index, without ever holding the
    /// collection.
    ///
    /// # Panics
    /// Panics if the options' `partition_volume_scale` is below `1.0`
    /// (inflation must not shrink partitions).
    pub fn build(
        &self,
        pool: &mut impl PageWrite,
        entries: impl IntoIterator<Item = Entry>,
    ) -> Result<(FlatIndex, BuildStats, StreamingStats), StorageError> {
        let options = self.options;
        assert!(
            options.partition_volume_scale >= 1.0,
            "partition inflation must not shrink partitions (got {})",
            options.partition_volume_scale
        );
        let capacity = leaf_capacity(options.layout);
        let partition_budget = (self.spill_budget / capacity).max(1024);
        let mut streaming = StreamingStats::default();

        // Phase 1: ingest + external sort by the STR x key.
        let t0 = Instant::now();
        let mut entry_sorter: ExternalSorter<EntryRec, MemStore> =
            ExternalSorter::in_memory(self.spill_budget);
        let mut mbr_union = Aabb::empty();
        let mut seq = 0u64;
        for entry in entries {
            mbr_union = mbr_union.union(&entry.mbr);
            entry_sorter.push(EntryRec {
                key: f64_key(entry.mbr.center().x),
                seq,
                entry,
            })?;
            seq += 1;
        }
        let n = seq as usize;
        if n == 0 {
            return Ok((
                FlatIndex::empty(options.layout),
                BuildStats {
                    partition_time: t0.elapsed(),
                    neighbor_time: Duration::ZERO,
                    write_time: Duration::ZERO,
                    num_partitions: 0,
                    neighbor_counts: Vec::new(),
                    avg_partition_volume: 0.0,
                },
                streaming,
            ));
        }
        let bounds = options.domain.unwrap_or(mbr_union);
        let (pn, slab_size) = partition_plan(n, capacity);
        let mut merged = entry_sorter.finish()?;
        let entry_spill = merged.stats();
        streaming.spill.accumulate(&entry_spill);
        // Phase-1 peak: the sort-run buffer (the whole dataset when
        // nothing spilled).
        streaming.peak_resident_entries = entry_spill.peak_buffered;

        // Phase 2: consume slabs, tile them, write object pages, spill
        // fixed-size partition summaries.
        let mut summary_sorter: ExternalSorter<SummaryRec, MemStore> =
            ExternalSorter::in_memory(partition_budget);
        let mut slab: Vec<Entry> = Vec::with_capacity(slab_size.min(n));
        let mut parts: Vec<Partition> = Vec::new();
        let mut consumed = 0u64;
        let mut page = Page::new();
        // Actual object-page ids in partition order, each with the page's
        // element count (its metadata record carries both): stores may
        // hand out non-contiguous ids (a durable store's log pages
        // interleave with reusable frees), so phase 4 maps partition index
        // -> id through this table instead of assuming a dense range. 16
        // bytes per partition, same order as the phase-3 planning
        // directory.
        let mut objects: Vec<(PageId, u16)> = Vec::new();
        let mut num_partitions = 0u32;
        let mut pmbr_union = Aabb::empty();
        let mut volume_sum = 0.0f64;
        let mut lo_x = bounds.min.coord(Axis::X);
        loop {
            debug_assert!(slab.is_empty());
            while slab.len() < slab_size {
                match merged.next()? {
                    Some(rec) => slab.push(rec.entry),
                    None => break,
                }
            }
            let Some(last_x) = slab.last().map(|e| e.mbr.center().x) else {
                break;
            };
            // Resident entries right now: the current slab, one merge head
            // per spilled run, and — when nothing spilled — whatever part
            // of the fully-buffered sort output is still unconsumed.
            consumed += slab.len() as u64;
            let unconsumed_buffer = if entry_spill.runs == 0 {
                n as u64 - consumed
            } else {
                0
            };
            streaming.peak_resident_entries = streaming
                .peak_resident_entries
                .max(slab.len() as u64 + entry_spill.runs + unconsumed_buffer);
            // The x cut between this slab and the next: the midpoint of
            // the adjacent centers, as `partition_slab` cuts y and z; the
            // last slab's tile ends at the domain edge.
            let hi_x = match merged.peek() {
                Some(next) => (last_x + next.entry.mbr.center().x) / 2.0,
                None => bounds.max.coord(Axis::X),
            };
            let x_tile = axis_tile(&bounds, Axis::X, lo_x, hi_x);
            lo_x = hi_x;
            streaming.num_slabs += 1;

            let slab_entries = std::mem::replace(&mut slab, Vec::with_capacity(slab_size));
            partition_slab(slab_entries, x_tile, pn, capacity, &mut parts);
            streaming.peak_resident_partitions =
                streaming.peak_resident_partitions.max(parts.len() as u64);
            for mut p in parts.drain(..) {
                if options.partition_volume_scale > 1.0 {
                    p.partition_mbr = p.partition_mbr.scale_volume(options.partition_volume_scale);
                }
                encode_leaf(&p.elements, options.layout, &mut page);
                let id = pool.alloc()?;
                pool.write(id, &page, PageKind::ObjectPage)?;
                // A page holds at most `capacity` (≤ 85) elements.
                objects.push((id, p.elements.len() as u16));
                pmbr_union = pmbr_union.union(&p.partition_mbr);
                volume_sum += p.partition_mbr.volume();
                summary_sorter.push(SummaryRec {
                    key: f64_key(p.partition_mbr.min.x),
                    index: num_partitions,
                    page_mbr: p.page_mbr,
                    partition_mbr: p.partition_mbr,
                })?;
                num_partitions += 1;
            }
        }
        assert!(!objects.is_empty(), "n > 0 produces partitions");
        let partition_time = t0.elapsed();

        // Phase 3: plane-sweep neighbor computation over the summaries,
        // keyed for the metadata order on the way out.
        let t1 = Instant::now();
        // Metadata records are packed in **Hilbert order** of the partition
        // centers. The paper stores records in seed-tree leaves "so that
        // spatially close records are stored on the same leaf page"
        // (§V-B.2); raw STR order only groups records along the last sort
        // dimension, while Hilbert order keeps full 3-D blobs of partitions
        // on few metadata pages — which is what the crawl actually touches.
        let disc = flat_sfc::Discretizer::new(pmbr_union.min.into(), pmbr_union.max.into(), 16);
        let meta_key = |mbr: &Aabb| match options.meta_order {
            MetaOrder::Hilbert => disc.hilbert_key(mbr.center().into()),
            // STR output order: the key is the partition index itself.
            MetaOrder::StrOutput => 0,
        };
        let mut meta_sorter: ExternalSorter<MetaRec, MemStore> =
            ExternalSorter::in_memory(partition_budget);
        let mut neighbor_counts = vec![0u32; num_partitions as usize];
        // The planning directory: (meta key, index, count) per partition —
        // the in-memory table (16 bytes each, no elements) that phase 4's
        // record plan is computed from.
        let mut directory: Vec<(u64, u32, u32)> = Vec::with_capacity(num_partitions as usize);
        let mut sweep = NeighborSweep::new();
        let mut retired = Vec::new();
        let mut summaries = summary_sorter.finish()?;
        streaming.spill.accumulate(&summaries.stats());
        let mut retire = |retired: &mut Vec<crate::neighbors::SweptPartition>| {
            for r in retired.drain(..) {
                let key = meta_key(&r.partition_mbr);
                neighbor_counts[r.index as usize] = r.neighbors.len() as u32;
                directory.push((key, r.index, r.neighbors.len() as u32));
                meta_sorter.push(MetaRec {
                    key,
                    index: r.index,
                    page_mbr: r.page_mbr,
                    partition_mbr: r.partition_mbr,
                    neighbors: r.neighbors,
                })?;
            }
            Ok::<(), StorageError>(())
        };
        while let Some(s) = summaries.next()? {
            sweep.push(s.index, s.page_mbr, s.partition_mbr, &mut retired);
            retire(&mut retired)?;
        }
        streaming.peak_sweep_window = sweep.peak_window() as u64;
        sweep.finish(&mut retired);
        retire(&mut retired)?;
        let neighbor_time = t1.elapsed();

        // Phase 4: stream the metadata records through the one writer, in
        // metadata order; a neighbor is the run at its partition's
        // position in that order.
        let t2 = Instant::now();
        directory.sort_unstable();
        let mut position = vec![0u32; num_partitions as usize];
        let shapes: Vec<(PageId, usize)> = (0u32..)
            .zip(&directory)
            .map(|(pos, &(_, index, count))| {
                position[index as usize] = pos;
                (objects[index as usize].0, count as usize)
            })
            .collect();
        let mut meta_stream = meta_sorter.finish()?;
        streaming.spill.accumulate(&meta_stream.stats());
        let runs = std::iter::from_fn(|| {
            meta_stream.next().transpose().map(|r| {
                r.map(|m| Run {
                    page_mbr: m.page_mbr,
                    partition_mbr: m.partition_mbr,
                    object_page: objects[m.index as usize].0,
                    elements: objects[m.index as usize].1,
                    neighbors: m
                        .neighbors
                        .iter()
                        .map(|&n| position[n as usize] as usize)
                        .collect(),
                })
            })
        });
        let leaves = write_runs(pool, &shapes, runs)?;
        let index = seal(
            pool,
            leaves,
            options.layout,
            n as u64,
            num_partitions as u64,
        )?;
        let write_time = t2.elapsed();

        let stats = BuildStats {
            partition_time,
            neighbor_time,
            write_time,
            num_partitions: num_partitions as usize,
            neighbor_counts,
            avg_partition_volume: volume_sum / num_partitions as f64,
        };
        Ok((index, stats, streaming))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::random_entries;
    use flat_storage::{ConcurrentBufferPool, PageStore};

    fn pages_of(pool: &ConcurrentBufferPool<MemStore>) -> Vec<Vec<u8>> {
        let store = pool.store();
        let mut page = Page::new();
        (0..store.num_pages())
            .map(|i| {
                store.read_page(PageId(i), &mut page).unwrap();
                page.bytes().to_vec()
            })
            .collect()
    }

    /// Builds at `budget` and with nothing spilled ([`FlatIndex::build`]):
    /// same descriptor, same statistics, same pages.
    fn assert_bit_identical(entries: Vec<Entry>, options: FlatOptions, budget: usize) {
        let mut pool_whole = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index_whole, stats_whole) =
            FlatIndex::build(&mut pool_whole, entries.clone(), options).unwrap();

        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, stats, _) = FlatIndexBuilder::new(options)
            .spill_budget(budget)
            .build(&mut pool, entries)
            .unwrap();

        assert_eq!(index, index_whole);
        assert_eq!(stats.num_partitions, stats_whole.num_partitions);
        assert_eq!(stats.neighbor_counts, stats_whole.neighbor_counts);
        assert_eq!(stats.avg_partition_volume, stats_whole.avg_partition_volume);

        let pages_whole = pages_of(&pool_whole);
        let pages = pages_of(&pool);
        assert_eq!(pages.len(), pages_whole.len());
        for (i, (a, b)) in pages.iter().zip(&pages_whole).enumerate() {
            assert_eq!(a, b, "page {i} differs");
        }
    }

    #[test]
    fn streamed_build_is_bit_identical_with_spilling() {
        // Budget far below n forces every sorter through its spill path.
        assert_bit_identical(random_entries(20_000, 21), FlatOptions::default(), 1500);
    }

    #[test]
    fn streamed_build_is_bit_identical_without_spilling() {
        assert_bit_identical(random_entries(8_000, 33), FlatOptions::default(), 1 << 20);
    }

    #[test]
    fn streamed_build_matches_under_str_output_order() {
        let options = FlatOptions {
            meta_order: MetaOrder::StrOutput,
            ..FlatOptions::default()
        };
        assert_bit_identical(random_entries(10_000, 5), options, 2000);
    }

    #[test]
    fn streamed_build_matches_with_inflated_partitions() {
        let options = FlatOptions {
            partition_volume_scale: 2.0,
            ..FlatOptions::default()
        };
        assert_bit_identical(random_entries(10_000, 9), options, 2000);
    }

    #[test]
    fn streamed_build_matches_with_explicit_domain() {
        let options = FlatOptions {
            domain: Some(Aabb::new(Point3::splat(-10.0), Point3::splat(160.0))),
            ..FlatOptions::default()
        };
        assert_bit_identical(random_entries(6_000, 41), options, 1000);
    }

    #[test]
    fn empty_stream_builds_an_empty_index() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let (index, stats, streaming) = FlatIndexBuilder::new(FlatOptions::default())
            .build(&mut pool, std::iter::empty())
            .unwrap();
        assert_eq!(index.num_elements(), 0);
        assert_eq!(index.seed_height(), 0);
        assert_eq!(stats.num_partitions, 0);
        assert_eq!(pool.store().num_pages(), 0);
        assert_eq!(streaming.num_slabs, 0);
    }

    #[test]
    fn tiny_stream_builds_a_single_partition() {
        assert_bit_identical(random_entries(10, 7), FlatOptions::default(), 4);
    }

    #[test]
    fn duplicate_centers_stream_deterministically() {
        let entries: Vec<Entry> = (0..500)
            .map(|i| Entry::new(i, Aabb::cube(Point3::splat(5.0), 1.0)))
            .collect();
        assert_bit_identical(entries, FlatOptions::default(), 64);
    }

    #[test]
    fn resident_state_is_bounded_by_the_slab() {
        let n = 40_000usize;
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let budget = 2_000;
        let (_, stats, streaming) = FlatIndexBuilder::new(FlatOptions::default())
            .spill_budget(budget)
            .build(&mut pool, random_entries(n, 3))
            .unwrap();
        let capacity = leaf_capacity(FlatOptions::default().layout);
        let (pn, slab_size) = partition_plan(n, capacity);
        assert_eq!(streaming.num_slabs, pn as u64);
        // Entries resident: the run buffer or one slab + merge heads.
        assert!(
            streaming.peak_resident_entries <= (slab_size + 64).max(budget) as u64,
            "peak entries {} vs slab {slab_size}",
            streaming.peak_resident_entries
        );
        // Partitions with elements: one slab's worth, far below the total.
        let slab_partitions = slab_size.div_ceil(capacity) + pn * pn;
        assert!(
            streaming.peak_resident_partitions <= slab_partitions as u64,
            "peak partitions {} vs per-slab bound {slab_partitions}",
            streaming.peak_resident_partitions
        );
        assert!(streaming.peak_resident_partitions < stats.num_partitions as u64 / 2);
        assert!(streaming.spill.runs > 0, "budget should force spilling");
        assert!(streaming.spill.spill_pages > 0);
    }

    #[test]
    #[should_panic(expected = "must not shrink")]
    fn shrinking_inflation_is_rejected() {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 16);
        let _ = FlatIndexBuilder::new(FlatOptions {
            partition_volume_scale: 0.5,
            ..FlatOptions::default()
        })
        .build(&mut pool, random_entries(10, 1));
    }

    #[test]
    fn f64_key_orders_like_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.7,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(
                f64_key(w[0]) <= f64_key(w[1]),
                "key order broken at {} vs {}",
                w[0],
                w[1]
            );
        }
        assert!(f64_key(-0.0) < f64_key(0.0), "total_cmp separates -0.0/0.0");
    }
}
