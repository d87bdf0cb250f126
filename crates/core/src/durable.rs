//! Durability plumbing for [`crate::FlatDb`]: the [`Durability`] mode
//! knob, and what the opaque bytes a durable
//! [`flat_storage::VersionedPool`] logs mean. A logical record is one
//! [`WriteOp`] of a committed [`crate::Writer`] group (`[seq][op][body]`),
//! the same value the page apply consumes and the subscriptions fold. The
//! checkpoint snapshot is the resident state recovery cannot rebuild from
//! the pages alone: the index descriptor (layout, seed root and height,
//! four counters — what turns the pages back into a [`FlatIndex`]) plus
//! the delta layer's list of live delta object pages, the tier stack over
//! that list and the tombstone set. The snapshot is
//! the only place the descriptor is written, so a database file is the
//! logged layout and nothing else.
//!
//! Recovery is "snapshot + replay": [`crate::FlatDb::open_durable`]
//! decodes the snapshot, re-adopts the resident tables from the recovered
//! pages ([`crate::DeltaIndex`]'s `reopen`), and re-applies the committed
//! logical records past its sequence number without re-logging them, so a
//! crash during recovery just recovers again.

use crate::db::WriteOp;
use crate::index::FlatIndex;
use flat_geom::{Aabb, Point3};
use flat_rtree::{Entry, LeafLayout};
use flat_storage::{PageId, StorageError};

/// How a [`crate::FlatDb`] persists committed writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No durability: the database is *ephemeral*. Pages go straight to
    /// the backing store with no log, a crash mid-batch can leave the
    /// store torn, and the store is never reopened as a database. This is
    /// the bulkload configuration of the paper's experiments.
    #[default]
    Off,
    /// Every writer batch is committed to the write-ahead log before any
    /// page mutates; checkpoints happen only when
    /// [`crate::FlatDb::checkpoint`] is called explicitly.
    Wal,
    /// Like [`Durability::Wal`], plus an automatic checkpoint after every
    /// `every_batches` committed writer batches, bounding both the log
    /// length and the recovery replay time.
    WalCheckpoint {
        /// Checkpoint after this many committed batches (minimum 1).
        every_batches: usize,
    },
}

/// What [`crate::FlatDb::open_durable`] recovered, for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Sequence number of the last committed (and now recovered) batch.
    pub last_committed_seq: u64,
    /// Committed batches replayed from the log past the last checkpoint.
    pub replayed: usize,
    /// Whether a torn or corrupt log tail was detected and truncated —
    /// the expected signature of a crash mid-append.
    pub torn_tail_truncated: bool,
}

// ----------------------------------------------------------------------
// Logical records: one op of a committed Writer group each.
// ----------------------------------------------------------------------

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_COMPACT: u8 = 3;

/// Encodes one [`WriteOp`] of a committed group as `[seq u64][op u8][body]`.
pub(crate) fn encode_logical(seq: u64, op: &WriteOp) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&seq.to_le_bytes());
    match op {
        WriteOp::Insert(entries) => {
            out.push(OP_INSERT);
            out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for e in entries {
                out.extend_from_slice(&e.id.to_le_bytes());
                let (lo, hi) = (e.mbr.min, e.mbr.max);
                for v in [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        WriteOp::Delete(ids) => {
            out.push(OP_DELETE);
            out.extend_from_slice(&(ids.len() as u64).to_le_bytes());
            for id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        WriteOp::Compact => out.push(OP_COMPACT),
    }
    out
}

/// Decodes a record produced by [`encode_logical`].
pub(crate) fn decode_logical(bytes: &[u8]) -> Result<(u64, WriteOp), StorageError> {
    let mut r = Reader::new(bytes);
    let seq = r.u64()?;
    let op = match r.u8()? {
        OP_INSERT => WriteOp::Insert(r.list("entry count", |r| {
            let id = r.u64()?;
            let mut v = [0f64; 6];
            for slot in &mut v {
                *slot = r.f64()?;
            }
            let (lo, hi) = (Point3::new(v[0], v[1], v[2]), Point3::new(v[3], v[4], v[5]));
            Ok(Entry::new(id, Aabb::new(lo, hi)))
        })?),
        OP_DELETE => WriteOp::Delete(r.list("id count", Reader::u64)?),
        OP_COMPACT => WriteOp::Compact,
        t => {
            return Err(StorageError::Corrupt(format!(
                "unknown logical record op {t}"
            )))
        }
    };
    r.finish()?;
    Ok((seq, op))
}

// ----------------------------------------------------------------------
// Checkpoint snapshots: the resident state recovery cannot rebuild from
// the pages alone.
// ----------------------------------------------------------------------

/// "FLATSNP1" — identifies a checkpoint snapshot.
const SNAPSHOT_MAGIC: u64 = 0x464C_4154_534E_5031;
/// Format version of a checkpoint snapshot. A change to the snapshot or
/// index descriptor encoding, to any page format the descriptor points at,
/// or to what the pages mean bumps it. Version 2: no record links to a
/// delta partition (a version-1 file may hold base→delta links, which
/// would make every query report a delta element twice). Version 3: a
/// dead record keeps its links, and the delta list names the live delta
/// object pages, not metadata pages (a version-2 file's dead records have
/// no links, and its retirement cliques are links the bulkload never
/// made). Version 4: the delta residency records the tier stack over the
/// delta page list (a version-3 file has no stack, so its delta pages
/// would merge as no live database would have merged them). Version 5:
/// every metadata record carries its object page's element count in the
/// high 16 bits of the object-page word (a version-4 record reads a count
/// of 0, which no live record may hold).
const SNAPSHOT_VERSION: u16 = 5;
/// Encoding of `FlatIndex::seed_root == None`.
const NO_ROOT: u64 = u64::MAX;

/// Delta-layer residency captured in a snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct DeltaResidency {
    /// The object pages of the live delta partitions, in table order.
    pub pages: Vec<PageId>,
    /// The tier stack over `pages`, bottom first: each tier's level and
    /// how many of the pages are its.
    pub tiers: Vec<(u32, u64)>,
    /// The tombstone set as sorted `(object page, slot)` pairs.
    pub tombstones: Vec<(u64, u16)>,
}

/// The checkpoint snapshot: everything [`crate::FlatDb::open_durable`]
/// needs besides the recovered pages themselves.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DbSnapshot {
    /// Sequence number of the last batch applied before the checkpoint.
    pub last_seq: u64,
    /// The session's `built` flag (a fresh updatable database is
    /// delta-only and unbuilt, yet has committed state to recover).
    pub built: bool,
    /// The index descriptor at checkpoint time.
    pub index: FlatIndex,
    /// Delta-layer residency, if a writer had adopted the index.
    pub delta: Option<DeltaResidency>,
}

impl DbSnapshot {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.last_seq.to_le_bytes());
        out.push(self.built as u8);
        encode_descriptor(&self.index, &mut out);
        match &self.delta {
            None => out.push(0),
            Some(residency) => {
                out.push(1);
                out.extend_from_slice(&(residency.pages.len() as u64).to_le_bytes());
                for p in &residency.pages {
                    out.extend_from_slice(&p.0.to_le_bytes());
                }
                out.extend_from_slice(&(residency.tiers.len() as u64).to_le_bytes());
                for &(level, pages) in &residency.tiers {
                    out.extend_from_slice(&level.to_le_bytes());
                    out.extend_from_slice(&pages.to_le_bytes());
                }
                out.extend_from_slice(&(residency.tombstones.len() as u64).to_le_bytes());
                for &(page, slot) in &residency.tombstones {
                    out.extend_from_slice(&page.to_le_bytes());
                    out.extend_from_slice(&slot.to_le_bytes());
                }
            }
        }
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<DbSnapshot, StorageError> {
        let mut r = Reader::new(bytes);
        if r.u64()? != SNAPSHOT_MAGIC {
            return Err(StorageError::Corrupt(
                "checkpoint snapshot has a bad magic number".into(),
            ));
        }
        let version = r.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(StorageError::Corrupt(format!(
                "checkpoint snapshot format version {version}; \
                 this build reads version {SNAPSHOT_VERSION}"
            )));
        }
        let last_seq = r.u64()?;
        let built = r.u8()? != 0;
        let index = decode_descriptor(&mut r)?;
        let delta = match r.u8()? {
            0 => None,
            1 => Some(DeltaResidency {
                pages: r.list("delta page count", |r| r.u64().map(PageId))?,
                tiers: r.list("delta tier count", |r| Ok((r.u32()?, r.u64()?)))?,
                tombstones: r.list("tombstone count", |r| Ok((r.u64()?, r.u16()?)))?,
            }),
            t => {
                return Err(StorageError::Corrupt(format!(
                    "unknown snapshot state tag {t}"
                )))
            }
        };
        r.finish()?;
        Ok(DbSnapshot {
            last_seq,
            built,
            index,
            delta,
        })
    }
}

/// Appends the index descriptor: layout `u16`, seed root `u64`, seed
/// height `u32`, then elements, object pages, metadata pages and seed-tree
/// directory pages as `u64`s, all little-endian.
fn encode_descriptor(index: &FlatIndex, out: &mut Vec<u8>) {
    let layout: u16 = match index.layout {
        LeafLayout::MbrOnly => 0,
        LeafLayout::WithIds => 1,
    };
    out.extend_from_slice(&layout.to_le_bytes());
    out.extend_from_slice(&index.seed_root.map_or(NO_ROOT, |r| r.0).to_le_bytes());
    out.extend_from_slice(&index.seed_height.to_le_bytes());
    for count in [
        index.num_elements,
        index.num_object_pages,
        index.num_meta_pages,
        index.num_seed_inner_pages,
    ] {
        out.extend_from_slice(&count.to_le_bytes());
    }
}

/// Reads a descriptor written by [`encode_descriptor`].
fn decode_descriptor(r: &mut Reader<'_>) -> Result<FlatIndex, StorageError> {
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

/// A bounds-checked little-endian byte reader over a record payload.
struct Reader<'a> {
    /// The bytes not read yet.
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes }
    }

    /// The next `N` bytes.
    fn take<const N: usize>(&mut self) -> Result<[u8; N], StorageError> {
        let Some((head, rest)) = self.bytes.split_first_chunk::<N>() else {
            return Err(StorageError::Corrupt("truncated durable record".into()));
        };
        self.bytes = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, StorageError> {
        self.take().map(u8::from_le_bytes)
    }

    fn u16(&mut self) -> Result<u16, StorageError> {
        self.take().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        self.take().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, StorageError> {
        self.take().map(f64::from_le_bytes)
    }

    /// A `u64` count that must also fit the remaining bytes (each counted
    /// item is at least one byte), so corrupt lengths fail before any
    /// giant allocation.
    fn len(&mut self, what: &str) -> Result<usize, StorageError> {
        let n = self.u64()?;
        if n > self.bytes.len() as u64 {
            return Err(StorageError::Corrupt(format!(
                "implausible {what} {n} with {} bytes left in the record",
                self.bytes.len()
            )));
        }
        Ok(n as usize)
    }

    /// A [`Reader::len`] count, then that many items.
    fn list<T>(
        &mut self,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, StorageError>,
    ) -> Result<Vec<T>, StorageError> {
        let n = self.len(what)?;
        (0..n).map(|_| item(self)).collect()
    }

    fn finish(self) -> Result<(), StorageError> {
        if !self.bytes.is_empty() {
            return Err(StorageError::Corrupt(format!(
                "durable record has {} trailing bytes",
                self.bytes.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> Entry {
        Entry::new(
            id,
            Aabb::new(
                Point3::new(id as f64, 1.5, -2.0),
                Point3::new(id as f64 + 1.0, 2.5, 0.0),
            ),
        )
    }

    #[test]
    fn logical_records_roundtrip() {
        for (seq, op) in [
            (1, WriteOp::Insert(vec![entry(7), entry(8)])),
            (2, WriteOp::Delete(vec![3, 9, 27])),
            (3, WriteOp::Compact),
            (4, WriteOp::Insert(Vec::new())),
            (5, WriteOp::Delete(Vec::new())),
        ] {
            let bytes = encode_logical(seq, &op);
            assert_eq!(decode_logical(&bytes).unwrap(), (seq, op));
        }
    }

    #[test]
    fn corrupt_logical_records_are_rejected() {
        let good = encode_logical(9, &WriteOp::Insert(vec![entry(1)]));
        // Truncation anywhere inside the record fails loudly.
        for cut in 0..good.len() {
            assert!(decode_logical(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage fails too.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_logical(&long).is_err());
        // An unknown opcode fails.
        let mut bad = good;
        bad[8] = 77;
        assert!(decode_logical(&bad).is_err());
    }

    #[test]
    fn implausible_counts_fail_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(OP_DELETE);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_logical(&bytes).unwrap_err();
        assert!(err.to_string().contains("implausible"));
    }

    #[test]
    fn snapshots_roundtrip() {
        let base = DbSnapshot {
            last_seq: 41,
            built: true,
            index: FlatIndex {
                seed_root: Some(PageId(12)),
                seed_height: 3,
                layout: LeafLayout::WithIds,
                num_elements: 900,
                num_object_pages: 30,
                num_meta_pages: 4,
                num_seed_inner_pages: 2,
            },
            delta: Some(DeltaResidency {
                pages: vec![PageId(3), PageId(4), PageId(99)],
                tiers: vec![(1, 2), (0, 1)],
                tombstones: vec![(7, 0), (7, 3), (31, 12)],
            }),
        };
        assert_eq!(DbSnapshot::decode(&base.encode()).unwrap(), base);

        let empty = DbSnapshot {
            last_seq: 0,
            built: false,
            index: FlatIndex::empty(LeafLayout::WithIds),
            delta: None,
        };
        assert_eq!(DbSnapshot::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn snapshot_bytes_follow_the_documented_layout() {
        let snap = DbSnapshot {
            last_seq: 41,
            built: true,
            index: FlatIndex {
                seed_root: Some(PageId(12)),
                seed_height: 3,
                layout: LeafLayout::WithIds,
                num_elements: 900,
                num_object_pages: 30,
                num_meta_pages: 4,
                num_seed_inner_pages: 2,
            },
            delta: Some(DeltaResidency {
                pages: vec![PageId(99)],
                tiers: vec![(2, 1)],
                tombstones: vec![(7, 3)],
            }),
        };
        let mut expected = Vec::new();
        expected.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        expected.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        expected.extend_from_slice(&41u64.to_le_bytes());
        expected.push(1);
        // The descriptor: layout, seed root, seed height, four counters.
        expected.extend_from_slice(&1u16.to_le_bytes());
        expected.extend_from_slice(&12u64.to_le_bytes());
        expected.extend_from_slice(&3u32.to_le_bytes());
        for count in [900u64, 30, 4, 2] {
            expected.extend_from_slice(&count.to_le_bytes());
        }
        // Delta residency: tag, delta object pages, the tier stack as
        // (level u32, page count u64) pairs, tombstones.
        expected.push(1);
        for word in [1u64, 99, 1] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        expected.extend_from_slice(&2u32.to_le_bytes());
        for word in [1u64, 1, 7] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        expected.extend_from_slice(&3u16.to_le_bytes());
        assert_eq!(snap.encode(), expected);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let snap = DbSnapshot {
            last_seq: 1,
            built: false,
            index: FlatIndex::empty(LeafLayout::WithIds),
            delta: None,
        };
        let good = snap.encode();
        for cut in 0..good.len() {
            assert!(DbSnapshot::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(DbSnapshot::decode(&bad_magic)
            .unwrap_err()
            .to_string()
            .contains("magic"));
        let mut bad_version = good;
        bad_version[8] = 99;
        let err = DbSnapshot::decode(&bad_version).unwrap_err().to_string();
        assert!(
            err.contains("version 99") && err.contains("reads version 5"),
            "{err}"
        );
    }

    /// The error a snapshot stamped with format `version` is refused with.
    fn refusal_of_version(version: u16) -> String {
        let snap = DbSnapshot {
            last_seq: 3,
            built: true,
            index: FlatIndex::empty(LeafLayout::WithIds),
            delta: Some(DeltaResidency {
                pages: vec![PageId(5)],
                tiers: vec![(0, 1)],
                tombstones: Vec::new(),
            }),
        };
        let mut old = snap.encode();
        old[8..10].copy_from_slice(&version.to_le_bytes());
        let err = DbSnapshot::decode(&old).unwrap_err();
        let StorageError::Corrupt(msg) = err else {
            panic!("expected a corrupt-snapshot error, got {err}");
        };
        msg
    }

    #[test]
    fn a_version_2_snapshot_is_refused_naming_both_versions() {
        // Version 2 retired a partition by pruning its links and writing
        // clique links among its neighbors, and listed metadata pages; the
        // read path now crosses dead records through the links they keep,
        // and reopen reads the list as delta object pages.
        let msg = refusal_of_version(2);
        assert!(
            msg.contains("version 2;") && msg.contains("reads version 5"),
            "{msg}"
        );
    }

    #[test]
    fn a_version_3_snapshot_is_refused_naming_both_versions() {
        // Version 3 recorded no tier stack: every insert batch was its own
        // tiling, so reopen could not know which delta pages merge next.
        let msg = refusal_of_version(3);
        assert!(
            msg.contains("version 3;") && msg.contains("reads version 5"),
            "{msg}"
        );
    }

    #[test]
    fn a_version_4_snapshot_is_refused_naming_both_versions() {
        // Version 4 records carried no element count: read today, every
        // live record would claim an empty object page.
        let msg = refusal_of_version(4);
        assert!(
            msg.contains("version 4;") && msg.contains("reads version 5"),
            "{msg}"
        );
    }
}
