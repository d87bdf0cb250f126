//! **FLAT** — the paper's contribution: a two-phase spatial index whose
//! range-query cost is independent of data density.
//!
//! R-trees on dense data develop *overlap*: many directory rectangles cover
//! any given point, so a range query must descend many root-to-leaf paths
//! (Figures 2–4 of the paper). FLAT sidesteps the directory almost
//! entirely:
//!
//! 1. **Seed phase** — a small R-tree (the *seed index*) is searched for
//!    *one* object page intersecting the query. Finding one arbitrary page
//!    does not suffer from overlap: a single path suffices, so the cost is
//!    the tree height.
//! 2. **Crawl phase** — from that page, a breadth-first search follows
//!    precomputed *neighborhood pointers* between pages, reading exactly
//!    the object pages whose page MBR intersects the query. The cost is
//!    proportional to the result size.
//!
//! Construction (Algorithm 1) is a bulkload: an STR sort-tile pass packs
//! elements onto object pages and simultaneously *tiles* space into
//! partitions (one per page) with two invariants — no empty space between
//! partitions, and each partition MBR encloses its page MBR — that make
//! the crawl exhaustive (Figures 8/9). A plane sweep (the paper's
//! temporary R-tree, streamed) computes which partitions intersect which;
//! those are the neighbor pointers, stored in per-page *metadata records*
//! packed into the seed tree's leaves.
//!
//! # Crate layout
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`partition`] | §V-A, Alg. 1 | STR tiling, stretching, invariants |
//! | [`neighbors`] | §V-A, Alg. 1 | neighbor computation: the streaming plane-sweep |
//! | [`meta`] | §V-B.2 | metadata records, seed-leaf page format |
//! | `index` (re-exported) | §V-B | [`FlatIndex`], the built index's descriptor, and the metadata + seed-tree writer; [`FlatIndex::build`] is the bulkload with nothing spilled |
//! | `builder` (re-exported) | §V-A, Alg. 1 | [`FlatIndexBuilder`]: the one bulkload, a streaming pipeline whose resident memory is bounded by its spill budget and whose pages do not depend on it |
//! | `query` (re-exported) | §V-B.1, §VI, Alg. 2 | the read path, written once as methods of [`DeltaIndex`] (a bulkload no writer has adopted is one with empty tables, and [`FlatIndex`]'s verbs run on such a copy): the seed phase; the one BFS crawl kernel, specialised per workload by a visitor (range here) |
//! | `knn` (re-exported) | extension | [`DeltaIndex::knn_query`] (and [`FlatIndex::knn_query`] on it), best-first seed + crawl over the same index (its own traversal: a moving bound is not a FIFO); [`rtree_knn`], the R-tree baseline's best-first descent over the same top-k accumulator |
//! | `delta` (re-exported) | extension | [`DeltaIndex`]: delta inserts/deletes with neighbor-link repair, tombstones, compaction back to a pristine (byte-identical) bulkload |
//! | [`db`] | extension | [`FlatDb`]: the session façade — one handle over build / query / update / durability, over the one shared page cache (no I/O workers) behind epoch-versioned pages; a batch ([`QueryBuilder`]) is the query verbs fanned out over one [`Snapshot`] |
//! | `durable` (via [`db`]) | extension | [`Durability`] modes, logical-record and checkpoint-snapshot formats (the snapshot holds the index descriptor); [`FlatDb::create_durable`] / [`FlatDb::open_durable`] commit every writer batch to a write-ahead log and recover exactly the committed prefix after a crash — a database file is this layout and nothing else |
//! | `shard` (re-exported) | extension | [`ShardedDb`]: K spatial shards, each a [`FlatDb`] whose cache runs its own I/O workers ([`ShardOptions::scheduler`]), with cross-shard routing and a global exact kNN merge |
//! | `join` (re-exported) | extension | [`JoinEngine`]: exact ε-distance joins by co-crawling two link graphs — the crawl kernel under a candidate-collecting visitor, seeded from the previous step's partners |
//! | `aggregate` (re-exported) | extension | `aggregate_count` / `aggregate_density`: the crawl kernel under a counting visitor with the containment early-exit |
//! | `continuous` (re-exported) | extension | continuous range queries: per-commit [`QueryDelta`] streams |
//! | `error` (re-exported) | extension | [`FlatError`]: the façade's unified error type |
//!
//! # Example
//!
//! ```
//! use flat_core::{FlatIndex, FlatOptions};
//! use flat_geom::{Aabb, Point3};
//! use flat_rtree::Entry;
//! use flat_storage::{ConcurrentBufferPool, MemStore};
//!
//! // One thousand unit boxes along the diagonal.
//! let entries: Vec<Entry> = (0..1000)
//!     .map(|i| Entry::new(i, Aabb::cube(Point3::splat(i as f64), 1.0)))
//!     .collect();
//!
//! let mut pool = ConcurrentBufferPool::new(MemStore::new(), 4096);
//! let (index, stats) = FlatIndex::build(&mut pool, entries, FlatOptions::default()).unwrap();
//! assert!(stats.num_partitions > 0);
//!
//! let query = Aabb::cube(Point3::splat(500.0), 20.0);
//! let hits = index.range_query(&pool, &query).unwrap();
//! assert!(!hits.is_empty());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod aggregate;
mod builder;
mod continuous;
pub mod db;
mod delta;
mod durable;
mod error;
mod index;
mod join;
mod knn;
pub mod meta;
pub mod neighbors;
pub mod partition;
mod query;
mod shard;

pub use aggregate::AggregateStats;
pub use builder::{FlatIndexBuilder, StreamingStats, DEFAULT_SPILL_BUDGET};
pub use continuous::{ContinuousQueryId, QueryDelta};
pub use db::{
    BatchOutcome, BuildReport, DbOptions, Durability, FlatDb, KnnBatchOutcome, QueryBuilder,
    RecoveryReport, Snapshot, StoreRef, WriteOp, Writer,
};
pub use delta::{verify_compacted_store, DeltaIndex, DeltaReport};
pub use error::FlatError;
pub use index::{BuildStats, FlatIndex, FlatOptions, MetaOrder};
pub use join::{JoinEngine, JoinInput, JoinResult, JoinStats};
pub use knn::{rtree_knn, KnnStats, Neighbor};
pub use query::QueryStats;
pub use shard::{ShardOptions, ShardedDb};
