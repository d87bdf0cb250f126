//! # FLAT — Accelerating Range Queries for Brain Simulations
//!
//! A from-scratch Rust reproduction of *"Accelerating Range Queries for
//! Brain Simulations"* (Tauheed, Biveinis, Heinis, Schürmann, Markram,
//! Ailamaki — ICDE 2012): the **FLAT** two-phase spatial index, the
//! bulkloaded R-tree baselines it is evaluated against, the paged storage
//! substrate that makes the paper's I/O accounting possible, and synthetic
//! generators for all five evaluation datasets.
//!
//! This umbrella crate re-exports the public API of every workspace crate;
//! depend on the individual crates if you want a narrower dependency.
//!
//! The recommended entry point is the [`prelude::FlatDb`] session façade:
//! one handle that owns the page cache and the index lifecycle, builds
//! from an entry set (one streaming bulkload that spills to scratch
//! pages past a memory budget), serves serial reads through cheap
//! [`prelude::Snapshot`]s and batched reads through a fluent query
//! builder, and mutates through an exclusive writer:
//!
//! ```
//! use flat_repro::prelude::*;
//!
//! // Generate a small neuron model and index it through the façade.
//! let config = NeuronConfig::bbp(10, 500, 42);
//! let model = NeuronModel::generate(&config);
//! let mut db = FlatDb::create(
//!     MemStore::new(),
//!     DbOptions::updatable(config.domain), // stable ids + fixed domain
//! );
//! db.build_from(model.entries()).unwrap();
//!
//! // Serial reads through a cheap snapshot handle.
//! let query = Aabb::cube(config.domain.center(), 30.0);
//! let hits = db.reader().range(&query).unwrap();
//! let nearest = db.reader().knn(config.domain.center(), 5).unwrap();
//! assert_eq!(nearest.len(), 5);
//!
//! // The same query as a batch (one epoch, overlapped reads): identical bits.
//! let outcome = db.query().range(query).run_batch().unwrap();
//! assert_eq!(outcome.results[0], hits);
//!
//! // Updates go through an exclusive write session.
//! let mut writer = db.writer().unwrap();
//! let removed = writer.delete(&[hits[0].id]).unwrap();
//! assert_eq!(removed, 1);
//! drop(writer);
//! assert_eq!(db.reader().range(&query).unwrap().len(), hits.len() - 1);
//! ```
//!
//! That database is ephemeral. A durable one
//! ([`prelude::FlatDb::create_durable`] over a [`prelude::FileStore`])
//! is a database file: every write batch is logged before it applies,
//! and [`prelude::FlatDb::open_durable`] reopens the file (see the
//! `quickstart` example).
//!
//! Underneath the façade, page access is split into two capabilities:
//! builds are exclusive ([`prelude::PageWrite`], `&mut`), queries are
//! shared reads ([`prelude::PageRead`], `&self`) — so the low-level types
//! ([`prelude::FlatIndex`], [`prelude::RTree`], [`prelude::DeltaIndex`])
//! are built into and queried through the one lock-sharded page cache,
//! [`prelude::ConcurrentBufferPool`] — from one thread or many, optionally
//! with I/O workers that overlap device reads. The `index_comparison`
//! example keeps a paper-literal walkthrough of those low-level APIs.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use flat_core as core;
pub use flat_data as data;
pub use flat_geom as geom;
pub use flat_rtree as rtree;
pub use flat_sfc as sfc;
pub use flat_storage as storage;

/// The most commonly used items of every crate, for glob import.
pub mod prelude {
    pub use flat_core::{
        AggregateStats, BatchOutcome, BuildReport, BuildStats, ContinuousQueryId, DbOptions,
        DeltaIndex, DeltaReport, Durability, FlatDb, FlatError, FlatIndex, FlatIndexBuilder,
        FlatOptions, JoinEngine, JoinInput, JoinResult, JoinStats, KnnBatchOutcome, KnnStats,
        Neighbor, QueryBuilder, QueryDelta, QueryStats, RecoveryReport, ShardOptions, ShardedDb,
        Snapshot, StreamingStats, WriteOp, Writer,
    };
    pub use flat_data::continuous::{ContinuousConfig, ContinuousWorkload};
    pub use flat_data::join::{mesh_vs_nbody, JoinWorkload, JoinWorkloadConfig};
    pub use flat_data::mesh::{mesh_entries, MeshConfig, MeshSource};
    pub use flat_data::nbody::{nbody_entries, NBodyConfig, NBodySource};
    pub use flat_data::neuron::{NeuronConfig, NeuronModel, NeuronSource};
    pub use flat_data::source::{EntrySource, VecSource};
    pub use flat_data::uniform::{uniform_entries, UniformConfig, UniformSource};
    pub use flat_data::update::{ChurnConfig, ChurnWorkload, UpdateStep};
    pub use flat_data::workload::{knn_queries, range_queries, KnnConfig, WorkloadConfig};
    pub use flat_geom::{Aabb, Axis, Cylinder, Point3, Shape, Sphere, Triangle};
    pub use flat_rtree::{BulkLoad, Entry, Hit, LeafLayout, RTree, RTreeConfig};
    pub use flat_storage::{
        ConcurrentBufferPool, FileStore, IoStats, MemStore, Page, PageId, PageKind, PageRead,
        PageStore, PageWrite, SchedulerConfig, SchedulerStats, ThrottledStore, VersionStats,
        VersionedPool, PAGE_SIZE,
    };
}
