//! Seeded inputs: datasets and query scripts.
//!
//! Everything here is a pure function of the run's `--seed`; the library
//! under test only ever sees the generated entries and queries.

use flat_data::join::{mesh_vs_nbody, JoinWorkload, JoinWorkloadConfig};
use flat_data::neuron::{NeuronConfig, NeuronModel};
use flat_data::workload::{knn_queries, range_queries, KnnConfig, WorkloadConfig};
use flat_geom::{Aabb, Point3};
use flat_rtree::Entry;

/// SN query volume as a fraction of the domain: ≈440 hits at the default
/// dataset size (the paper's structural-neighbourhood regime at the
/// density-preserving scale).
pub const SN_VOLUME_FRACTION: f64 = 5e-4;

/// LSS query volume fraction: ≈25 k hits at the default dataset size.
pub const LSS_VOLUME_FRACTION: f64 = 0.05;

/// Cylinder segments per generated neuron.
const SEGMENTS_PER_NEURON: usize = 1000;

/// Derives an independent seed for input stream `stream` of a run
/// (SplitMix64 step, like `flat_data`'s own substreams).
pub fn substream(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An element set and the domain it tiles.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The elements, ids dense from 0.
    pub entries: Vec<Entry>,
    /// The fixed tiling domain.
    pub domain: Aabb,
}

/// The neuron model at `elements` segments in the density-preserving
/// domain: the paper packs 450 M cylinders into a (285 µm)³ block, so the
/// cube edge shrinks with the cube root of the element ratio and element
/// geometry is sized relative to the page tile (segments ≈0.4 tile long,
/// radius 0.05–0.12 tile) — the regime every figure of the paper is in,
/// at any element count. Same construction as `flat-bench`'s density
/// sweep, repeated here so the benchmark does not depend on that crate.
pub fn neuron_dataset(elements: usize, seed: u64) -> Dataset {
    let neurons = elements.div_ceil(SEGMENTS_PER_NEURON);
    let edge = 285.0 * (elements as f64 / 450e6).cbrt();
    let mut config = NeuronConfig::bbp(neurons, SEGMENTS_PER_NEURON, seed);
    config.domain = Aabb::new(Point3::splat(0.0), Point3::splat(edge));
    let tile_edge = edge * (85.0 / elements as f64).cbrt();
    config.segment_length = tile_edge * 0.4;
    config.radius_range = (tile_edge * 0.05, tile_edge * 0.12);
    let mut entries = NeuronModel::generate(&config).entries();
    entries.truncate(elements);
    Dataset {
        entries,
        domain: config.domain,
    }
}

/// The paired mesh-vs-n-body join inputs, `elements / 2` requested on
/// each side (the mesh generator rounds its triangle count up).
pub fn join_dataset(elements: usize, seed: u64) -> JoinWorkload {
    let half = (elements / 2).max(1);
    mesh_vs_nbody(&JoinWorkloadConfig::mesh_vs_nbody(half, half, seed))
}

/// The four kinds of read operation (a workload issues some of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Structural-neighbourhood range query.
    Sn,
    /// Large-subvolume range query.
    Lss,
    /// k-nearest-neighbour probe.
    Knn,
    /// `aggregate_count` over an LSS-sized box.
    Agg,
}

impl OpKind {
    /// All kinds, in metric order.
    pub const ALL: [OpKind; 4] = [OpKind::Sn, OpKind::Lss, OpKind::Knn, OpKind::Agg];

    /// Dense index (position in [`OpKind::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One read operation of a script.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Range query (SN or LSS sized).
    Range(OpKind, Aabb),
    /// kNN probe.
    Knn(Point3, usize),
    /// Aggregate count.
    Agg(Aabb),
}

impl Op {
    /// Which latency bucket this op belongs to.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Range(kind, _) => *kind,
            Op::Knn(..) => OpKind::Knn,
            Op::Agg(_) => OpKind::Agg,
        }
    }
}

/// Builds a script of `counts[kind]` operations of each kind over
/// `domain`, evenly interleaved (so any prefix keeps the mix) and
/// deterministic in `seed`.
pub fn script(domain: &Aabb, seed: u64, counts: [usize; 4]) -> Vec<Op> {
    let range = |kind: OpKind, fraction: f64| {
        range_queries(
            domain,
            &WorkloadConfig {
                count: counts[kind.index()],
                volume_fraction: fraction,
                proportion_range: (1.0, 4.0),
                seed: substream(seed, 101 + kind.index() as u64),
            },
        )
    };
    let mut streams: [Vec<Op>; 4] = [
        range(OpKind::Sn, SN_VOLUME_FRACTION)
            .into_iter()
            .map(|q| Op::Range(OpKind::Sn, q))
            .collect(),
        range(OpKind::Lss, LSS_VOLUME_FRACTION)
            .into_iter()
            .map(|q| Op::Range(OpKind::Lss, q))
            .collect(),
        knn_queries(
            domain,
            &KnnConfig {
                count: counts[OpKind::Knn.index()],
                k_range: (8, 128),
                seed: substream(seed, 103),
            },
        )
        .into_iter()
        .map(|(p, k)| Op::Knn(p, k))
        .collect(),
        range(OpKind::Agg, LSS_VOLUME_FRACTION)
            .into_iter()
            .map(Op::Agg)
            .collect(),
    ];
    for stream in &mut streams {
        stream.reverse(); // pop() below then yields generation order
    }
    // Largest-deficit interleave: at every position emit the kind that is
    // furthest behind its share.
    let total: usize = counts.iter().sum();
    let mut emitted = [0usize; 4];
    let mut out = Vec::with_capacity(total);
    for position in 1..=total {
        let kind = (0..4)
            .filter(|&k| emitted[k] < counts[k])
            .max_by(|&a, &b| {
                let deficit = |k: usize| {
                    counts[k] as f64 * position as f64 / total as f64 - emitted[k] as f64
                };
                deficit(a)
                    .partial_cmp(&deficit(b))
                    .expect("deficits are finite")
                    .then(b.cmp(&a)) // ties: lower kind index first
            })
            .expect("some kind still has ops left");
        emitted[kind] += 1;
        out.push(streams[kind].pop().expect("count tracked above"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_seeded_interleaved_and_complete() {
        let domain = Aabb::new(Point3::splat(0.0), Point3::splat(10.0));
        let a = script(&domain, 7, [40, 4, 40, 4]);
        assert_eq!(a, script(&domain, 7, [40, 4, 40, 4]));
        assert_ne!(a, script(&domain, 8, [40, 4, 40, 4]));
        for kind in OpKind::ALL {
            let n = a.iter().filter(|op| op.kind() == kind).count();
            assert_eq!(n, [40, 4, 40, 4][kind.index()]);
        }
        // Any quarter of the script holds a quarter of each kind (±1).
        let quarter = &a[..a.len() / 4];
        assert_eq!(
            quarter.iter().filter(|o| o.kind() == OpKind::Lss).count(),
            1
        );
        assert!((9..=11).contains(&quarter.iter().filter(|o| o.kind() == OpKind::Sn).count()));
        // Kinds with no operations are simply absent.
        let sn_only = script(&domain, 7, [5, 0, 0, 0]);
        assert!(sn_only.len() == 5 && sn_only.iter().all(|o| o.kind() == OpKind::Sn));
    }

    #[test]
    fn datasets_are_seeded_and_sized() {
        let a = neuron_dataset(5_000, 3);
        let b = neuron_dataset(5_000, 3);
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.entries.len(), 5_000);
        assert!(a
            .entries
            .iter()
            .all(|e| a.domain.contains(&e.mbr) || a.domain.intersects(&e.mbr)));
        assert_ne!(a.entries, neuron_dataset(5_000, 4).entries);
        let j = join_dataset(4_000, 3);
        assert_eq!(j.inner.len(), 2_000);
        assert!(j.outer.len() >= 2_000);
    }
}
