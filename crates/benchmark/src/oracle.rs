//! Brute-force reference answers and result digests.
//!
//! These are the reference implementations the benchmark compares the
//! library against; they share no code with it beyond the geometric
//! predicates of `flat-geom`.

use crate::inputs::Op;
use flat_core::Neighbor;
use flat_geom::{Aabb, Point3};
use flat_rtree::{Entry, Hit};

/// What one read operation returned, reduced to what the oracle can
/// check independently of physical layout: sorted element ids for a
/// range query, ascending squared distances for kNN (ids may legally
/// differ between implementations at exact distance ties), the count for
/// an aggregate.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Sorted ids of a range query.
    Ids(Vec<u64>),
    /// Ascending `dist_sq` of a kNN result.
    Dists(Vec<f64>),
    /// An aggregate count.
    Count(u64),
}

impl Answer {
    /// Reduces a range result.
    pub fn from_hits(hits: &[Hit]) -> Answer {
        let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        Answer::Ids(ids)
    }

    /// Reduces a kNN result.
    pub fn from_neighbors(neighbors: &[Neighbor]) -> Answer {
        Answer::Dists(neighbors.iter().map(|n| n.dist_sq).collect())
    }

    /// Result cardinality (the cheap per-op sanity figure).
    pub fn len(&self) -> u64 {
        match self {
            Answer::Ids(ids) => ids.len() as u64,
            Answer::Dists(d) => d.len() as u64,
            Answer::Count(c) => *c,
        }
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An order-independent 64-bit digest, equal across every entry
    /// point that returns the same answer.
    pub fn digest(&self) -> u64 {
        match self {
            Answer::Ids(ids) => ids
                .iter()
                .fold(ids.len() as u64, |acc, id| acc.wrapping_add(mix(*id))),
            Answer::Dists(dists) => dists.iter().fold(dists.len() as u64, |acc, d| {
                acc.wrapping_add(mix(d.to_bits()))
            }),
            Answer::Count(c) => mix(*c),
        }
    }
}

fn mix(x: u64) -> u64 {
    crate::inputs::substream(x, 0x5EED)
}

/// The reference answer to `op` over `entries` by linear scan.
pub fn brute_force(entries: &[Entry], op: &Op) -> Answer {
    match op {
        Op::Range(_, query) => {
            let mut ids: Vec<u64> = entries
                .iter()
                .filter(|e| e.mbr.intersects(query))
                .map(|e| e.id)
                .collect();
            ids.sort_unstable();
            Answer::Ids(ids)
        }
        Op::Knn(point, k) => Answer::Dists(brute_knn(entries, point, *k)),
        Op::Agg(query) => {
            Answer::Count(entries.iter().filter(|e| e.mbr.intersects(query)).count() as u64)
        }
    }
}

fn brute_knn(entries: &[Entry], point: &Point3, k: usize) -> Vec<f64> {
    let mut dists: Vec<f64> = entries
        .iter()
        .map(|e| e.mbr.distance_sq_to_point(point))
        .collect();
    let k = k.min(dists.len());
    if k == 0 {
        return Vec::new();
    }
    dists.select_nth_unstable_by(k - 1, |a, b| a.partial_cmp(b).expect("finite distances"));
    dists.truncate(k);
    dists.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    dists
}

/// Every `(outer id, inner id)` pair whose MBRs are within Euclidean
/// distance `eps`, sorted — by a uniform grid over the inner set rather
/// than any index: inner elements are bucketed by MBR centre into cells
/// of edge ≥ `eps`, and each outer element probes the cells its MBR,
/// inflated by `eps` plus the largest inner half-extent, overlaps.
pub fn grid_join(outer: &[Entry], inner: &[Entry], eps: f64) -> Vec<(u64, u64)> {
    if outer.is_empty() || inner.is_empty() {
        return Vec::new();
    }
    let bounds = Aabb::union_all(inner.iter().map(|e| e.mbr));
    let reach = inner
        .iter()
        .map(|e| {
            let x = e.mbr.extents();
            x.x.max(x.y).max(x.z) * 0.5
        })
        .fold(0.0, f64::max);
    // Cells no smaller than eps, and no more than ~128 per axis.
    let extent = bounds.extents();
    let longest = extent.x.max(extent.y).max(extent.z).max(f64::MIN_POSITIVE);
    let cell = (eps + reach).max(longest / 128.0).max(f64::MIN_POSITIVE);
    let dims = [
        (extent.x / cell).floor() as usize + 1,
        (extent.y / cell).floor() as usize + 1,
        (extent.z / cell).floor() as usize + 1,
    ];
    let coord =
        |v: f64, lo: f64, n: usize| (((v - lo) / cell).floor().max(0.0) as usize).min(n - 1);
    let cell_of = |p: &Point3| {
        [
            coord(p.x, bounds.min.x, dims[0]),
            coord(p.y, bounds.min.y, dims[1]),
            coord(p.z, bounds.min.z, dims[2]),
        ]
    };
    let flat = |c: [usize; 3]| (c[2] * dims[1] + c[1]) * dims[0] + c[0];

    // Counting sort of inner elements into cells (CSR layout).
    let mut starts = vec![0u32; dims[0] * dims[1] * dims[2] + 1];
    let cells: Vec<usize> = inner
        .iter()
        .map(|e| flat(cell_of(&e.mbr.center())))
        .collect();
    for &c in &cells {
        starts[c + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut cursor = starts.clone();
    let mut members = vec![0u32; inner.len()];
    for (i, &c) in cells.iter().enumerate() {
        members[cursor[c] as usize] = i as u32;
        cursor[c] += 1;
    }

    let eps2 = eps * eps;
    let mut pairs = Vec::new();
    for o in outer {
        let window = o.mbr.inflate(eps + reach);
        if !window.intersects(&bounds) {
            continue;
        }
        let lo = cell_of(&window.min);
        let hi = cell_of(&window.max);
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                for x in lo[0]..=hi[0] {
                    let c = flat([x, y, z]);
                    for &m in &members[starts[c] as usize..starts[c + 1] as usize] {
                        let i = &inner[m as usize];
                        if o.mbr.distance_sq(&i.mbr) <= eps2 {
                            pairs.push((o.id, i.id));
                        }
                    }
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{join_dataset, neuron_dataset, script, OpKind};

    #[test]
    fn grid_join_equals_the_nested_loop() {
        let w = join_dataset(3_000, 11);
        let eps2 = w.eps * w.eps;
        let mut nested = Vec::new();
        for a in &w.outer {
            for b in &w.inner {
                if a.mbr.distance_sq(&b.mbr) <= eps2 {
                    nested.push((a.id, b.id));
                }
            }
        }
        nested.sort_unstable();
        assert!(!nested.is_empty());
        assert_eq!(grid_join(&w.outer, &w.inner, w.eps), nested);
        // Elements with real extent on the inner side too.
        let swapped: Vec<(u64, u64)> = {
            let mut s: Vec<(u64, u64)> = nested.iter().map(|&(a, b)| (b, a)).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(grid_join(&w.inner, &w.outer, w.eps), swapped);
        assert!(grid_join(&[], &w.inner, w.eps).is_empty());
    }

    #[test]
    fn brute_force_answers_and_digests() {
        let data = neuron_dataset(3_000, 5);
        let ops = script(&data.domain, 5, [6, 2, 6, 2]);
        for op in &ops {
            let answer = brute_force(&data.entries, op);
            match (op, &answer) {
                (Op::Range(..), Answer::Ids(ids)) => assert!(ids.windows(2).all(|w| w[0] < w[1])),
                (Op::Knn(_, k), Answer::Dists(d)) => {
                    assert_eq!(d.len(), *k);
                    assert!(d.windows(2).all(|w| w[0] <= w[1]));
                }
                (Op::Agg(q), Answer::Count(c)) => {
                    assert_eq!(
                        Answer::Count(*c).len(),
                        brute_force(&data.entries, &Op::Range(OpKind::Lss, *q)).len()
                    );
                }
                other => panic!("mismatched answer shape {other:?}"),
            }
            assert_eq!(answer.digest(), answer.clone().digest());
        }
        let a = Answer::Ids(vec![1, 2, 3]);
        assert_ne!(a.digest(), Answer::Ids(vec![1, 2, 4]).digest());
        assert_ne!(a.digest(), Answer::Ids(vec![1, 2]).digest());
    }
}
