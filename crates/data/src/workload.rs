//! Query workloads: the SN and LSS micro-benchmarks (§VII-A) and point
//! queries (Figure 2).
//!
//! "The SN benchmark … consecutively executes 200 spatial range queries
//! each with a fixed volume of 5×10⁻⁷ % of the entire data set volume. The
//! LSS benchmark … 200 spatial range queries, but each with a fixed volume
//! of 5×10⁻⁴ % of the entire data set. The location and aspect ratio of all
//! queries is chosen at random."

use flat_geom::{Aabb, Point3, RangeQueryBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The SN (structural neighborhood) query volume, as a *fraction* of the
/// domain volume.
///
/// The paper writes "5×10⁻⁷ % of the space", but its reported result sizes
/// only reconcile with a *fraction* of 5×10⁻⁷: at 450 M elements an SN
/// query returns ≈280 elements (56 000 over 200 queries, §III-A), which is
/// 450e6 · 5e-7 ≈ 225 — while 5e-9 would return ≈2 elements across the
/// whole benchmark. We therefore read the paper's percent sign as sloppy
/// notation for "fraction".
pub const SN_VOLUME_FRACTION: f64 = 5e-7;

/// The LSS (large spatial subvolume) query volume fraction. Same reading
/// as [`SN_VOLUME_FRACTION`]: 450e6 · 5e-4 ≈ 225 k elements per query
/// matches the ≈2.5 GB result sets of Figure 4 (≈52 M × 48 B over 200
/// queries).
pub const LSS_VOLUME_FRACTION: f64 = 5e-4;

/// Number of queries per benchmark run (§VII-A).
pub const QUERIES_PER_RUN: usize = 200;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of queries.
    pub count: usize,
    /// Query volume as a fraction of the domain volume.
    pub volume_fraction: f64,
    /// Range the per-axis proportions are drawn from (aspect ratio
    /// randomization). `(1.0, 4.0)` gives mild elongation like real
    /// analysis queries.
    pub proportion_range: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The SN benchmark workload.
    pub fn sn(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            count: QUERIES_PER_RUN,
            volume_fraction: SN_VOLUME_FRACTION,
            proportion_range: (1.0, 4.0),
            seed,
        }
    }

    /// The LSS benchmark workload.
    pub fn lss(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            count: QUERIES_PER_RUN,
            volume_fraction: LSS_VOLUME_FRACTION,
            proportion_range: (1.0, 4.0),
            seed,
        }
    }
}

/// Generates range queries of fixed volume, random location and random
/// aspect ratio, clamped inside `domain`.
pub fn range_queries(domain: &Aabb, config: &WorkloadConfig) -> Vec<Aabb> {
    let (lo, hi) = config.proportion_range;
    assert!(
        lo > 0.0 && hi >= lo,
        "invalid proportion range ({lo}, {hi})"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.count)
        .map(|_| {
            let center = random_point(&mut rng, domain);
            let proportions = if lo == hi {
                [1.0, 1.0, 1.0]
            } else {
                [
                    rng.gen_range(lo..hi),
                    rng.gen_range(lo..hi),
                    rng.gen_range(lo..hi),
                ]
            };
            RangeQueryBuilder::new(*domain)
                .center(center)
                .volume_fraction(config.volume_fraction)
                .proportions(proportions)
                .build()
        })
        .collect()
}

/// Random point-query locations (the Figure 2 experiment).
pub fn point_queries(domain: &Aabb, count: usize, seed: u64) -> Vec<Point3> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| random_point(&mut rng, domain)).collect()
}

/// Parameters of a k-nearest-neighbor workload (extension): analysis
/// requests of the form "the `k` elements closest to this location", the
/// proximity-driven analogue of the structural-neighborhood accesses of
/// §III-A.
#[derive(Debug, Clone, Copy)]
pub struct KnnConfig {
    /// Number of queries.
    pub count: usize,
    /// Range `k` is drawn from, inclusive. A fixed `k` uses `(k, k)`.
    pub k_range: (usize, usize),
    /// RNG seed.
    pub seed: u64,
}

impl KnnConfig {
    /// The default kNN benchmark workload: 200 queries (matching the SN/LSS
    /// count) with `k` spanning a small structural neighborhood (8) up to a
    /// page-sized one (128).
    pub fn benchmark(seed: u64) -> KnnConfig {
        KnnConfig {
            count: QUERIES_PER_RUN,
            k_range: (8, 128),
            seed,
        }
    }
}

/// Generates `(location, k)` pairs with random locations in `domain` and
/// `k` drawn uniformly from the configured range. Deterministic in the
/// seed, like the range workloads.
pub fn knn_queries(domain: &Aabb, config: &KnnConfig) -> Vec<(Point3, usize)> {
    let (lo, hi) = config.k_range;
    assert!(lo >= 1 && hi >= lo, "invalid k range ({lo}, {hi})");
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.count)
        .map(|_| {
            let p = random_point(&mut rng, domain);
            let k = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
            (p, k)
        })
        .collect()
}

fn random_point(rng: &mut StdRng, domain: &Aabb) -> Point3 {
    Point3::new(
        rng.gen_range(domain.min.x..domain.max.x),
        rng.gen_range(domain.min.y..domain.max.y),
        rng.gen_range(domain.min.z..domain.max.z),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Aabb {
        crate::bbp_domain()
    }

    #[test]
    fn sn_queries_have_the_paper_volume() {
        let queries = range_queries(&domain(), &WorkloadConfig::sn(1));
        assert_eq!(queries.len(), 200);
        let expected = domain().volume() * SN_VOLUME_FRACTION;
        for q in &queries {
            assert!((q.volume() - expected).abs() < expected * 1e-9);
            assert!(domain().contains(q));
        }
    }

    #[test]
    fn lss_queries_are_1000x_larger_than_sn() {
        let sn = range_queries(&domain(), &WorkloadConfig::sn(2));
        let lss = range_queries(&domain(), &WorkloadConfig::lss(2));
        let ratio = lss[0].volume() / sn[0].volume();
        assert!((ratio - 1000.0).abs() < 1e-6);
        assert!((LSS_VOLUME_FRACTION / SN_VOLUME_FRACTION - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn aspect_ratios_vary() {
        let queries = range_queries(&domain(), &WorkloadConfig::sn(3));
        let aspects: Vec<f64> = queries.iter().map(|q| q.aspect_ratio()).collect();
        let min = aspects.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = aspects.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 1.3, "aspect ratios do not vary: {min}..{max}");
    }

    #[test]
    fn locations_cover_the_domain() {
        let queries = range_queries(&domain(), &WorkloadConfig::lss(4));
        let coverage = Aabb::union_all(queries.iter().cloned());
        assert!(
            coverage.volume() > domain().volume() * 0.5,
            "queries bunched up"
        );
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = range_queries(&domain(), &WorkloadConfig::sn(5));
        let b = range_queries(&domain(), &WorkloadConfig::sn(5));
        assert_eq!(a, b);
        let c = range_queries(&domain(), &WorkloadConfig::sn(6));
        assert_ne!(a, c);
    }

    #[test]
    fn point_queries_are_inside_the_domain() {
        let points = point_queries(&domain(), 100, 7);
        assert_eq!(points.len(), 100);
        for p in &points {
            assert!(domain().contains_point(p));
        }
    }

    #[test]
    fn knn_workload_is_deterministic_and_in_domain() {
        let config = KnnConfig::benchmark(9);
        let a = knn_queries(&domain(), &config);
        let b = knn_queries(&domain(), &config);
        assert_eq!(a.len(), QUERIES_PER_RUN);
        assert_eq!(a, b);
        for (p, k) in &a {
            assert!(domain().contains_point(p));
            assert!((8..=128).contains(k));
        }
        // k actually varies across the workload.
        let ks: std::collections::HashSet<usize> = a.iter().map(|&(_, k)| k).collect();
        assert!(ks.len() > 10, "k barely varies: {} distinct", ks.len());
    }

    #[test]
    fn knn_workload_fixed_k() {
        let config = KnnConfig {
            count: 10,
            k_range: (5, 5),
            seed: 3,
        };
        assert!(knn_queries(&domain(), &config).iter().all(|&(_, k)| k == 5));
    }
}
