//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§III, §VII, §VIII).
//!
//! Each figure/table has a function in [`figures`]; figures measured by the
//! same pass form one suite of [`figures::SUITES`]. The one binary,
//! `run_all`, runs one suite (`cargo run --release -p flat-bench --bin
//! run_all -- sn`) or, with no argument, all of them, and writes CSVs next
//! to the printed tables; `run_all --list` prints the suites.
//!
//! # Scaling
//!
//! The paper's datasets hold 50–450 **million** elements and its queries
//! run against a disk array for thousands of minutes. The harness defaults
//! to a 1/1000 scale — 50–450 **thousand** elements on the same 9-point
//! density axis — and scales the query volumes *up* by the same factor so
//! the per-query result sizes (and therefore every mechanism the figures
//! demonstrate: overlap growth, seed amortization, leaf/non-leaf ratios)
//! match the paper's regime. See `EXPERIMENTS.md` for the full
//! correspondence argument. Scale knobs:
//!
//! * `FLAT_SCALE` — multiplies the element counts (default 1.0 =
//!   50k–450k; 10 would be 500k–4.5M).
//! * `FLAT_QUERIES` — queries per workload (default 200, the paper's
//!   count).
//! * `FLAT_RESULTS_DIR` — where CSVs are written (default
//!   `experiments-results/`).
//! * `FLAT_TAIL` — `compact` (default) or `extreme`; selects the
//!   long-element tail profile of the neuron sweep (see [`TailProfile`]).
//!
//! A malformed knob is an error ([`Scale::from_env`]), never a silent
//! default: `FLAT_SCALE=0,02` must not run the full sweep.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod figures;
pub mod indexes;
pub mod report;
pub mod runner;

use flat_geom::Aabb;

/// Long-element tail profile of the neuron sweep (see
/// `datasets::DensitySweep`). The paper's data contains both tiny dendrite
/// segments and long axonal stretches; how heavy that tail is decides
/// which fidelity trade-off the scaled-down sweep makes:
///
/// * [`TailProfile::Compact`] (default) — no extreme elements. FLAT's
///   neighbor-pointer median lands in the paper's Fig-20 range (~15–25,
///   converging as density grows) and FLAT beats the PR-tree (the paper's
///   "best R-Tree") on the SN benchmark at every density. At this scale
///   the PR-tree's priority-page overhead makes it the *worst* R-tree on
///   point queries instead of the best.
/// * [`TailProfile::Extreme`] — 0.8 % of segments are 12–28× long axonal
///   stretches. The data becomes "extreme" in the PR-tree paper's sense:
///   the PR-tree overtakes STR/Hilbert with growing density (the paper's
///   Fig-2 ordering). The cost: the stretched partitions act as crawl
///   hubs, inflating FLAT's Fig-20 median and its SN I/O.
///
/// The two profiles bracket the paper's (unavailable) testbed; see
/// EXPERIMENTS.md. Select with `FLAT_TAIL=compact|extreme`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailProfile {
    /// No long stretches (default).
    Compact,
    /// 0.8 % of segments stretched 12–28×.
    Extreme,
}

impl TailProfile {
    /// `(probability, stretch range)` for the neuron generator.
    pub fn parameters(self) -> (f64, (f64, f64)) {
        match self {
            TailProfile::Compact => (0.0, (1.0, 1.0)),
            TailProfile::Extreme => (0.008, (12.0, 28.0)),
        }
    }
}

/// Scaled experiment parameters (see the crate docs).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Element counts of the density sweep (the x-axis of most figures).
    pub densities: Vec<usize>,
    /// Queries per workload run.
    pub queries: usize,
    /// SN query volume fraction, already re-scaled for the element counts.
    pub sn_fraction: f64,
    /// LSS query volume fraction, already re-scaled.
    pub lss_fraction: f64,
    /// Base RNG seed for datasets and workloads.
    pub seed: u64,
    /// Buffer-pool capacity in pages while *querying* (caches are cleared
    /// before every query anyway; the pool just has to hold one query's
    /// working set).
    pub pool_pages: usize,
    /// Long-element tail profile of the neuron sweep.
    pub tail: TailProfile,
}

impl Scale {
    /// The default 1/1000-scale configuration.
    pub fn default_scale() -> Scale {
        Scale::with_factor(1.0)
    }

    /// A configuration with element counts multiplied by `factor` relative
    /// to the default 50k–450k sweep. Query volumes are adjusted to keep
    /// per-query result sizes at the paper's level (≈225 elements for SN,
    /// ≈225·10³·`factor` for LSS at max density).
    pub fn with_factor(factor: f64) -> Scale {
        assert!(factor > 0.0, "scale factor must be positive");
        let densities: Vec<usize> = (1..=9)
            .map(|i| ((i * 50_000) as f64 * factor) as usize)
            .collect();
        // The paper's fractions apply to 450 M elements; ours hold
        // 450 k · factor, so multiply the volume by the element-count
        // ratio to preserve expected results per query. The LSS fraction
        // is capped: a query can't exceed the domain.
        let ratio = 450e6 / (450_000.0 * factor);
        Scale {
            densities,
            queries: flat_data::workload::QUERIES_PER_RUN,
            sn_fraction: flat_data::workload::SN_VOLUME_FRACTION * ratio,
            lss_fraction: (flat_data::workload::LSS_VOLUME_FRACTION * ratio).min(0.05),
            seed: 42,
            pool_pages: 1 << 17,
            tail: TailProfile::Compact,
        }
    }

    /// Reads `FLAT_SCALE` / `FLAT_QUERIES` / `FLAT_TAIL` from the
    /// environment. A factor that is not a finite positive number, a
    /// query count that is not a non-negative integer, or an unknown tail
    /// profile is an error naming the knob; an unset knob keeps its
    /// default.
    pub fn from_env() -> Result<Scale, String> {
        let var = |name| std::env::var(name).ok();
        Scale::parse(
            var("FLAT_SCALE").as_deref(),
            var("FLAT_QUERIES").as_deref(),
            var("FLAT_TAIL").as_deref(),
        )
    }

    /// [`Scale::from_env`] over the knobs' values (`None` = unset).
    fn parse(
        factor: Option<&str>,
        queries: Option<&str>,
        tail: Option<&str>,
    ) -> Result<Scale, String> {
        let factor = match factor {
            None => 1.0,
            Some(v) => match v.trim().parse::<f64>() {
                Ok(f) if f.is_finite() && f > 0.0 => f,
                _ => return Err(format!("FLAT_SCALE={v:?} is not a positive number")),
            },
        };
        let mut scale = Scale::with_factor(factor);
        if let Some(v) = queries {
            scale.queries = v
                .trim()
                .parse()
                .map_err(|_| format!("FLAT_QUERIES={v:?} is not a query count"))?;
        }
        scale.tail = match tail {
            None | Some("compact" | "light") => TailProfile::Compact,
            Some("extreme" | "heavy") => TailProfile::Extreme,
            Some(v) => return Err(format!("FLAT_TAIL={v:?} is not compact or extreme")),
        };
        Ok(scale)
    }

    /// A tiny configuration for the crate's own tests (3 densities,
    /// 20 queries).
    pub fn smoke() -> Scale {
        let mut scale = Scale::with_factor(0.1);
        scale.densities = vec![5_000, 10_000, 15_000];
        scale.queries = 20;
        scale
    }

    /// Maximum density of the sweep.
    pub fn max_density(&self) -> usize {
        *self.densities.last().expect("densities is non-empty")
    }

    /// The density label used in figure tables, matching the paper's axis
    /// ("Density [Million Elements per 285µm³]" — here in thousands).
    pub fn density_label(&self, elements: usize) -> String {
        format!("{}k", elements / 1000)
    }

    /// SN workload over `domain`.
    pub fn sn_workload(&self, domain: &Aabb) -> Vec<Aabb> {
        let config = flat_data::workload::WorkloadConfig {
            count: self.queries,
            volume_fraction: self.sn_fraction,
            proportion_range: (1.0, 4.0),
            seed: self.seed ^ 0x535f_5348,
        };
        flat_data::workload::range_queries(domain, &config)
    }

    /// LSS workload over `domain`.
    pub fn lss_workload(&self, domain: &Aabb) -> Vec<Aabb> {
        let config = flat_data::workload::WorkloadConfig {
            count: self.queries,
            volume_fraction: self.lss_fraction,
            proportion_range: (1.0, 4.0),
            seed: self.seed ^ 0x4c53_5353,
        };
        flat_data::workload::range_queries(domain, &config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_matches_the_paper_axis() {
        let s = Scale::default_scale();
        assert_eq!(s.densities.len(), 9);
        assert_eq!(s.densities[0], 50_000);
        assert_eq!(s.max_density(), 450_000);
        assert_eq!(s.queries, 200);
    }

    #[test]
    fn query_volumes_rescale_inversely_with_elements() {
        let small = Scale::with_factor(1.0);
        let big = Scale::with_factor(10.0);
        assert!(small.sn_fraction > big.sn_fraction);
        // Expected results per query stay constant: fraction × max elements.
        let r_small = small.sn_fraction * small.max_density() as f64;
        let r_big = big.sn_fraction * big.max_density() as f64;
        assert!((r_small - r_big).abs() < 1e-6);
    }

    #[test]
    fn lss_fraction_is_capped() {
        let s = Scale::with_factor(0.001);
        assert!(s.lss_fraction <= 0.05);
    }

    #[test]
    fn workloads_have_the_configured_size() {
        let s = Scale::smoke();
        let domain = flat_data::bbp_domain();
        assert_eq!(s.sn_workload(&domain).len(), 20);
        assert_eq!(s.lss_workload(&domain).len(), 20);
    }

    #[test]
    fn env_knobs_parse_or_fail_naming_the_knob() {
        let s = Scale::parse(Some("0.02"), Some("20"), Some("extreme")).unwrap();
        assert_eq!(s.densities, Scale::with_factor(0.02).densities);
        assert_eq!(s.queries, 20);
        assert_eq!(s.tail, TailProfile::Extreme);
        let unset = Scale::parse(None, None, None).unwrap();
        assert_eq!(unset.max_density(), 450_000);
        assert_eq!(unset.tail, TailProfile::Compact);
        for bad in ["0,02", "", "0", "-1", "NaN", "inf", "1e400"] {
            let err = Scale::parse(Some(bad), None, None).unwrap_err();
            assert!(err.starts_with("FLAT_SCALE="), "{bad:?}: {err}");
        }
        for bad in ["-3", "2.5", "many"] {
            let err = Scale::parse(None, Some(bad), None).unwrap_err();
            assert!(err.starts_with("FLAT_QUERIES="), "{bad:?}: {err}");
        }
        let err = Scale::parse(None, None, Some("heavyish")).unwrap_err();
        assert!(err.starts_with("FLAT_TAIL="), "{err}");
    }

    #[test]
    fn density_labels_are_readable() {
        let s = Scale::default_scale();
        assert_eq!(s.density_label(50_000), "50k");
    }
}
