//! Workload execution and aggregation: the paper's cold-cache protocol
//! ([`run_workload`]).

use crate::indexes::BuiltIndex;
use flat_geom::Aabb;
use flat_storage::{IoStats, PageKind};
use std::time::Duration;

/// Aggregated outcome of running a workload against one index.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// Number of queries executed.
    pub queries: usize,
    /// Total result elements over all queries.
    pub results: u64,
    /// Accumulated physical I/O (per page kind).
    pub io: IoStats,
    /// Total CPU time spent evaluating queries.
    pub cpu_time: Duration,
    /// Simulated disk time: the physical reads priced at a fixed cost per
    /// read.
    pub io_time: Duration,
}

impl WorkloadOutcome {
    /// Total physical page reads — the paper's headline metric.
    pub fn page_reads(&self) -> u64 {
        self.io.total_physical_reads()
    }

    /// Physical page reads per result element (Figures 3, 15, 19).
    pub fn reads_per_result(&self) -> f64 {
        if self.results == 0 {
            0.0
        } else {
            self.page_reads() as f64 / self.results as f64
        }
    }

    /// Bytes physically read (Figures 4, 14, 18).
    pub fn bytes_read(&self) -> u64 {
        self.io.physical_bytes_read()
    }

    /// Bytes physically read for one page kind.
    pub fn bytes_read_of(&self, kind: PageKind) -> u64 {
        self.io.physical_bytes_read_of(kind)
    }

    /// Result-set size in bytes under the paper's 48-byte MBR encoding.
    pub fn result_bytes(&self) -> u64 {
        self.results * 48
    }

    /// Total simulated execution time: disk time plus measured CPU time
    /// (the paper measures a 97.8–98.8 % disk share, §VII-E.2).
    pub fn total_time(&self) -> Duration {
        self.io_time + self.cpu_time
    }

    /// The simulated fraction of time spent on disk I/O.
    pub fn disk_share(&self) -> f64 {
        let total = self.total_time().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.io_time.as_secs_f64() / total
        }
    }
}

/// Runs `queries` against `index` under the paper's protocol (cold cache
/// per query) and aggregates the outcome, pricing each physical page read
/// at `read_cost_us` microseconds.
pub fn run_workload(index: &BuiltIndex, queries: &[Aabb], read_cost_us: f64) -> WorkloadOutcome {
    let mut io = IoStats::new();
    let mut results = 0u64;
    let mut cpu_time = Duration::ZERO;
    for query in queries {
        let (n, delta, cpu) = index.query(query);
        results += n as u64;
        cpu_time += cpu;
        io.accumulate(&delta);
    }
    let io_time = Duration::from_secs_f64(io.total_physical_reads() as f64 * read_cost_us / 1e6);
    WorkloadOutcome {
        queries: queries.len(),
        results,
        io,
        cpu_time,
        io_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::analysis::{SAS_10K_US, SATA_7200_US, SSD_US};
    use crate::indexes::IndexKind;
    use flat_data::uniform::{uniform_entries, UniformConfig};

    #[test]
    fn outcome_aggregates_queries() {
        let config = UniformConfig::paper_baseline(10_000, 5);
        let entries = uniform_entries(&config);
        let index = BuiltIndex::build(IndexKind::Flat, entries, config.domain, 1 << 16);
        let queries: Vec<Aabb> = (0..5)
            .map(|i| Aabb::cube(config.domain.center(), 100.0 + i as f64 * 50.0))
            .collect();
        let outcome = run_workload(&index, &queries, SAS_10K_US);
        assert_eq!(outcome.queries, 5);
        assert!(outcome.results > 0);
        assert!(outcome.page_reads() > 0);
        assert!(outcome.reads_per_result() > 0.0);
        assert_eq!(outcome.result_bytes(), outcome.results * 48);
        assert!(outcome.io_time > Duration::ZERO);
        assert!(outcome.disk_share() > 0.5, "simulated I/O should dominate");
    }

    #[test]
    fn empty_workload_is_zeroes() {
        let config = UniformConfig::paper_baseline(1_000, 5);
        let entries = uniform_entries(&config);
        let index = BuiltIndex::build(IndexKind::Str, entries, config.domain, 1 << 16);
        let outcome = run_workload(&index, &[], SAS_10K_US);
        assert_eq!(outcome.queries, 0);
        assert_eq!(outcome.page_reads(), 0);
        assert_eq!(outcome.reads_per_result(), 0.0);
    }

    #[test]
    fn io_time_prices_physical_reads_exactly() {
        let config = UniformConfig::paper_baseline(10_000, 7);
        let entries = uniform_entries(&config);
        let index = BuiltIndex::build(IndexKind::Flat, entries, config.domain, 1 << 16);
        let queries: Vec<Aabb> = (0..4)
            .map(|i| Aabb::cube(config.domain.center(), 120.0 + i as f64 * 60.0))
            .collect();
        // Each device's positioning + transfer time per read, priced as
        // reads × cost / 10⁶ seconds: the figures' I/O-time cells.
        for (cost_us, positioning_us, transfer_us) in [
            (SAS_10K_US, 7000.0, 40.0),
            (SATA_7200_US, 12700.0, 50.0),
            (SSD_US, 60.0, 10.0),
        ] {
            let outcome = run_workload(&index, &queries, cost_us);
            let reads = outcome.io.total_physical_reads();
            assert!(reads > 0);
            let expected = reads as f64 * (positioning_us + transfer_us) / 1e6;
            assert_eq!(outcome.io_time, Duration::from_secs_f64(expected));
        }
    }
}
