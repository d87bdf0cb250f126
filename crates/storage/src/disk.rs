//! Simulated disk time model.
//!
//! The paper reports query *execution time* measured on a 4-disk 10 kRPM SAS
//! array (§VII-A) and observes that 97.8–98.8 % of it is disk time
//! (§VII-E.2) — i.e. the time curves (Figures 13 and 17) are the page-read
//! curves (Figures 12 and 16) scaled by the device's per-read cost. We make
//! that relationship explicit: a [`DiskModel`] converts physical read counts
//! into simulated I/O time, so the time figures can be regenerated
//! deterministically on any machine.

use crate::IoStats;
use std::time::Duration;

/// A simple rotational-disk cost model: each physical page read pays an
/// average positioning cost (seek + rotational latency) plus the transfer
/// time of one 4 KB page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average positioning cost per random read, in microseconds.
    pub positioning_us: f64,
    /// Transfer time of a single 4 KB page, in microseconds.
    pub transfer_us: f64,
}

impl DiskModel {
    /// A 10 000 RPM SAS disk like the paper's testbed: ≈4 ms average seek,
    /// 3 ms average rotational latency (half a revolution at 10 kRPM), and
    /// ≈100 MB/s media rate (40 µs per 4 KB page).
    pub fn sas_10k() -> DiskModel {
        DiskModel {
            positioning_us: 7000.0,
            transfer_us: 40.0,
        }
    }

    /// A commodity 7 200 RPM SATA disk (≈8.5 ms seek + 4.2 ms latency,
    /// ≈80 MB/s media rate).
    pub fn sata_7200() -> DiskModel {
        DiskModel {
            positioning_us: 12700.0,
            transfer_us: 50.0,
        }
    }

    /// A SATA SSD (no positioning cost to speak of; ≈70 µs per 4 KB random
    /// read). Included for the ablation study: FLAT's advantage shrinks as
    /// positioning cost shrinks, but the page-read counts are unchanged.
    pub fn ssd() -> DiskModel {
        DiskModel {
            positioning_us: 60.0,
            transfer_us: 10.0,
        }
    }

    /// Cost of `reads` random page reads, in microseconds.
    pub fn cost_us(&self, reads: u64) -> f64 {
        reads as f64 * (self.positioning_us + self.transfer_us)
    }

    /// Simulated I/O time for the physical reads recorded in `stats` (the
    /// paper's page-reads metric).
    pub fn io_time(&self, stats: &IoStats) -> Duration {
        Duration::from_secs_f64(self.cost_us(stats.total_physical_reads()) / 1e6)
    }

    /// Simulated I/O time for an explicit read count.
    pub fn io_time_for_reads(&self, reads: u64) -> Duration {
        Duration::from_secs_f64(self.cost_us(reads) / 1e6)
    }
}

impl Default for DiskModel {
    /// The paper's device.
    fn default() -> Self {
        DiskModel::sas_10k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferPool, MemStore, Page, PageKind, PageStore};

    #[test]
    fn cost_is_linear_in_reads() {
        let m = DiskModel::sas_10k();
        assert_eq!(m.cost_us(0), 0.0);
        assert_eq!(m.cost_us(10), 10.0 * m.cost_us(1));
    }

    #[test]
    fn device_ordering_matches_physics() {
        // Per-read cost: SSD < SAS 10k < SATA 7.2k.
        assert!(DiskModel::ssd().cost_us(1) < DiskModel::sas_10k().cost_us(1));
        assert!(DiskModel::sas_10k().cost_us(1) < DiskModel::sata_7200().cost_us(1));
    }

    #[test]
    fn io_time_uses_physical_not_logical_reads() {
        let mut store = MemStore::new();
        let id = store.alloc().unwrap();
        store.write_page(id, &Page::new()).unwrap();
        let mut pool = BufferPool::new(store, 4);
        pool.read(id, PageKind::Other).unwrap();
        pool.read(id, PageKind::Other).unwrap(); // cache hit
        let m = DiskModel::sas_10k();
        assert_eq!(m.io_time(&pool.stats()), m.io_time_for_reads(1));
    }

    #[test]
    fn default_is_the_papers_device() {
        assert_eq!(DiskModel::default(), DiskModel::sas_10k());
    }
}
