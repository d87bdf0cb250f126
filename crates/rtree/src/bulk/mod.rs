//! Bulk-loading (packing) strategies.
//!
//! A strategy takes a set of rectangles and groups them into *runs* of at
//! most `cap` elements; each run becomes one node page. The same strategy
//! packs the leaf level (elements) and every directory level (child
//! references), matching how the original algorithms are specified.
//!
//! Implemented strategies, in the order the paper discusses them (§II):
//!
//! * [`BulkLoad::Hilbert`] — sort by the Hilbert value of the MBR center,
//!   chop consecutive elements into pages (Kamel & Faloutsos \[12\]).
//! * [`BulkLoad::Str`] — Sort-Tile-Recursive: tile the space by sorting and
//!   slicing per dimension (Leutenegger et al. \[16\]).
//! * [`BulkLoad::PrTree`] — the Priority R-tree's pseudo-PR-tree
//!   construction: extract per-direction extreme elements into *priority*
//!   pages, median-split the rest, recurse (Arge et al. \[1\]).
//! * [`BulkLoad::Tgs`] — Top-down Greedy Split: recursively pick the
//!   axis/position split minimizing the summed surface area of the two
//!   sides (García et al. \[7\]). An extension — the paper discusses but does
//!   not benchmark it.

mod hilbert_pack;
mod prtree;
mod str_pack;
mod tgs;

use crate::Entry;

/// Selects a bulk-loading strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BulkLoad {
    /// Hilbert-curve packing \[12\].
    Hilbert,
    /// Sort-Tile-Recursive packing \[16\].
    Str,
    /// Priority R-tree packing \[1\].
    PrTree,
    /// Top-down Greedy Split packing \[7\] (extension).
    Tgs,
}

impl BulkLoad {
    /// Short display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            BulkLoad::Hilbert => "Hilbert R-Tree",
            BulkLoad::Str => "STR R-Tree",
            BulkLoad::PrTree => "PR-Tree",
            BulkLoad::Tgs => "TGS R-Tree",
        }
    }

    /// Groups `items` into runs of at most `cap` elements.
    ///
    /// Every run is non-empty, no run exceeds `cap`, and the concatenation
    /// of all runs is a permutation of the input.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub fn pack(&self, items: Vec<Entry>, cap: usize) -> Vec<Vec<Entry>> {
        assert!(cap > 0, "pack capacity must be positive");
        if items.is_empty() {
            return Vec::new();
        }
        if items.len() <= cap {
            return vec![items];
        }
        match self {
            BulkLoad::Hilbert => hilbert_pack::pack(items, cap),
            BulkLoad::Str => str_pack::pack(items, cap),
            BulkLoad::PrTree => prtree::pack(items, cap),
            BulkLoad::Tgs => tgs::pack(items, cap),
        }
    }
}

/// Integer ceiling division.
pub(crate) fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::random_entries;

    const METHODS: [BulkLoad; 4] = [
        BulkLoad::Hilbert,
        BulkLoad::Str,
        BulkLoad::PrTree,
        BulkLoad::Tgs,
    ];

    fn assert_valid_packing(method: BulkLoad, n: usize, cap: usize) {
        let items = random_entries(n, n as u64 * 31 + cap as u64);
        let runs = method.pack(items.clone(), cap);
        let mut ids: Vec<u64> = Vec::new();
        for run in &runs {
            assert!(!run.is_empty(), "{method:?}: empty run");
            assert!(
                run.len() <= cap,
                "{method:?}: run of {} > cap {cap}",
                run.len()
            );
            ids.extend(run.iter().map(|e| e.id));
        }
        ids.sort_unstable();
        let mut expected: Vec<u64> = items.iter().map(|e| e.id).collect();
        expected.sort_unstable();
        assert_eq!(
            ids, expected,
            "{method:?}: packing lost or duplicated items"
        );
    }

    #[test]
    fn packings_are_partitions_of_the_input() {
        for method in METHODS {
            for (n, cap) in [
                (1, 10),
                (10, 10),
                (11, 10),
                (100, 7),
                (1000, 85),
                (5000, 73),
            ] {
                assert_valid_packing(method, n, cap);
            }
        }
    }

    #[test]
    fn packing_is_space_efficient() {
        // Bulkloads should approach 100 % fill: no more than ~2× the
        // minimum number of runs (STR/Hilbert achieve the minimum; the
        // PR-tree and TGS trade some fill for structure).
        for method in METHODS {
            let n = 10_000;
            let cap = 85;
            let runs = method.pack(random_entries(n, 3), cap);
            let min_runs = n.div_ceil(cap);
            assert!(
                runs.len() <= 2 * min_runs,
                "{method:?} produced {} runs; minimum is {min_runs}",
                runs.len()
            );
        }
    }

    #[test]
    fn str_and_hilbert_packings_are_full() {
        // These two strategies pack every run (except possibly the last or
        // a boundary run) to capacity — that is what "fill factor … set to
        // 100%" (§VII-A) means for bulkloaded trees.
        for method in [BulkLoad::Str, BulkLoad::Hilbert] {
            let n = 10_000;
            let cap = 85;
            let runs = method.pack(random_entries(n, 5), cap);
            assert_eq!(
                runs.len(),
                n.div_ceil(cap),
                "{method:?} must use minimal pages"
            );
        }
    }

    #[test]
    fn pack_of_empty_input_is_empty() {
        for method in METHODS {
            assert!(method.pack(Vec::new(), 10).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BulkLoad::Str.pack(random_entries(10, 1), 0);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(BulkLoad::Hilbert.label(), "Hilbert R-Tree");
        assert_eq!(BulkLoad::PrTree.label(), "PR-Tree");
    }
}
