//! Sort-Tile-Recursive packing (Leutenegger, Lopez & Edgington \[16\]).
//!
//! For `n` rectangles and capacity `c`, STR computes the page count
//! `P = ⌈n/c⌉` and the per-dimension slice count `s = ⌈P^(1/3)⌉`, then:
//!
//! 1. sorts by the x coordinate of the MBR centers and cuts the sequence
//!    into `s` vertical *slabs* of `s²·c` rectangles,
//! 2. sorts each slab by y and cuts it into `s` *runs* of `s·c`,
//! 3. sorts each run by z and chops it into pages of `c`.
//!
//! FLAT's Algorithm 1 sorts and cuts along the same three axes, but it
//! does not run through this module: `flat_core::partition` tiles it. Its
//! slabs hold `⌈n/pn⌉` elements for `pn = ⌈P^(1/3)⌉` and its runs
//! `⌈slab/pn⌉`, where STR fills slabs of `s²·c` and runs of `s·c` and
//! leaves the last of each short. It also cuts a plane midway between
//! the adjacent centers at every boundary, so its tiles cover the whole
//! domain — the "no empty space" invariant the crawl needs, which the
//! node MBRs of an STR R-tree do not have.

use super::div_ceil;
use crate::Entry;
use flat_geom::Axis;

/// Packs `items` into runs of at most `cap` — tiles, in x→y→z traversal
/// order (callers guarantee `items.len() > cap > 0`).
pub(super) fn pack(mut items: Vec<Entry>, cap: usize) -> Vec<Vec<Entry>> {
    let pages = div_ceil(items.len(), cap);
    let mut out = Vec::with_capacity(pages);
    let s = (pages as f64).cbrt().ceil() as usize;
    let slab_size = s * s * cap; // elements per x-slab
    let run_size = s * cap; // elements per y-run

    sort_by_center(&mut items, Axis::X);
    for slab in take_chunks(items, slab_size) {
        let mut slab = slab;
        sort_by_center(&mut slab, Axis::Y);
        for run in take_chunks(slab, run_size) {
            let mut run = run;
            sort_by_center(&mut run, Axis::Z);
            out.extend(take_chunks(run, cap));
        }
    }
    out
}

/// Sorts by the MBR center along `axis`. Ties are broken by id so packing
/// is fully deterministic.
fn sort_by_center(items: &mut [Entry], axis: Axis) {
    items.sort_by(|a, b| {
        a.mbr
            .center()
            .coord(axis)
            .total_cmp(&b.mbr.center().coord(axis))
            .then_with(|| a.id.cmp(&b.id))
    });
}

/// Consumes `items` into owned chunks of `size` (the last may be shorter).
fn take_chunks(items: Vec<Entry>, size: usize) -> Vec<Vec<Entry>> {
    let mut chunks = Vec::with_capacity(div_ceil(items.len(), size));
    let mut iter = items.into_iter();
    loop {
        let chunk: Vec<Entry> = iter.by_ref().take(size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::random_entries;
    use flat_geom::{Aabb, Point3};

    #[test]
    fn uses_minimal_number_of_pages() {
        for n in [86, 300, 1000, 12345] {
            let runs = pack(random_entries(n, 1), 85);
            assert_eq!(runs.len(), n.div_ceil(85), "n = {n}");
        }
    }

    #[test]
    fn tiles_do_not_interleave_much() {
        // STR on a uniform grid must produce tiles whose MBRs have low
        // total pairwise overlap volume — the reason it beats Hilbert
        // packing in the paper's experiments. On an exact grid the overlap
        // must be zero (tiles share at most faces).
        let mut items = Vec::new();
        let mut id = 0;
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    items.push(Entry::new(
                        id,
                        Aabb::point(Point3::new(x as f64, y as f64, z as f64)),
                    ));
                    id += 1;
                }
            }
        }
        let runs = pack(items, 8); // 64 pages of 8 → s = 4 slices per dim
        let mbrs: Vec<Aabb> = runs
            .iter()
            .map(|r| Aabb::union_all(r.iter().map(|e| e.mbr)))
            .collect();
        let mut overlap_volume = 0.0;
        for i in 0..mbrs.len() {
            for j in i + 1..mbrs.len() {
                if let Some(common) = mbrs[i].intersection(&mbrs[j]) {
                    overlap_volume += common.volume();
                }
            }
        }
        assert_eq!(overlap_volume, 0.0, "grid tiles must not overlap");
    }

    #[test]
    fn deterministic_given_equal_coordinates() {
        // All-identical centers: the id tiebreak makes packing stable.
        let items: Vec<Entry> = (0..100)
            .map(|i| Entry::new(i, Aabb::cube(Point3::splat(1.0), 1.0)))
            .collect();
        let a = pack(items.clone(), 10);
        let b = pack(items, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn take_chunks_covers_all_items() {
        let items = random_entries(103, 9);
        let chunks = take_chunks(items.clone(), 10);
        assert_eq!(chunks.len(), 11);
        assert_eq!(chunks.last().unwrap().len(), 3);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, items.len());
    }
}
