//! The bulkload unspilled vs spilling: build time, peak resident
//! entries/partitions, and spill volume at increasing N.
use flat_bench::figures::{build_scale, Context};
use flat_bench::Scale;

fn main() {
    build_scale::exp_build_scale(&Context::new(Scale::from_env())).emit();
}
