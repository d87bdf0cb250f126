//! Order statistics over latency samples and run sets.

/// Sorts `samples` ascending (NaN-free by construction: all samples are
/// measured durations or counts).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// The `p`-quantile (0 ≤ p ≤ 1) of an ascending slice by linear
/// interpolation between closest ranks; `0.0` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of an unsorted sample set (sorts a copy).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    quantile_sorted(&sorted, 0.5)
}

/// The `p`-quantile of an unsorted sample set (sorts a copy).
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    quantile_sorted(&sorted, p)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the estimator the acceptance
/// driver uses for run-to-run spread, reproduced so `compare` judges
/// spread the same way. Needs at least two values.
pub fn quartiles_exclusive(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let cut = |i: usize| {
        // Python: j = i*m // n, delta = i*m - j*n with m = len + 1,
        // clamped to the data range.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (`None` below two
/// samples or for a zero median).
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles_exclusive(samples)?;
    let mid = median(samples);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles_exclusive(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles_exclusive(&[1.0]), None);
        assert_eq!(relative_spread(&v), Some(1.0));
    }
}
