//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is a median or a tail percentile
//! of many samples, printed beside its sample count. The tail is the
//! higher of p99 and p90 that still has at least ten samples beyond it,
//! so a p99 is only ever claimed from ≥ 1000 samples; under 100 samples
//! the tail falls back to the median.

/// Percentiles a tail may be reported at, in per mille, highest first.
const TAIL_LADDER: [usize; 2] = [990, 900];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest rank (1-based) of per-mille percentile `permille` in `n`
/// samples: the smallest rank with at least that share of samples at
/// or below it. Integer arithmetic, so p90 of 100 samples is rank 90.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The value at per-mille percentile `permille` (1..=1000) by the
/// nearest-rank method; `None` on an empty set.
pub fn percentile(xs: &[f64], permille: usize) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    Some(v[rank(v.len(), permille) - 1])
}

/// The median (mean of the two middle samples for an even count);
/// `None` on an empty set.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so the spreads printed here match ones computed in Python.
/// `None` with fewer than one sample; one sample repeats thrice.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => return None,
        1 => return Some((v[0], v[0], v[0])),
        _ => {}
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median (the benchmark's
/// run-to-run spread measure); `None` when undefined.
pub fn relative_iqr(xs: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The tail of `xs`: `(value, percentile)` at the highest ladder
/// percentile with at least ten samples beyond it, or the median (as
/// percentile 50) when even p90 has fewer than ten beyond it. `None` on
/// an empty set.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    match TAIL_LADDER.into_iter().find(|&p| n > 0 && n - rank(n, p) >= TAIL_BEYOND) {
        Some(p) => percentile(xs, p).map(|v| (v, p as f64 / 10.0)),
        None => median(xs).map(|m| (m, 50.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 3.0, 4.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = relative_iqr(&xs).unwrap();
        assert!((r - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0]), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 500), Some(50.0));
        assert_eq!(percentile(&xs, 900), Some(90.0));
        assert_eq!(percentile(&xs, 990), Some(99.0));
        assert_eq!(percentile(&xs, 1000), Some(100.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // Under 100 samples p90 has fewer than 10 beyond it: the median.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), Some((10.0, 50.0)));
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 50.0)));
        // 100 samples: exactly 10 beyond p90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        // 1000 samples and more: p99, the top of the ladder.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((990.0, 99.0)));
        let xs: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99_000.0, 99.0)));
        assert_eq!(tail(&[]), None);
    }
}
