//! The benchmark's own arithmetic: percentiles, medians and ratios.
//!
//! Every ratio goes through [`ratio`], which yields `None` ("n/a") when
//! its base is zero or not finite, so no NaN or infinity reaches a
//! report.

/// The `p`-quantile (`p` in `[0, 1]`) of `values`, which need not be
/// sorted; `None` when `values` is empty.
///
/// Parzen's mid-quantile: the quantile function interpolated linearly
/// between the distinct values at their mid-distribution points
/// `(samples below + half the samples equal) / n`. On distinct samples
/// this is plain linear interpolation; on the quantised latencies a
/// deterministic device model produces (whole numbers of equal-sized
/// reads) it moves smoothly with the share of each value instead of
/// sticking to one of them.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    // (value, mid-distribution point) per distinct value.
    let mut mids: Vec<(f64, f64)> = Vec::new();
    let mut below = 0usize;
    for run in sorted.chunk_by(|a, b| a == b) {
        mids.push((run[0], (below as f64 + run.len() as f64 / 2.0) / n));
        below += run.len();
    }
    let u = p.clamp(0.0, 1.0);
    let j = mids.partition_point(|&(_, m)| m <= u);
    Some(match j {
        0 => mids[0].0,
        j if j == mids.len() => mids[j - 1].0,
        j => {
            let ((v0, m0), (v1, m1)) = (mids[j - 1], mids[j]);
            v0 + (u - m0) / (m1 - m0) * (v1 - v0)
        }
    })
}

/// 1-based rank of the `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond rank `ceil(p·n)` of `n` samples. A tail
/// percentile is only reported as measured when this is >= 10.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// `num / den`, or `None` ("n/a") when the base is zero or either side
/// is not finite.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    if den == 0.0 || !den.is_finite() || !num.is_finite() {
        None
    } else {
        Some(num / den)
    }
}

/// A ratio rendered for humans: three significant decimals or `n/a`.
pub fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.6}"),
        None => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_1000_samples_leaves_ten_beyond() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&values, 0.99).unwrap();
        assert!((p99 - 990.5).abs() < 1e-9, "{p99}");
        assert_eq!(samples_beyond(values.len(), 0.99), 10);
        assert_eq!(values.iter().filter(|&&v| v > p99).count(), 10);
        // Fewer samples cannot support a p99 with ten beyond it.
        assert!(samples_beyond(999, 0.99) < 10);
        assert!((percentile(&values, 0.5).unwrap() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 1.0), Some(3.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn quantised_samples_give_a_smooth_percentile() {
        // 60% at 1.0 and 40% at 2.0: mid points 0.3 and 0.8.
        let mut v = vec![1.0; 60];
        v.extend(vec![2.0; 40]);
        assert!((percentile(&v, 0.5).unwrap() - 1.4).abs() < 1e-12);
        // A slightly different mix moves the median slightly.
        let mut w = vec![1.0; 62];
        w.extend(vec![2.0; 38]);
        let m = percentile(&w, 0.5).unwrap();
        assert!(m > 1.3 && m < 1.4, "{m}");
        // Below the first and above the last mid point: the extremes.
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&v, 0.95), Some(2.0));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn zero_base_is_not_applicable() {
        assert_eq!(ratio(1.0, 0.0), None);
        assert_eq!(ratio(0.0, 0.0), None);
        assert_eq!(ratio(1.0, f64::NAN), None);
        assert_eq!(ratio(f64::INFINITY, 1.0), None);
        assert_eq!(ratio(3.0, 4.0), Some(0.75));
        assert_eq!(fmt_opt(ratio(1.0, 0.0)), "n/a");
        assert_eq!(fmt_opt(Some(0.5)), "0.500000");
    }
}
