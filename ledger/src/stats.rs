//! Order statistics used by every metric: medians and percentiles inside
//! a run, quartile distances across runs.

/// Sort a copy of `values` ascending (the inputs are finite by
/// construction; a NaN would be a harness bug and sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` for an empty slice, so a missing phase fails the finite gate.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q` of the samples at or below it. `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The share of samples taken to be undisturbed. On the reference host a
/// neighbour slows whole stretches of a run by a quarter, for a second or
/// for minutes; it never speeds one up. The tenth fastest of a hundred
/// samples still reads the same when two thirds of them were disturbed,
/// where their median moved by 24%.
const QUIET_SHARE: f64 = 0.1;

/// The time a quiet host produces: the nearest-rank 10th percentile.
pub fn quiet_time(values: &[f64]) -> f64 {
    percentile(&sorted(values), QUIET_SHARE)
}

/// The rate a quiet host produces: the nearest-rank 90th percentile.
pub fn quiet_rate(values: &[f64]) -> f64 {
    percentile(&sorted(values), 1.0 - QUIET_SHARE)
}

/// Samples strictly beyond the nearest-rank `q` percentile — the count
/// the choosing-metrics guide wants to be at least ten.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub((q * n as f64).ceil() as usize)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the driver measures run-to-run spread with that function, so the A/A
/// check does too. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Quartile distance as a share of the median: the spread figure the
/// driver compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(samples_beyond(5000, 0.9), 500);
        assert_eq!(samples_beyond(10, 0.99), 0);
        assert_eq!(samples_beyond(0, 0.9), 0);
        // Of five set-ups: the fastest; of ten rates: the second highest.
        assert_eq!(quiet_time(&[5.0, 1.0, 4.0, 2.0, 3.0]), 1.0);
        assert_eq!(quiet_time(&v), 1.0);
        assert_eq!(quiet_rate(&v), 9.0);
    }

    /// Reference values computed with Python 3:
    /// `statistics.quantiles([...], n=4)`.
    #[test]
    fn quartiles_match_python_exclusive() {
        // quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // quantiles([10, 20, 50], n=4) == [10.0, 20.0, 50.0]
        assert_eq!(quartiles(&[50.0, 10.0, 20.0]), (10.0, 50.0));
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // quantiles([3,1,4,1,5,9,2,6], n=4) == [1.25, 3.5, 5.75]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
            (1.25, 5.75)
        );
    }

    #[test]
    fn iqr_share_of_constant_is_zero() {
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0, 2.0]), 0.0);
        assert!((iqr_share(&(1..=10).map(f64::from).collect::<Vec<_>>()) - 1.0).abs() < 1e-12);
    }
}
