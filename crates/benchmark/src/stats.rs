//! Order statistics for job timings and run sets.

/// A tail percentile must leave at least this many samples beyond it, so
/// that one slow job cannot set it alone.
pub const TAIL_BEYOND: usize = 10;

/// Median of the samples (mean of the middle two for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads computed here and by a script over the same values agree.
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Distance between the quartiles; `0.0` for fewer than two samples.
pub fn iqr(xs: &[f64]) -> f64 {
    quartiles(xs).map_or(0.0, |(q1, q3)| q3 - q1)
}

/// The highest nearest-rank percentile of a sample set that leaves at
/// least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
}

/// [`Tail`] of the samples, or `None` when there are too few of them to
/// leave [`TAIL_BEYOND`] beyond any rank.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    // Nearest rank r (1-based) holds percentile 100·r/n; the highest rank
    // with TAIL_BEYOND samples after it is n − TAIL_BEYOND.
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        beyond: n - rank,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// Reference values from CPython's `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        // Two samples extrapolate, exactly as CPython does.
        assert_eq!(quartiles(&[5.0, 1.0]), Some((0.0, 6.0)));
        assert_eq!(quartiles(&[7.0]), None);
        assert_eq!(iqr(&ten), 5.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);

        let eighty: Vec<f64> = (1..=80).rev().map(f64::from).collect();
        let t = tail(&eighty).unwrap();
        assert_eq!(t.percentile, 87.5);
        assert_eq!(t.value, 70.0);
        assert_eq!(t.beyond, 10);

        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).unwrap().value, 1.0);
        assert_eq!(tail(&eleven[..10]), None);
    }
}
