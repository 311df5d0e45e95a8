//! Order statistics over timing samples.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `xs` (any order). Quartiles follow Python's
    /// `statistics.quantiles(xs, n=4)` (the default "exclusive" method),
    /// so in-run and cross-run spreads are computed the same way. An
    /// empty sample summarizes to zeros with `n == 0`.
    pub fn of(xs: &[f64]) -> Self {
        let mut v: Vec<f64> = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Self {
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                n,
            };
        }
        if n == 1 {
            return Self {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            };
        }
        Self {
            median: median_sorted(&v),
            q1: exclusive_quantile(&v, 1),
            q3: exclusive_quantile(&v, 3),
            n,
        }
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `k`-th of the three quartile cut points (k in 1..=3), exclusive
/// method, with the same integer arithmetic as CPython's
/// `statistics.quantiles`.
fn exclusive_quantile(v: &[f64], k: i64) -> f64 {
    let ld = v.len() as i64;
    let m = ld + 1;
    let j = (k * m / 4).clamp(1, ld - 1);
    let delta = (k * m - j * 4) as f64;
    let j = j as usize;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Median of `xs` (0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).median
}

/// The `p`-th percentile (0..=100) of `sorted`, nearest-rank.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 50.0);
        assert_eq!(percentile_sorted(&xs, 99.0), 99.0);
    }
}
