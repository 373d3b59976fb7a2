//! Order statistics used by the benchmark: nearest-rank percentiles for
//! within-block latencies, the quiet-decile estimator across blocks, and
//! the quartiles `compare` reports (matching Python's
//! `statistics.quantiles(values, n=4)`, which is what the acceptance check
//! computes).

/// Which direction of a metric is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative when `new` is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile: the smallest value with at least `p` percent of
/// the sample at or below it. `p` in `(0, 100]`; an empty sample reads 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The quiet-decile estimator: the value at rank `ceil(n / 10)` counted
/// from the good side of the `n` per-block values.
///
/// On a shared sandbox the noise is one-sided — a neighbour only ever slows
/// a block down — and lasts for minutes, so a run's median block drifts
/// with the machine while its best decile stays put. Rank `ceil(n/10)`
/// instead of the single best block keeps one lucky outlier from setting
/// the number.
pub fn quiet_decile(values: &[f64], better: Better) -> f64 {
    let mut v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    if better == Better::Higher {
        v.reverse();
    }
    v[v.len().div_ceil(10) - 1]
}

/// `[q1, q2, q3]` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. Fewer than two values repeat the
/// single value (Python raises there; a one-run result set still prints).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread the
/// acceptance check holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 10.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // 200 samples: p95 leaves exactly ten beyond it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_decile_counts_from_the_good_side() {
        let v: Vec<f64> = (1..=24).map(f64::from).collect();
        // ceil(24 / 10) = 3: third best.
        assert_eq!(quiet_decile(&v, Better::Lower), 3.0);
        assert_eq!(quiet_decile(&v, Better::Higher), 22.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quiet_decile(&v, Better::Lower), 1.0);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quiet_decile(&v, Better::Lower), 2.0);
        assert_eq!(quiet_decile(&[5.0], Better::Higher), 5.0);
    }

    #[test]
    fn quiet_decile_ignores_slow_blocks() {
        let mut v = vec![1.0; 20];
        for slow in v.iter_mut().skip(5) {
            *slow = 9.0;
        }
        assert_eq!(quiet_decile(&v, Better::Lower), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0]), [3.0; 3]);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 11.0) < 0.0);
    }
}
