//! Timing a call, and order statistics over small samples of timings.

use std::time::Instant;

/// Sorted copy; timings are finite, so a total order exists.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Seconds `f` took, and what it returned.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// `NaN` for an empty sample.
pub fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// Median with the two middle values averaged for an even count, as
/// Python's `statistics.median`. `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. Always an observed value, so `p95` of
/// 240 samples is the 228th smallest and leaves 12 beyond it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method) gives them — the rule the driver
/// applies to ten runs. Needs two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // Position k * (n + 1) / 4, 1-based, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p95_of_240_leaves_12_beyond() {
        let xs: Vec<f64> = (1..=240).rev().map(f64::from).collect();
        let p95 = percentile(&xs, 95.0);
        assert_eq!(p95, 228.0);
        assert_eq!(xs.iter().filter(|x| **x > p95).count(), 12);
        assert_eq!(percentile(&xs, 50.0), 120.0);
        assert_eq!(percentile(&xs, 100.0), 240.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    /// `statistics.quantiles([1..10], n=4)` is `[2.75, 5.5, 8.25]`, and
    /// `statistics.quantiles([1, 2, 4, 8], n=4)` is `[1.25, 3.0, 7.0]`.
    #[test]
    fn quartiles_match_python() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
    }
}
