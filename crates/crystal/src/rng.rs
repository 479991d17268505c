//! The workspace's seeded pseudo-random generator: a splitmix64 stream
//! (Steele, Lea, Flood 2014). A seed fixes every generated workload,
//! sample and shuffle, which is what lets tests and the benchmark pin F1
//! scores and counts to exact values.

use crate::fault::{splitmix64, unit_fraction};
use std::ops::{Range, RangeInclusive};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    state: u64,
}

impl StdRng {
    pub fn seed_from_u64(seed: u64) -> Self {
        StdRng { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        unit_fraction(self.next_u64())
    }

    /// Uniform in `low..high` or `low..=high`; panics on an empty range.
    #[inline]
    pub fn gen_range<T: SampleUniform>(&mut self, range: impl SampleRange<T>) -> T {
        let (low, high, inclusive) = range.bounds();
        T::sample_between(self, low, high, inclusive)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.gen_range(0..=i));
        }
    }

    /// `amount` distinct indices from `0..length`, in random order (the
    /// first `amount` steps of a Fisher–Yates shuffle).
    pub fn sample_indices(&mut self, length: usize, amount: usize) -> Vec<usize> {
        assert!(amount <= length, "sample_indices: amount exceeds length");
        let mut idx: Vec<usize> = (0..length).collect();
        for i in 0..amount {
            idx.swap(i, self.gen_range(i..length));
        }
        idx.truncate(amount);
        idx
    }
}

/// Types [`StdRng::gen_range`] can produce.
pub trait SampleUniform: Sized {
    fn sample_between(rng: &mut StdRng, low: Self, high: Self, inclusive: bool) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_between(rng: &mut StdRng, low: $t, high: $t, inclusive: bool) -> $t {
                // Width of the range as u128, so `i64::MIN..=i64::MAX` fits.
                let span = (high as i128 - low as i128) as u128 + inclusive as u128;
                assert!(span > 0, "gen_range: empty range");
                // Multiply-shift: maps 64 random bits onto 0..span.
                let off = (rng.next_u64() as u128 * span) >> 64;
                (low as i128 + off as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_between(rng: &mut StdRng, low: f64, high: f64, _inclusive: bool) -> f64 {
        assert!(low < high, "gen_range: empty range");
        low + (high - low) * rng.gen_f64()
    }
}

/// `low..high` and `low..=high`, as `(low, high, inclusive)`.
pub trait SampleRange<T> {
    fn bounds(self) -> (T, T, bool);
}

impl<T> SampleRange<T> for Range<T> {
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T> SampleRange<T> for RangeInclusive<T> {
    fn bounds(self) -> (T, T, bool) {
        let (low, high) = self.into_inner();
        (low, high, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first outputs for seed 42, computed once: every generated
    /// workload and pinned F1 in the repository hangs off this stream.
    #[test]
    fn stream_is_pinned() {
        let mut r = StdRng::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(a.gen_f64(), b.gen_f64());
        assert_ne!(a.next_u64(), StdRng::seed_from_u64(8).next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut r = StdRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.gen_range(0..5usize)] = true;
            assert!((2..=4).contains(&r.gen_range(2..=4usize)));
            assert!((0.8..1.2).contains(&r.gen_range(0.8..1.2)));
            assert!((0.0..1.0).contains(&r.gen_f64()));
            let i: i64 = 10 + r.gen_range(1..100);
            assert!((11..110).contains(&i));
        }
        assert!(seen.iter().all(|s| *s));
        assert_eq!(r.gen_range(i64::MIN..=i64::MIN), i64::MIN);
    }

    #[test]
    fn shuffle_permutes_and_sample_is_distinct() {
        let mut r = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());

        let mut s = r.sample_indices(50, 20);
        assert_eq!(s.len(), 20);
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 20);
        assert!(s.iter().all(|i| *i < 50));
    }
}
