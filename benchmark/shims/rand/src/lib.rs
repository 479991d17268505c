//! Stand-in for `rand` 0.8: `StdRng::seed_from_u64`, `Rng::{gen,
//! gen_range}`, `SliceRandom::shuffle` and `seq::index::sample`, std only.
//!
//! `StdRng` here is a splitmix64 stream, not ChaCha12: a seed gives a
//! fixed sequence, but not the published crate's sequence, so every value
//! derived from it (generated data, F1 scores) is pinned to this crate.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce (the published crate's `Standard`
/// distribution, for the types used here).
pub trait StandardSample {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types `Rng::gen_range` can produce.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[low, high)`, or `[low, high]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                low: $t,
                high: $t,
                inclusive: bool,
            ) -> $t {
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
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: f64,
        high: f64,
        _inclusive: bool,
    ) -> f64 {
        assert!(low < high, "gen_range: empty range");
        low + (high - low) * f64::sample(rng)
    }
}

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_between(rng, low, high, true)
    }
}

pub trait Rng: RngCore {
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// splitmix64 (Steele, Lea, Flood 2014): one add and three
    /// xor-shift-multiplies per 64-bit output.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    pub trait SliceRandom {
        type Item;
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        /// Fisher–Yates.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }

    pub mod index {
        use super::super::{Rng, RngCore};

        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }
        }

        /// `amount` distinct indices from `0..length`, in random order
        /// (the first `amount` steps of a Fisher–Yates shuffle).
        pub fn sample<R: RngCore + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(amount <= length, "sample: amount exceeds length");
            let mut idx: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                idx.swap(i, rng.gen_range(i..length));
            }
            idx.truncate(amount);
            IndexVec(idx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<f64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<f64> = (0..8).map(|_| b.gen()).collect();
        let zs: Vec<f64> = (0..8).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut r = StdRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = r.gen_range(0..5usize);
            seen[v] = true;
            let w = r.gen_range(2..=4usize);
            assert!((2..=4).contains(&w));
            let f = r.gen_range(0.8..1.2);
            assert!((0.8..1.2).contains(&f));
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
            let i: i64 = 10 + r.gen_range(1..100);
            assert!((11..110).contains(&i));
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn shuffle_permutes_and_sample_is_distinct() {
        let mut r = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut r);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());

        let mut s = super::seq::index::sample(&mut r, 50, 20).into_vec();
        assert_eq!(s.len(), 20);
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 20);
        assert!(s.iter().all(|i| *i < 50));
    }
}
