//! The one seeded generator behind every randomized suite under `tests/`.
//!
//! [`check`] runs a property on `cases` independent [`Gen`]s, one per seed
//! `0..cases`; a failing case prints the seed that reproduces it before the
//! panic propagates. Inputs are drawn from the workspace's splitmix64
//! [`StdRng`], so a run is the same on every machine.

#![allow(dead_code)] // each suite uses its own subset of the helpers

use rock::data::rng::{SampleRange, SampleUniform, StdRng};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

pub struct Gen(StdRng);

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen(StdRng::seed_from_u64(seed))
    }

    pub fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    pub fn i64(&mut self) -> i64 {
        self.u64() as i64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0.gen_range(0..n)
    }

    pub fn range<T: SampleUniform>(&mut self, range: impl SampleRange<T>) -> T {
        self.0.gen_range(range)
    }

    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.range(0..items.len())].clone()
    }

    pub fn option<T>(&mut self, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.bool().then(|| f(self))
    }

    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// A string of `len` characters drawn from `alphabet`.
    pub fn string(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        self.vec(len, |g| g.pick(&chars)).into_iter().collect()
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        self.0.shuffle(xs)
    }
}

/// Run `property` on seeds `0..cases`.
pub fn check(cases: u64, property: impl Fn(&mut Gen)) {
    for seed in 0..cases {
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut Gen::new(seed))));
        if let Err(panic) = outcome {
            eprintln!("property failed on case seed {seed} (of {cases})");
            resume_unwind(panic);
        }
    }
}

pub const ALNUM: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
