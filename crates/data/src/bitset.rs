//! Dense `u64`-word bitsets and the bitwise kernels behind discovery's
//! predicate satisfaction cache (re-exported at `rock_core::bitset`).
//!
//! A [`Bitset`] records, for a fixed universe of `len` instances, which of
//! them satisfy some property — one bit per instance, packed 64 per word.
//! Discovery materializes one bitset per predicate over the candidate
//! instance set and then evaluates whole conjunctions with word-parallel
//! kernels ([`Bitset::and_popcount`], [`Bitset::and3_popcount`],
//! [`Bitset::intersect_with`]) instead of re-scanning tuples, so the cost
//! of measuring `supp(X ∧ p)` drops from a tuple re-scan per candidate to
//! `len / 64` word operations.
//!
//! Invariant: bits at positions `>= len` in the last word are always zero,
//! so popcount kernels never need a tail mask.

use rock_crystal::json::{FromJson, Json, JsonError, ToJson};

const WORD_BITS: usize = 64;

/// A fixed-length dense bitset over `u64` words.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Bitset {
    len: usize,
    words: Vec<u64>,
}

/// `{"len", "words"}`; decoding rejects a word count that does not match
/// `len` or set bits past it, so a forged length allocates nothing and the
/// tail invariant holds.
impl ToJson for Bitset {
    fn to_json(&self) -> Json {
        rock_crystal::json!({ "len": self.len, "words": self.words })
    }
}

impl FromJson for Bitset {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let len: usize = j.take("len")?;
        let words: Vec<u64> = j.take("words")?;
        let tail = len % WORD_BITS;
        let tail_clear = tail == 0 || words.last().map_or(true, |w| w >> tail == 0);
        if words.len() != words_for(len) || !tail_clear {
            return Err(JsonError(format!(
                "bitset of {len} bits does not match its {} words",
                words.len()
            )));
        }
        Ok(Bitset { len, words })
    }
}

impl Bitset {
    /// All-zeros bitset over `len` instances.
    pub fn new(len: usize) -> Bitset {
        Bitset {
            len,
            words: vec![0u64; words_for(len)],
        }
    }

    /// All-ones bitset over `len` instances.
    pub fn full(len: usize) -> Bitset {
        let mut b = Bitset {
            len,
            words: vec![u64::MAX; words_for(len)],
        };
        b.mask_tail();
        b
    }

    /// Build from a bool slice (used by tests and the property-test model).
    pub fn from_bools(bits: &[bool]) -> Bitset {
        let mut b = Bitset::new(bits.len());
        for (i, &v) in bits.iter().enumerate() {
            if v {
                b.set(i);
            }
        }
        b
    }

    /// Number of instances (bits) in the universe, not the popcount.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap footprint of the word storage, for cache accounting.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    #[inline]
    pub fn unset(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Set every bit in `[start, end)`.
    pub fn set_range(&mut self, start: usize, end: usize) {
        assert!(
            start <= end && end <= self.len,
            "range {start}..{end} out of {}",
            self.len
        );
        if start == end {
            return;
        }
        let first = start / WORD_BITS;
        let last = (end - 1) / WORD_BITS;
        let head = u64::MAX << (start % WORD_BITS);
        let tail = u64::MAX >> (WORD_BITS - 1 - (end - 1) % WORD_BITS);
        if first == last {
            self.words[first] |= head & tail;
        } else {
            self.words[first] |= head;
            for w in &mut self.words[first + 1..last] {
                *w = u64::MAX;
            }
            self.words[last] |= tail;
        }
    }

    /// Popcount of the whole set.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// `|self ∧ other|` without materializing the intersection — the inner
    /// kernel of support counting.
    pub fn and_popcount(&self, other: &Bitset) -> u64 {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a & b).count_ones()))
            .sum()
    }

    /// `|self ∧ ¬other|` — violation counting (`h ⊨ X` but `h ⊭ p0`).
    /// Sound without a tail mask because `self`'s tail bits are zero.
    pub fn and_not_popcount(&self, other: &Bitset) -> u64 {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a & !b).count_ones()))
            .sum()
    }

    /// `|self ∧ b ∧ c|` — confidence numerators mask three ways at once
    /// (running conjunction ∧ consequence ∧ off-diagonal).
    pub fn and3_popcount(&self, b: &Bitset, c: &Bitset) -> u64 {
        assert_eq!(self.len, b.len, "bitset length mismatch");
        assert_eq!(self.len, c.len, "bitset length mismatch");
        self.words
            .iter()
            .zip(&b.words)
            .zip(&c.words)
            .map(|((x, y), z)| u64::from((x & y & z).count_ones()))
            .sum()
    }

    /// In-place intersection: the level-k running bitset is the level-(k−1)
    /// bitset intersected with the new conjunct's bitset.
    pub fn intersect_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Allocating intersection (`self ∧ other`).
    pub fn and(&self, other: &Bitset) -> Bitset {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Iterate the indices of set bits, ascending.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }
}

fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

impl std::fmt::Debug for Bitset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // summarize: a pair-domain bitset has millions of bits
        f.debug_struct("Bitset")
            .field("len", &self.len)
            .field("ones", &self.count_ones())
            .finish()
    }
}

/// Iterator over set-bit indices (see [`Bitset::ones`]).
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = Bitset::new(130);
        assert_eq!(b.count_ones(), 0);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 3);
        b.unset(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn full_masks_tail() {
        for len in [0usize, 1, 63, 64, 65, 128, 130] {
            let b = Bitset::full(len);
            assert_eq!(b.count_ones(), len as u64, "len {len}");
            assert_eq!(b.ones().count(), len);
        }
    }

    #[test]
    fn and_kernels_match_naive() {
        let n = 200;
        let mut a = Bitset::new(n);
        let mut b = Bitset::new(n);
        let mut c = Bitset::new(n);
        // deterministic pseudo-random fill
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if x & 1 == 1 {
                a.set(i);
            }
            if x & 2 == 2 {
                b.set(i);
            }
            if x & 4 == 4 {
                c.set(i);
            }
        }
        let naive_and = (0..n).filter(|&i| a.get(i) && b.get(i)).count() as u64;
        let naive_and_not = (0..n).filter(|&i| a.get(i) && !b.get(i)).count() as u64;
        let naive_and3 = (0..n).filter(|&i| a.get(i) && b.get(i) && c.get(i)).count() as u64;
        assert_eq!(a.and_popcount(&b), naive_and);
        assert_eq!(a.and_not_popcount(&b), naive_and_not);
        assert_eq!(a.and3_popcount(&b, &c), naive_and3);
        assert_eq!(a.and_popcount(&b) + a.and_not_popcount(&b), a.count_ones());
    }

    #[test]
    fn intersect_union_in_place() {
        let a = Bitset::from_bools(&[true, true, false, false, true]);
        let b = Bitset::from_bools(&[true, false, true, false, true]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.ones().collect::<Vec<_>>(), vec![0, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.ones().collect::<Vec<_>>(), vec![0, 1, 2, 4]);
        assert_eq!(a.and(&b), i);
    }

    #[test]
    fn set_range_word_boundaries() {
        for (start, end) in [
            (0, 0),
            (0, 1),
            (3, 61),
            (60, 70),
            (0, 64),
            (64, 128),
            (1, 130),
        ] {
            let mut b = Bitset::new(130);
            b.set_range(start, end);
            let expect: Vec<usize> = (start..end).collect();
            assert_eq!(b.ones().collect::<Vec<_>>(), expect, "range {start}..{end}");
            assert_eq!(b.count_ones(), (end - start) as u64);
        }
    }

    #[test]
    fn ones_iterates_ascending() {
        let mut b = Bitset::new(300);
        for i in [0usize, 63, 64, 65, 127, 128, 200, 299] {
            b.set(i);
        }
        assert_eq!(
            b.ones().collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 127, 128, 200, 299]
        );
    }

    #[test]
    fn heap_bytes_tracks_words() {
        assert_eq!(Bitset::new(0).heap_bytes(), 0);
        assert_eq!(Bitset::new(64).heap_bytes(), 8);
        assert_eq!(Bitset::new(65).heap_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = Bitset::new(10).and_popcount(&Bitset::new(11));
    }
}
