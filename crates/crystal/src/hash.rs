//! The workspace's non-cryptographic hasher: `FxHashMap`/`FxHashSet` with
//! a fixed (seedless) state, so map iteration order — and everything that
//! depends on it — repeats from run to run.
//!
//! The mixing step is the Firefox/rustc "Fx" one (add, multiply by an odd
//! constant, rotate on finish). Not for keys an adversary can choose.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
pub type FxHashSet<V> = HashSet<V, FxBuildHasher>;

pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

macro_rules! write_word {
    ($($name:ident: $t:ty),*) => {$(
        #[inline]
        fn $name(&mut self, i: $t) {
            self.add_to_hash(i as u64);
        }
    )*};
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        // Length keeps "ab" + "c" apart from "a" + "bc" after zero padding.
        self.add_to_hash(bytes.len() as u64);
    }

    write_word!(write_u8: u8, write_u16: u16, write_u32: u32, write_u64: u64, write_usize: usize);

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the entropy in the high bits; hashbrown
        // indexes buckets with the low ones.
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn h<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_spreading() {
        assert_eq!(h(42u64), h(42u64));
        assert_ne!(h("ab"), h("ba"));
        assert_ne!(h(("ab", "c")), h(("a", "bc")));
        // Without the rotate every multiple of 1024 has the same low 10
        // bits; with it they spread (a random function would give ~650).
        let low: FxHashSet<u64> = (0..1024u64).map(|i| h(i * 1024) & 1023).collect();
        assert!(low.len() > 256, "low bits collapse: {}", low.len());
    }

    /// Pinned outputs: generated workloads and blocking orders depend on
    /// these exact values, so a change to the mixer must be deliberate.
    #[test]
    fn hash_values_are_pinned() {
        assert_eq!(h(1u32), K.rotate_left(26));
        assert_eq!(h(1u64), h(1usize));
        let mut a = FxHasher::default();
        a.write(b"abcdefghi");
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes(*b"abcdefgh"));
        b.write_u64(u64::from(b'i'));
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());
    }
}
