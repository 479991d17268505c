//! Stand-in for `rustc-hash` 2.x: `FxHashMap`, `FxHashSet`, `FxHasher`
//! and `FxBuildHasher`, std only.
//!
//! The mixing step is the published crate's (add, multiply by an odd
//! constant, rotate on finish); the byte-slice path is a plain 8-byte
//! chunk loop, so hash values — and therefore map iteration orders — are
//! this crate's own, not the published crate's.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
pub type FxHashSet<V> = HashSet<V, FxBuildHasher>;

#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

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

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        // Length keeps "ab" + "c" apart from "a" + "bc" after zero padding.
        self.add_to_hash(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
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
    use std::hash::Hash;

    fn h<T: Hash>(v: T) -> u64 {
        FxBuildHasher.hash_one(v)
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

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("a".into(), 1);
        assert_eq!(m["a"], 1);
        let s: FxHashSet<u32> = [1, 2, 2].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}
