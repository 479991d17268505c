//! MinHash LSH blocking (paper §5.3):
//!
//! "To support ML models M(t[Ā], s[B̄]), Locality Sensitive Hashing (LSH)
//! is used to generate hash codes, such that if M(t[Ā], s[B̄]) = true, then
//! LSH(t[Ā]) = LSH(s[B̄]) with high probability."
//!
//! We implement classic MinHash over token shingles with banding: each item
//! gets `bands` signatures of `rows` min-hashes; two items are *candidates*
//! if any band collides. Rule evaluation then only runs the (expensive) ML
//! predicate on candidate pairs — the filter-and-verify paradigm of §5.4.

use crate::features::fnv1a;
use crate::text::{char_ngrams, tokenize};
use rock_data::FxHashMap;

/// MinHash-with-banding index.
///
/// ```
/// use rock_ml::MinHashLsh;
///
/// let mut lsh = MinHashLsh::new(16, 2);
/// lsh.insert(0, "IPhone 14 Discount ID 41");
/// lsh.insert(1, "fresh organic juice bottle");
/// let candidates = lsh.candidates("IPhone 14 Discount Code 41");
/// assert!(candidates.contains(&0));
/// assert!(!candidates.contains(&1));
/// ```
#[derive(Debug)]
pub struct MinHashLsh {
    rows: usize,
    seeds: Vec<u64>,
    /// band index -> band signature -> item ids
    buckets: Vec<FxHashMap<u64, Vec<u32>>>,
    items: usize,
}

impl MinHashLsh {
    /// `bands * rows` hash functions. More bands = higher recall, more rows
    /// per band = higher precision. Defaults tuned for ~0.5+ similarity.
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(bands > 0 && rows > 0);
        let seeds = (0..bands * rows)
            .map(|i| fnv1a(format!("lsh-seed-{i}").as_bytes()))
            .collect();
        MinHashLsh {
            rows,
            seeds,
            buckets: vec![FxHashMap::default(); bands],
            items: 0,
        }
    }

    /// Shingle a string into hashed features (tokens + char 4-grams).
    fn shingles(text: &str) -> Vec<u64> {
        let mut out: Vec<u64> = tokenize(text).iter().map(|t| fnv1a(t.as_bytes())).collect();
        out.extend(char_ngrams(text, 4).iter().map(|g| fnv1a(g.as_bytes())));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// MinHash signature of a text.
    fn signature(&self, text: &str) -> Vec<u64> {
        let shingles = Self::shingles(text);
        self.seeds
            .iter()
            .map(|&seed| {
                shingles
                    .iter()
                    .map(|&s| s ^ seed)
                    .map(|x| x.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    .min()
                    .unwrap_or(seed)
            })
            .collect()
    }

    /// One hash per band of the text's MinHash signature: two texts are
    /// candidates exactly when they agree on some band. Computing the keys
    /// is the whole per-text cost of the index, so a caller that both
    /// inserts and queries a text computes them once and uses
    /// [`insert_keys`](Self::insert_keys) and
    /// [`candidates_of`](Self::candidates_of).
    pub fn band_keys(&self, text: &str) -> Vec<u64> {
        let sig = self.signature(text);
        sig.chunks_exact(self.rows)
            .map(|band| {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for &x in band {
                    h ^= x;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
                h
            })
            .collect()
    }

    /// Insert an item; `id` is caller-chosen (e.g. a TupleId index).
    pub fn insert(&mut self, id: u32, text: &str) {
        self.insert_keys(id, &self.band_keys(text));
    }

    /// Insert an item by its [`band_keys`](Self::band_keys).
    pub fn insert_keys(&mut self, id: u32, keys: &[u64]) {
        for (bucket, &h) in self.buckets.iter_mut().zip(keys) {
            bucket.entry(h).or_default().push(id);
        }
        self.items += 1;
    }

    /// Number of inserted items.
    pub fn len(&self) -> usize {
        self.items
    }

    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Candidate ids for a query text (deduplicated; may include the item
    /// itself if it was inserted).
    pub fn candidates(&self, text: &str) -> Vec<u32> {
        self.candidates_of(&self.band_keys(text))
    }

    /// Candidate ids for a query given by its [`band_keys`](Self::band_keys),
    /// sorted and deduplicated.
    pub fn candidates_of(&self, keys: &[u64]) -> Vec<u32> {
        let mut out = Vec::new();
        for (bucket, h) in self.buckets.iter().zip(keys) {
            if let Some(ids) = bucket.get(h) {
                out.extend_from_slice(ids);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All candidate pairs `(i, j)` with `i < j` across the index.
    pub fn candidate_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for band in &self.buckets {
            for ids in band.values() {
                if ids.len() < 2 {
                    continue;
                }
                for i in 0..ids.len() {
                    for j in (i + 1)..ids.len() {
                        let (a, b) = (ids[i].min(ids[j]), ids[i].max(ids[j]));
                        if a != b {
                            pairs.push((a, b));
                        }
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_duplicates_collide() {
        let mut lsh = MinHashLsh::new(16, 2);
        lsh.insert(0, "IPhone 14 Discount ID 41 Apple");
        lsh.insert(1, "IPhone 14 Discount Code 41 Apple");
        lsh.insert(2, "Nike Air Max running shoes Shanghai");
        let cands = lsh.candidates("IPhone 14 Discount ID 41 Apple");
        assert!(cands.contains(&0));
        assert!(cands.contains(&1), "near-duplicate should be a candidate");
        assert!(!cands.contains(&2), "unrelated item should be filtered");
    }

    #[test]
    fn candidate_pairs_dedup_and_order() {
        let mut lsh = MinHashLsh::new(8, 2);
        lsh.insert(5, "alpha beta gamma delta");
        lsh.insert(3, "alpha beta gamma delta");
        lsh.insert(9, "zeta eta theta iota kappa");
        let pairs = lsh.candidate_pairs();
        assert!(pairs.contains(&(3, 5)));
        for (a, b) in &pairs {
            assert!(a < b);
        }
    }

    #[test]
    fn empty_and_len() {
        let mut lsh = MinHashLsh::new(2, 2);
        assert!(lsh.is_empty());
        lsh.insert(0, "x");
        assert_eq!(lsh.len(), 1);
    }

    #[test]
    fn blocking_reduces_pairs() {
        // 2 clusters of 5 similar items each: candidate pairs should be far
        // fewer than the 45 total pairs.
        let mut lsh = MinHashLsh::new(8, 2);
        for i in 0..5 {
            lsh.insert(i, &format!("huawei mate x2 limited edition store {i}"));
        }
        for i in 5..10 {
            lsh.insert(i, &format!("fresh organic apple fruit juice bottle {i}"));
        }
        let pairs = lsh.candidate_pairs();
        let cross = pairs.iter().filter(|(a, b)| (*a < 5) != (*b < 5)).count();
        assert_eq!(cross, 0, "no cross-cluster candidates expected");
        assert!(pairs.len() <= 20);
    }
}
