//! Property tests for the dense bitset kernels behind discovery's
//! predicate-satisfaction cache: every popcount kernel and in-place
//! combinator is checked against a naive `Vec<bool>` model, and the
//! tail-word invariant (bits past `len` are always zero) is exercised at
//! word boundaries via `full` / `set_range`.

mod common;

use common::{check, Gen};
use rock::data::Bitset;

const CASES: u64 = 256;

/// A length plus `N` independent bool vectors of that length.
fn bool_vecs<const N: usize>(g: &mut Gen) -> [Vec<bool>; N] {
    let len = g.range(0usize..200);
    std::array::from_fn(|_| g.vec(len..len + 1, Gen::bool))
}

/// `and_popcount` / `and_not_popcount` / `and3_popcount` agree with
/// the model counts.
#[test]
fn popcount_kernels_match_model() {
    check(CASES, |g| {
        let [a, b] = bool_vecs(g);
        let c_seed = g.u64();
        let n = a.len();
        // derive a third vector deterministically from the seed
        let c: Vec<bool> = (0..n).map(|i| (c_seed >> (i % 64)) & 1 == 1).collect();
        let (ba, bb, bc) = (
            Bitset::from_bools(&a),
            Bitset::from_bools(&b),
            Bitset::from_bools(&c),
        );

        let and = a.iter().zip(&b).filter(|(x, y)| **x && **y).count() as u64;
        let and_not = a.iter().zip(&b).filter(|(x, y)| **x && !**y).count() as u64;
        let and3 = (0..n).filter(|&i| a[i] && b[i] && c[i]).count() as u64;

        assert_eq!(ba.and_popcount(&bb), and);
        assert_eq!(ba.and_not_popcount(&bb), and_not);
        assert_eq!(ba.and3_popcount(&bb, &bc), and3);
        // symmetry of the symmetric kernels
        assert_eq!(bb.and_popcount(&ba), and);
        assert_eq!(ba.count_ones(), a.iter().filter(|x| **x).count() as u64);
    });
}

/// In-place intersect/union and the allocating `and` agree with the
/// model, and popcounts of the results are consistent.
#[test]
fn in_place_combinators_match_model() {
    check(CASES, |g| {
        let [a, b] = bool_vecs(g);
        let (ba, bb) = (Bitset::from_bools(&a), Bitset::from_bools(&b));

        let mut inter = ba.clone();
        inter.intersect_with(&bb);
        let mut union = ba.clone();
        union.union_with(&bb);
        let anded = ba.and(&bb);

        for i in 0..a.len() {
            assert_eq!(inter.get(i), a[i] && b[i]);
            assert_eq!(union.get(i), a[i] || b[i]);
            assert_eq!(anded.get(i), a[i] && b[i]);
        }
        assert_eq!(inter.count_ones(), ba.and_popcount(&bb));
        assert_eq!(anded, inter);
        // inclusion–exclusion
        assert_eq!(
            union.count_ones() + inter.count_ones(),
            ba.count_ones() + bb.count_ones()
        );
    });
}

/// `ones()` yields exactly the set indices, ascending.
#[test]
fn ones_iterator_matches_model() {
    check(CASES, |g| {
        let [a] = bool_vecs(g);
        let ba = Bitset::from_bools(&a);
        let got: Vec<usize> = ba.ones().collect();
        let want: Vec<usize> = a
            .iter()
            .enumerate()
            .filter_map(|(i, x)| x.then_some(i))
            .collect();
        assert_eq!(got, want);
    });
}

/// `set_range` fills exactly `[start, end)`, across word boundaries,
/// and `full` keeps the tail-word invariant (AND with anything never
/// counts phantom bits past `len`).
#[test]
fn set_range_and_full_respect_bounds() {
    check(CASES, |g| {
        let (len, lo, hi) = (
            g.range(0usize..300),
            g.range(0usize..300),
            g.range(0usize..300),
        );
        let (start, end) = (lo.min(len), hi.min(len));
        let (start, end) = (start.min(end), start.max(end));
        let mut b = Bitset::new(len);
        b.set_range(start, end);
        assert_eq!(b.count_ones(), (end - start) as u64);
        for i in 0..len {
            assert_eq!(b.get(i), i >= start && i < end);
        }
        let full = Bitset::full(len);
        assert_eq!(full.count_ones(), len as u64);
        assert_eq!(full.and_popcount(&full), len as u64);
        assert_eq!(b.and_popcount(&full), b.count_ones());
        assert_eq!(full.and_not_popcount(&b), (len - (end - start)) as u64);
    });
}

/// Three-way associativity check: ((a ∧ b) ∧ c) popcount equals the
/// fused `and3_popcount` — the identity the miner's level-k measure
/// relies on when folding a parent bitset with a new conjunct.
#[test]
fn and3_equals_chained_and() {
    check(CASES, |g| {
        let [a, b, c] = bool_vecs(g);
        let (ba, bb, bc) = (
            Bitset::from_bools(&a),
            Bitset::from_bools(&b),
            Bitset::from_bools(&c),
        );
        let mut ab = ba.clone();
        ab.intersect_with(&bb);
        assert_eq!(ab.and_popcount(&bc), ba.and3_popcount(&bb, &bc));
    });
}
