//! Text kernels: tokenization, character n-grams, and string similarity.
//!
//! These are the building blocks of the feature-based stand-ins for the
//! paper's BERT/LSTM models: address normalization (`Maddr`), commodity SKU
//! identification (`MSKU`), discount-code ER (`MER`), etc. all reduce to
//! similarity/classification over token and n-gram features.
//!
//! Every similarity kernel is split into a per-string half (`EditSide`,
//! `TokenSet`, `GramBag`; together a [`TextProfile`]) and a per-pair half
//! that only merges or bit-shuffles integers. A string that sits in many
//! candidate pairs is decoded, tokenized and shingled once. Each kernel is a
//! ratio of integers far below 2⁵³, so the split cannot change a score: the
//! `&str` functions below are the same code with both profiles built on the
//! spot.

use rock_data::key::fnv1a;

/// Lowercase alphanumeric word tokens.
pub fn tokenize(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in s.chars() {
        if c.is_alphanumeric() {
            cur.extend(c.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The string n-grams are cut from: lowercased, whitespace removed.
fn gram_chars(s: &str) -> Vec<char> {
    s.to_lowercase()
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect()
}

/// Character n-grams (over the lowercased string with spaces collapsed).
/// Strings shorter than `n` yield the whole string as a single gram.
pub fn char_ngrams(s: &str, n: usize) -> Vec<String> {
    let norm = gram_chars(s);
    if norm.is_empty() {
        return Vec::new();
    }
    if norm.len() <= n {
        return vec![norm.into_iter().collect()];
    }
    (0..=norm.len() - n)
        .map(|i| norm[i..i + n].iter().collect())
        .collect()
}

/// Per-string half of the edit-distance kernel: the decoded chars and, for
/// each distinct char, the bitmask of positions holding it (Myers' `Peq`).
#[derive(Debug, Clone)]
struct EditSide {
    chars: Vec<char>,
    /// Distinct chars, sorted; row `i` of `masks` belongs to `alphabet[i]`.
    alphabet: Vec<char>,
    /// `alphabet.len() + 1` rows of `blocks()` words each; the last row is
    /// all zero and serves every char that does not occur.
    masks: Vec<u64>,
}

impl EditSide {
    fn new(s: &str) -> Self {
        let chars: Vec<char> = s.chars().collect();
        let mut alphabet = chars.clone();
        alphabet.sort_unstable();
        alphabet.dedup();
        let blocks = chars.len().div_ceil(64);
        let mut masks = vec![0u64; (alphabet.len() + 1) * blocks];
        for (pos, c) in chars.iter().enumerate() {
            if let Ok(row) = alphabet.binary_search(c) {
                masks[row * blocks + pos / 64] |= 1 << (pos % 64);
            }
        }
        EditSide {
            chars,
            alphabet,
            masks,
        }
    }

    fn blocks(&self) -> usize {
        self.chars.len().div_ceil(64)
    }

    /// Positions of `c`, one word per 64-char block.
    fn mask(&self, c: char) -> &[u64] {
        let blocks = self.blocks();
        let row = self
            .alphabet
            .binary_search(&c)
            .unwrap_or(self.alphabet.len());
        &self.masks[row * blocks..(row + 1) * blocks]
    }

    /// Levenshtein distance by Myers' bit-parallel algorithm in Hyyrö's
    /// block formulation: `self` is the pattern, one bit per char, and each
    /// char of `other` advances every 64-row block by one DP column, the
    /// horizontal deltas carrying from block to block.
    fn distance(&self, other: &EditSide) -> usize {
        let m = self.chars.len();
        if m == 0 {
            return other.chars.len();
        }
        let blocks = self.blocks();
        let last_row = 1u64 << ((m - 1) % 64);
        // (VP, VN): vertical +1 / -1 deltas of the current column. Up to
        // 256 chars the state stays on the stack.
        let mut inline = [(!0u64, 0u64); 4];
        let mut spilled;
        let state: &mut [(u64, u64)] = if blocks <= inline.len() {
            &mut inline[..blocks]
        } else {
            spilled = vec![(!0u64, 0u64); blocks];
            &mut spilled
        };
        let mut dist = m;
        for &c in &other.chars {
            let eq = self.mask(c);
            // row 0 of the DP matrix grows by one per column
            let (mut hp_in, mut hn_in) = (1u64, 0u64);
            for (w, (vp, vn)) in state.iter_mut().enumerate() {
                let x = eq[w] | hn_in;
                let d0 = (((x & *vp).wrapping_add(*vp)) ^ *vp) | x | *vn;
                let hp = *vn | !(d0 | *vp);
                let hn = d0 & *vp;
                if w + 1 == blocks {
                    dist += usize::from(hp & last_row != 0);
                    dist -= usize::from(hn & last_row != 0);
                }
                let hp_shifted = (hp << 1) | hp_in;
                let hn_shifted = (hn << 1) | hn_in;
                *vp = hn_shifted | !(d0 | hp_shifted);
                *vn = hp_shifted & d0;
                hp_in = hp >> 63;
                hn_in = hn >> 63;
            }
        }
        dist
    }

    fn similarity(&self, other: &EditSide) -> f64 {
        let max = self.chars.len().max(other.chars.len());
        if max == 0 {
            return 1.0;
        }
        1.0 - self.distance(other) as f64 / max as f64
    }
}

/// Per-string half of token Jaccard: the distinct tokens, sorted by id.
/// The id is the token's FNV-1a hash; the text rides along and breaks hash
/// ties, so two ids compare equal exactly when the tokens are equal.
#[derive(Debug, Clone)]
struct TokenSet(Vec<(u64, Box<str>)>);

impl TokenSet {
    fn new(s: &str) -> Self {
        let mut ids: Vec<(u64, Box<str>)> = tokenize(s)
            .into_iter()
            .map(|t| (fnv1a(t.as_bytes()), t.into_boxed_str()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        TokenSet(ids)
    }

    fn jaccard(&self, other: &TokenSet) -> f64 {
        let (a, b) = (&self.0, &other.0);
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let (mut i, mut j, mut inter) = (0, 0, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        inter as f64 / (a.len() + b.len() - inter) as f64
    }
}

/// Per-string half of trigram cosine: the distinct trigrams, sorted, each
/// with its multiplicity, and the Euclidean norm of the multiplicities.
#[derive(Debug, Clone)]
struct GramBag {
    grams: Vec<(u64, u32)>,
    norm: f64,
}

impl GramBag {
    /// A gram of up to three chars in one word: 21 bits per char, stored
    /// plus one so that a shorter gram differs from one padded with NULs.
    fn pack(gram: &[char]) -> u64 {
        gram.iter()
            .fold(0u64, |acc, &c| (acc << 21) | (u64::from(u32::from(c)) + 1))
    }

    fn new(s: &str) -> Self {
        let norm_chars = gram_chars(s);
        let mut packed: Vec<u64> = if norm_chars.is_empty() {
            Vec::new()
        } else if norm_chars.len() <= 3 {
            vec![Self::pack(&norm_chars)]
        } else {
            norm_chars.windows(3).map(Self::pack).collect()
        };
        packed.sort_unstable();
        let mut grams: Vec<(u64, u32)> = Vec::with_capacity(packed.len());
        for g in packed {
            match grams.last_mut() {
                Some((last, n)) if *last == g => *n += 1,
                _ => grams.push((g, 1)),
            }
        }
        let squares: u64 = grams
            .iter()
            .map(|&(_, n)| u64::from(n) * u64::from(n))
            .sum();
        GramBag {
            grams,
            norm: (squares as f64).sqrt(),
        }
    }

    fn cosine(&self, other: &GramBag) -> f64 {
        let (a, b) = (&self.grams, &other.grams);
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let (mut i, mut j, mut dot) = (0, 0, 0u64);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += u64::from(a[i].1) * u64::from(b[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        dot as f64 / (self.norm * other.norm)
    }
}

/// Everything the three similarity kernels need from one string, computed
/// once: score a string against many others without touching its text
/// again. Each method returns bit for bit what the `&str` function of the
/// same name returns on the two original strings.
#[derive(Debug, Clone)]
pub struct TextProfile {
    edit: EditSide,
    tokens: TokenSet,
    grams: GramBag,
}

impl TextProfile {
    pub fn new(s: &str) -> Self {
        TextProfile {
            edit: EditSide::new(s),
            tokens: TokenSet::new(s),
            grams: GramBag::new(s),
        }
    }

    /// Whether the profiled string was empty.
    pub fn is_empty(&self) -> bool {
        self.edit.chars.is_empty()
    }

    pub fn edit_similarity(&self, other: &TextProfile) -> f64 {
        self.edit.similarity(&other.edit)
    }

    pub fn token_jaccard(&self, other: &TextProfile) -> f64 {
        self.tokens.jaccard(&other.tokens)
    }

    pub fn trigram_cosine(&self, other: &TextProfile) -> f64 {
        self.grams.cosine(&other.grams)
    }
}

/// Levenshtein edit distance (bit-parallel; O(|a|·|b|/64) time).
pub fn levenshtein(a: &str, b: &str) -> usize {
    EditSide::new(a).distance(&EditSide::new(b))
}

/// Normalized edit similarity in [0, 1].
pub fn edit_similarity(a: &str, b: &str) -> f64 {
    EditSide::new(a).similarity(&EditSide::new(b))
}

/// Jaccard similarity over token sets.
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    TokenSet::new(a).jaccard(&TokenSet::new(b))
}

/// Cosine similarity over character-trigram multisets.
pub fn trigram_cosine(a: &str, b: &str) -> f64 {
    GramBag::new(a).cosine(&GramBag::new(b))
}

/// The kernels as they were before profiles: two-row DP and `String`-keyed
/// hash maps. Kept only as the oracle the profile kernels are compared
/// against, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{char_ngrams, tokenize};
    use rock_data::{FxHashMap, FxHashSet};

    pub fn levenshtein(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0usize; b.len() + 1];
        for (i, ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, cb) in b.iter().enumerate() {
                let cost = usize::from(ca != cb);
                cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    pub fn edit_similarity(a: &str, b: &str) -> f64 {
        let max = a.chars().count().max(b.chars().count());
        if max == 0 {
            return 1.0;
        }
        1.0 - levenshtein(a, b) as f64 / max as f64
    }

    pub fn token_jaccard(a: &str, b: &str) -> f64 {
        let sa: FxHashSet<String> = tokenize(a).into_iter().collect();
        let sb: FxHashSet<String> = tokenize(b).into_iter().collect();
        if sa.is_empty() && sb.is_empty() {
            return 1.0;
        }
        let inter = sa.intersection(&sb).count();
        let union = sa.len() + sb.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    pub fn trigram_cosine(a: &str, b: &str) -> f64 {
        let count = |s: &str| -> FxHashMap<String, f64> {
            let mut m = FxHashMap::default();
            for g in char_ngrams(s, 3) {
                *m.entry(g).or_insert(0.0) += 1.0;
            }
            m
        };
        let ma = count(a);
        let mb = count(b);
        if ma.is_empty() && mb.is_empty() {
            return 1.0;
        }
        // Folded from +0.0, as `Iterator::sum` does on the pinned 1.75
        // toolchain. Recent toolchains sum `f64` from -0.0, which made this
        // function return -0.0 for strings without a common trigram; the
        // profile kernel returns +0.0 on every toolchain. No score can
        // tell the two apart: both models add the value to other terms.
        let dot: f64 = ma
            .iter()
            .filter_map(|(g, x)| mb.get(g).map(|y| x * y))
            .fold(0.0, |acc, p| acc + p);
        let na: f64 = ma.values().map(|x| x * x).sum::<f64>().sqrt();
        let nb: f64 = mb.values().map(|x| x * x).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }
}

/// Seeded generators for the kernel-equivalence tests here and in
/// [`crate::pair`].
#[cfg(test)]
pub(crate) mod testgen {
    /// splitmix64.
    pub struct Rng(pub u64);

    impl Rng {
        pub fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Small alphabets so that random strings share tokens and trigrams:
    /// mixed-case ASCII with separators, and a non-ASCII set that includes
    /// chars whose lowercase form is longer (İ), depends on position (Σ),
    /// or lies outside the BMP.
    const ASCII: &[char] = &[
        'a', 'b', 'c', 'd', 'e', 'A', 'B', 'C', 'D', 'E', '0', '1', '4', ' ', ' ', ' ', '-', '(',
        ')', '\t',
    ];
    const WIDE: &[char] = &[
        'é', 'É', 'ß', 'İ', 'Σ', 'σ', 'ς', '北', '京', '路', 'Ж', 'ж', '𝔘', '😀', '\u{a0}',
        '\u{3000}', ' ', 'a', 'A', '1',
    ];

    /// A string of exactly `len` chars.
    pub fn string(rng: &mut Rng, len: usize, wide: bool) -> String {
        (0..len)
            .map(|_| {
                if wide && rng.below(3) > 0 {
                    WIDE[rng.below(WIDE.len())]
                } else {
                    ASCII[rng.below(ASCII.len())]
                }
            })
            .collect()
    }

    /// `s` with a few random single-char edits: near-duplicates are the
    /// pairs blocking lets through, and the ones where the DP's diagonal
    /// band is exercised.
    pub fn perturb(rng: &mut Rng, s: &str, wide: bool) -> String {
        let mut chars: Vec<char> = s.chars().collect();
        for _ in 0..=rng.below(4) {
            let c = string(rng, 1, wide).chars().next().unwrap_or('x');
            match (rng.below(3), chars.is_empty()) {
                (0, _) | (_, true) => chars.insert(rng.below(chars.len() + 1), c),
                (1, false) => {
                    chars.remove(rng.below(chars.len()));
                }
                (_, false) => {
                    let at = rng.below(chars.len());
                    chars[at] = c;
                }
            }
        }
        chars.into_iter().collect()
    }

    /// The string pairs every equivalence test runs over: fixed edge cases
    /// (empty, whitespace-only, shorter than a trigram, the 64/65/200-char
    /// Myers block boundaries) crossed with each other, then seeded random
    /// pairs, unrelated and near-duplicate, ASCII and not.
    pub fn string_pairs(seed: u64) -> Vec<(String, String)> {
        let mut rng = Rng(seed);
        let mut fixed: Vec<String> = ["", " ", " \t ", "a", "ab", "AB", "abc", "a b", "Σ", "İ"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        for len in [63, 64, 65, 127, 128, 129, 200, 257] {
            fixed.push(string(&mut rng, len, false));
            fixed.push(string(&mut rng, len, true));
        }
        let mut pairs = Vec::new();
        for a in &fixed {
            for b in &fixed {
                pairs.push((a.clone(), b.clone()));
            }
            pairs.push((a.clone(), perturb(&mut rng, a, true)));
        }
        for round in 0..1500 {
            let wide = round % 2 == 1;
            let len = match round % 5 {
                0 => rng.below(4),
                1 | 2 => rng.below(40),
                3 => 60 + rng.below(10),
                _ => rng.below(220),
            };
            let a = string(&mut rng, len, wide);
            let b = if rng.below(2) == 0 {
                perturb(&mut rng, &a, wide)
            } else {
                let len = rng.below(len + 8);
                string(&mut rng, len, wide)
            };
            pairs.push((a, b));
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basic() {
        assert_eq!(
            tokenize("IPhone 14 (Discount ID 41)"),
            vec!["iphone", "14", "discount", "id", "41"]
        );
        assert!(tokenize("  ,, ").is_empty());
    }

    #[test]
    fn ngrams() {
        assert_eq!(char_ngrams("abcd", 3), vec!["abc", "bcd"]);
        assert_eq!(char_ngrams("ab", 3), vec!["ab"]);
        assert!(char_ngrams("", 3).is_empty());
        // whitespace collapsed
        assert_eq!(char_ngrams("a b c", 3), vec!["abc"]);
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn edit_similarity_bounds() {
        assert_eq!(edit_similarity("", ""), 1.0);
        assert_eq!(edit_similarity("a", "a"), 1.0);
        assert!(edit_similarity("abc", "xyz") <= 0.0 + 1e-12);
        let s = edit_similarity("Beijing Road", "Beijing Rd");
        assert!(s > 0.5 && s < 1.0);
    }

    #[test]
    fn jaccard_and_cosine_agree_on_identity() {
        assert_eq!(token_jaccard("a b c", "c b a"), 1.0);
        assert!((trigram_cosine("hello world", "hello world") - 1.0).abs() < 1e-12);
        assert_eq!(token_jaccard("", ""), 1.0);
    }

    #[test]
    fn similar_addresses_score_high() {
        let a = "5 Beijing West Road";
        let b = "5 West Road";
        assert!(token_jaccard(a, b) >= 0.5);
        assert!(trigram_cosine(a, b) > 0.5);
        assert!(trigram_cosine(a, "Nike China Shanghai") < 0.35);
    }

    #[test]
    fn gram_packing_keeps_short_grams_apart() {
        assert_ne!(GramBag::pack(&['a']), GramBag::pack(&['a', '\0']));
        assert_ne!(GramBag::pack(&['\0', 'a']), GramBag::pack(&['a']));
        assert_eq!(
            GramBag::pack(&[char::MAX, char::MAX, char::MAX]) >> 63,
            0,
            "three chars fit below the sign bit"
        );
    }

    #[test]
    fn kernels_equal_reference_bit_for_bit() {
        let pairs = testgen::string_pairs(0x5eed_0001);
        let (mut nonzero_edit, mut shared_tokens, mut shared_grams) = (0, 0, 0);
        for (a, b) in &pairs {
            let (pa, pb) = (TextProfile::new(a), TextProfile::new(b));
            assert_eq!(
                levenshtein(a, b),
                reference::levenshtein(a, b),
                "levenshtein({a:?}, {b:?})"
            );
            for (name, got, str_got, want) in [
                (
                    "edit_similarity",
                    pa.edit_similarity(&pb),
                    edit_similarity(a, b),
                    reference::edit_similarity(a, b),
                ),
                (
                    "token_jaccard",
                    pa.token_jaccard(&pb),
                    token_jaccard(a, b),
                    reference::token_jaccard(a, b),
                ),
                (
                    "trigram_cosine",
                    pa.trigram_cosine(&pb),
                    trigram_cosine(a, b),
                    reference::trigram_cosine(a, b),
                ),
            ] {
                assert_eq!(got.to_bits(), want.to_bits(), "{name}({a:?}, {b:?})");
                assert_eq!(
                    str_got.to_bits(),
                    want.to_bits(),
                    "&str {name}({a:?}, {b:?})"
                );
            }
            assert_eq!(pa.is_empty(), a.is_empty());
            nonzero_edit += usize::from(a != b && pa.edit_similarity(&pb) > 0.0);
            shared_tokens += usize::from(a != b && pa.token_jaccard(&pb) > 0.0);
            shared_grams += usize::from(a != b && pa.trigram_cosine(&pb) > 0.0);
        }
        // the generator must reach the interesting part of each kernel
        assert!(nonzero_edit > 500, "{nonzero_edit}");
        assert!(shared_tokens > 300, "{shared_tokens}");
        assert!(shared_grams > 500, "{shared_grams}");
    }
}
