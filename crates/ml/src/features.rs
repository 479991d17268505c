//! Hashing-trick feature vectors and dense embeddings.
//!
//! The paper's models "first pretrain graph embeddings … then combine
//! classifications from graph embeddings and language model embeddings"
//! (§4.2, Mc). Our stand-in embeds any value (or value vector) into a fixed
//! dense vector by feature hashing of its tokens/n-grams; equality of
//! content ⇒ equality of embedding, similarity of content ⇒ cosine-close
//! embeddings. That is exactly the property the downstream classifiers rely
//! on.

use crate::text::{char_ngrams, tokenize, TextProfile};
use rock_data::Value;

use rock_data::key::fnv1a;

/// Dense embedding of dimension `dim` via the hashing trick with sign hashing
/// (Weinberger et al.): each feature adds ±1 at a hashed coordinate.
#[derive(Debug, Clone)]
pub struct HashingEmbedder {
    pub dim: usize,
    /// Character n-gram width mixed into the features (0 disables n-grams).
    pub ngram: usize,
}

impl Default for HashingEmbedder {
    fn default() -> Self {
        HashingEmbedder { dim: 64, ngram: 3 }
    }
}

impl HashingEmbedder {
    pub fn new(dim: usize, ngram: usize) -> Self {
        assert!(dim > 0);
        HashingEmbedder { dim, ngram }
    }

    fn add_feature(&self, out: &mut [f64], feat: &str, weight: f64) {
        let h = fnv1a(feat.as_bytes());
        let idx = (h % self.dim as u64) as usize;
        let sign = if (h >> 63) == 1 { -1.0 } else { 1.0 };
        out[idx] += sign * weight;
    }

    /// Embed one string.
    pub fn embed_str(&self, s: &str) -> Vec<f64> {
        let mut v = vec![0.0; self.dim];
        for tok in tokenize(s) {
            self.add_feature(&mut v, &tok, 1.0);
        }
        if self.ngram > 0 {
            for g in char_ngrams(s, self.ngram) {
                self.add_feature(&mut v, &g, 0.5);
            }
        }
        normalize(&mut v);
        v
    }

    /// Embed a value: strings via tokens; numerics via bucketized magnitude
    /// features (so close numbers land on shared features); null is the zero
    /// vector.
    pub fn embed_value(&self, v: &Value) -> Vec<f64> {
        match v {
            Value::Null => vec![0.0; self.dim],
            Value::Str(s) => self.embed_str(s),
            other => {
                let mut out = vec![0.0; self.dim];
                if let Some(x) = other.as_f64() {
                    // log-scale magnitude buckets + exact-value feature
                    let mag = if x == 0.0 {
                        0
                    } else {
                        x.abs().log10().floor() as i64
                    };
                    self.add_feature(&mut out, &format!("mag:{mag}:{}", x < 0.0), 1.0);
                    self.add_feature(&mut out, &format!("val:{other}"), 1.0);
                }
                normalize(&mut out);
                out
            }
        }
    }

    /// Embed a value vector `t[Ā]` by averaging component embeddings.
    pub fn embed_values(&self, vs: &[Value]) -> Vec<f64> {
        let mut acc = vec![0.0; self.dim];
        let mut n = 0usize;
        for v in vs {
            if v.is_null() {
                continue;
            }
            let e = self.embed_value(v);
            for (a, b) in acc.iter_mut().zip(e) {
                *a += b;
            }
            n += 1;
        }
        if n > 0 {
            for a in &mut acc {
                *a /= n as f64;
            }
        }
        acc
    }
}

/// L2-normalize in place (no-op on the zero vector).
pub fn normalize(v: &mut [f64]) {
    let n = l2_norm(v);
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

fn l2_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Cosine similarity of two equal-length vectors.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    cosine_with_norms(a, l2_norm(a), b, l2_norm(b))
}

/// [`cosine`] with each vector's L2 norm supplied by the caller.
fn cosine_with_norms(a: &[f64], na: f64, b: &[f64], nb: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// The half of [`pair_features`] that depends on one value vector only:
/// the text profile of its rendering, its embedding and the embedding's
/// norm. Built once per tuple, it serves every pair the tuple is in.
#[derive(Debug, Clone)]
pub struct SideFeatures {
    text: TextProfile,
    embedding: Vec<f64>,
    embedding_norm: f64,
}

impl SideFeatures {
    pub fn new(vs: &[Value], embedder: &HashingEmbedder) -> Self {
        let embedding = embedder.embed_values(vs);
        SideFeatures {
            text: TextProfile::new(&render_join(vs)),
            embedding_norm: l2_norm(&embedding),
            embedding,
        }
    }
}

/// Pairwise feature vector for two value vectors: per-kernel similarities
/// plus aggregate embedding cosine. This is the input representation for
/// trained pair classifiers ([`crate::pair`]).
pub fn pair_features(a: &[Value], b: &[Value], embedder: &HashingEmbedder) -> Vec<f64> {
    pair_features_prepared(
        a,
        &SideFeatures::new(a, embedder),
        b,
        &SideFeatures::new(b, embedder),
    )
}

/// [`pair_features`] over sides featurized beforehand; `fa` and `fb` must
/// come from `a` and `b` under one embedder. The embedding dot product runs
/// in the same order as [`cosine`], so the vector is bit-identical.
pub fn pair_features_prepared(
    a: &[Value],
    fa: &SideFeatures,
    b: &[Value],
    fb: &SideFeatures,
) -> Vec<f64> {
    let mut f = Vec::with_capacity(6);
    f.push(fa.text.edit_similarity(&fb.text));
    f.push(fa.text.token_jaccard(&fb.text));
    f.push(fa.text.trigram_cosine(&fb.text));
    f.push(cosine_with_norms(
        &fa.embedding,
        fa.embedding_norm,
        &fb.embedding,
        fb.embedding_norm,
    ));
    // exact-equality fraction over aligned components
    let k = a.len().min(b.len());
    let eq = (0..k).filter(|&i| a[i].sql_eq(&b[i])).count();
    f.push(if k == 0 { 0.0 } else { eq as f64 / k as f64 });
    // numeric closeness over aligned numeric components
    let mut num = 0.0;
    let mut nn = 0usize;
    for i in 0..k {
        if let (Some(x), Some(y)) = (a[i].as_f64(), b[i].as_f64()) {
            let d = (x - y).abs();
            let scale = x.abs().max(y.abs()).max(1.0);
            num += 1.0 - (d / scale).min(1.0);
            nn += 1;
        }
    }
    f.push(if nn == 0 { 0.0 } else { num / nn as f64 });
    f
}

/// The values rendered and joined by single spaces — the string the text
/// kernels of the pair models compare.
pub(crate) fn render_join(vs: &[Value]) -> String {
    let mut s = String::new();
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&v.render());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_stable() {
        // Known FNV-1a vectors
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn embedding_deterministic_and_normalized() {
        let e = HashingEmbedder::default();
        let v1 = e.embed_str("Beijing West Road");
        let v2 = e.embed_str("Beijing West Road");
        assert_eq!(v1, v2);
        let norm: f64 = v1.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn similar_strings_closer_than_dissimilar() {
        let e = HashingEmbedder::default();
        let a = e.embed_str("5 Beijing West Road");
        let b = e.embed_str("5 West Road Beijing");
        let c = e.embed_str("Nike China Sports Shanghai");
        assert!(cosine(&a, &b) > cosine(&a, &c));
    }

    #[test]
    fn null_embeds_to_zero() {
        let e = HashingEmbedder::default();
        let z = e.embed_value(&Value::Null);
        assert!(z.iter().all(|&x| x == 0.0));
        assert_eq!(cosine(&z, &z), 0.0);
    }

    #[test]
    fn close_numbers_share_magnitude_bucket() {
        let e = HashingEmbedder::default();
        let a = e.embed_value(&Value::Int(5200));
        let b = e.embed_value(&Value::Int(5300));
        let c = e.embed_value(&Value::Int(5));
        assert!(cosine(&a, &b) > cosine(&a, &c));
    }

    #[test]
    fn pair_features_shape_and_identity() {
        let e = HashingEmbedder::default();
        let a = vec![Value::str("IPhone 14"), Value::Int(6500)];
        let f_same = pair_features(&a, &a, &e);
        assert_eq!(f_same.len(), 6);
        assert!((f_same[0] - 1.0).abs() < 1e-9); // edit sim
        assert!((f_same[4] - 1.0).abs() < 1e-9); // eq fraction
        let b = vec![Value::str("Mate X2"), Value::Int(1)];
        let f_diff = pair_features(&a, &b, &e);
        assert!(f_diff[0] < f_same[0]);
        assert!(f_diff[4] < 1.0);
    }
}
