//! Correlation models `Mc` and the value predictor `Md` (paper §2.3, §4.2).
//!
//! * `Mc(t[Ā], t[B]=c) ≥ δ` assesses the strength of the correlation between
//!   a partial tuple and a candidate value for attribute `B`.
//! * `t[B] = Md(t[Ā], B)` suggests a value for a missing attribute; per the
//!   paper, Md "first retrieves a set of candidate values for t[B] …, and
//!   then uses a ranking model to get a suggested value", reusing Mc's
//!   encoders.
//!
//! The paper's Mc combines graph-embedding and language-model-embedding
//! classifications. Our stand-in combines (a) smoothed conditional
//! co-occurrence statistics mined from validated data — the "graph" half:
//! the co-occurrence graph of values — with (b) embedding cosine between
//! evidence and candidate — the "language" half. Both halves are
//! deterministic and trainable from the workloads' validated tuples.

use crate::features::{cosine, HashingEmbedder};
use rock_data::{FxHashMap, Value};

/// Evidence key: (attribute position within the feature tuple, value).
type Evidence = (usize, Value);

/// Correlation model for one target attribute.
#[derive(Debug, Clone)]
pub struct CorrelationModel {
    /// Co-occurrence counts: evidence -> candidate value -> count.
    cooc: FxHashMap<Evidence, FxHashMap<Value, u32>>,
    /// Marginal counts of candidate values.
    marginal: FxHashMap<Value, u32>,
    total: u32,
    embedder: HashingEmbedder,
    /// Mixing weight of the statistical half vs the embedding half.
    pub alpha: f64,
}

impl CorrelationModel {
    /// Train from rows: each row is the evidence tuple `t[Ā]` plus the
    /// observed target value. Null targets are skipped; null evidence cells
    /// contribute nothing.
    pub fn train(rows: &[(Vec<Value>, Value)]) -> Self {
        let mut cooc: FxHashMap<Evidence, FxHashMap<Value, u32>> = FxHashMap::default();
        let mut marginal: FxHashMap<Value, u32> = FxHashMap::default();
        let mut total = 0u32;
        for (evidence, target) in rows {
            if target.is_null() {
                continue;
            }
            *marginal.entry(target.clone()).or_insert(0) += 1;
            total += 1;
            for (pos, v) in evidence.iter().enumerate() {
                if v.is_null() {
                    continue;
                }
                *cooc
                    .entry((pos, v.clone()))
                    .or_default()
                    .entry(target.clone())
                    .or_insert(0) += 1;
            }
        }
        CorrelationModel {
            cooc,
            marginal,
            total,
            embedder: HashingEmbedder::default(),
            alpha: 0.85,
        }
    }

    /// Correlation strength between partial tuple `evidence` and candidate
    /// `c` for the target attribute, in [0, 1].
    pub fn strength(&self, evidence: &[Value], c: &Value) -> f64 {
        if c.is_null() {
            return 0.0;
        }
        // Statistical half: mean smoothed P(c | a) over non-null evidence.
        let mut stat = 0.0;
        let mut n = 0usize;
        for (pos, v) in evidence.iter().enumerate() {
            if v.is_null() {
                continue;
            }
            n += 1;
            if let Some(dist) = self.cooc.get(&(pos, v.clone())) {
                let count = dist.get(c).copied().unwrap_or(0) as f64;
                let denom: u32 = dist.values().sum();
                // Laplace smoothing over the observed candidate set.
                stat += (count + 0.5) / (denom as f64 + 0.5 * (dist.len() as f64 + 1.0));
            } else if self.total > 0 {
                stat += self.marginal.get(c).copied().unwrap_or(0) as f64 / self.total as f64;
            }
        }
        let stat = if n == 0 { 0.0 } else { stat / n as f64 };
        // Embedding half: cosine between mean evidence embedding and c.
        let emb = cosine(
            &self.embedder.embed_values(evidence),
            &self.embedder.embed_value(c),
        )
        .max(0.0);
        self.alpha * stat + (1.0 - self.alpha) * emb
    }

    /// Candidate values for the target given the evidence: every value seen
    /// co-occurring with any evidence cell, ordered by strength descending.
    pub fn candidates(&self, evidence: &[Value]) -> Vec<(Value, f64)> {
        let mut set: Vec<Value> = Vec::new();
        for (pos, v) in evidence.iter().enumerate() {
            if v.is_null() {
                continue;
            }
            if let Some(dist) = self.cooc.get(&(pos, v.clone())) {
                set.extend(dist.keys().cloned());
            }
        }
        set.sort();
        set.dedup();
        let mut scored: Vec<(Value, f64)> = set
            .into_iter()
            .map(|c| {
                let s = self.strength(evidence, &c);
                (c, s)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored
    }

    /// Synthetic inference cost (the combined-embedding model is mid-weight).
    pub fn cost(&self) -> f64 {
        3.0
    }
}

/// `Md`: the value predictor built on top of `Mc` (paper §4.2: "To extend
/// Mc to Md … we reuse the encoders in Mc").
#[derive(Debug, Clone)]
pub struct ValuePredictor {
    pub mc: CorrelationModel,
    /// Minimum strength below which Md abstains (predicting a wrong value
    /// is worse than leaving a null — certain fixes must stay certain).
    pub min_strength: f64,
}

impl ValuePredictor {
    pub fn new(mc: CorrelationModel, min_strength: f64) -> Self {
        ValuePredictor { mc, min_strength }
    }

    pub fn train(rows: &[(Vec<Value>, Value)], min_strength: f64) -> Self {
        Self::new(CorrelationModel::train(rows), min_strength)
    }

    /// Suggest a value for the target attribute from the evidence, or
    /// abstain. Also used by MI conflict resolution (§4.2(3)): given an
    /// explicit candidate set, pick `argmax Mc(t[Ā], c)`.
    pub fn predict(&self, evidence: &[Value]) -> Option<Value> {
        let cands = self.mc.candidates(evidence);
        match cands.first() {
            Some((v, s)) if *s >= self.min_strength => Some(v.clone()),
            _ => None,
        }
    }

    /// `argmax` over an explicit candidate set (MI conflict resolution).
    pub fn best_of(&self, evidence: &[Value], cands: &[Value]) -> Option<Value> {
        cands
            .iter()
            .map(|c| (c, self.mc.strength(evidence, c)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(c, _)| c.clone())
    }

    pub fn cost(&self) -> f64 {
        self.mc.cost() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Beijing → 010, Shanghai → 021 (the φ12 area-code pattern).
    fn area_code_rows() -> Vec<(Vec<Value>, Value)> {
        let mut rows = Vec::new();
        for _ in 0..10 {
            rows.push((vec![Value::str("Beijing")], Value::str("010")));
            rows.push((vec![Value::str("Shanghai")], Value::str("021")));
        }
        rows.push((vec![Value::str("Beijing")], Value::str("021"))); // noise
        rows
    }

    #[test]
    fn strength_separates_correlated_values() {
        let mc = CorrelationModel::train(&area_code_rows());
        let beijing = vec![Value::str("Beijing")];
        assert!(
            mc.strength(&beijing, &Value::str("010")) > mc.strength(&beijing, &Value::str("021"))
        );
        assert_eq!(mc.strength(&beijing, &Value::Null), 0.0);
    }

    #[test]
    fn predictor_fills_area_code() {
        let md = ValuePredictor::train(&area_code_rows(), 0.3);
        assert_eq!(
            md.predict(&[Value::str("Beijing")]),
            Some(Value::str("010"))
        );
        assert_eq!(
            md.predict(&[Value::str("Shanghai")]),
            Some(Value::str("021"))
        );
    }

    #[test]
    fn predictor_abstains_without_evidence() {
        let md = ValuePredictor::train(&area_code_rows(), 0.3);
        assert_eq!(md.predict(&[Value::Null]), None);
        assert_eq!(md.predict(&[Value::str("Shenzhen")]), None);
    }

    #[test]
    fn best_of_candidate_set() {
        let md = ValuePredictor::train(&area_code_rows(), 0.3);
        let pick = md.best_of(
            &[Value::str("Beijing")],
            &[Value::str("021"), Value::str("010")],
        );
        assert_eq!(pick, Some(Value::str("010")));
        assert_eq!(md.best_of(&[Value::str("Beijing")], &[]), None);
    }

    #[test]
    fn candidates_sorted_by_strength() {
        let mc = CorrelationModel::train(&area_code_rows());
        let cands = mc.candidates(&[Value::str("Beijing")]);
        assert_eq!(cands[0].0, Value::str("010"));
        assert!(cands[0].1 >= cands.last().unwrap().1);
    }

    #[test]
    fn multi_evidence_votes() {
        // two evidence columns; second column is pure noise
        let mut rows = Vec::new();
        for i in 0..20 {
            rows.push((
                vec![Value::str("Beijing"), Value::Int(i)],
                Value::str("010"),
            ));
        }
        let mc = CorrelationModel::train(&rows);
        let s = mc.strength(
            &[Value::str("Beijing"), Value::Int(999)],
            &Value::str("010"),
        );
        assert!(s > 0.4, "strength {s}");
    }
}
