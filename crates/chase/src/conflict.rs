//! Learning-based conflict resolution (paper §4.2 "Resolving conflicts").
//!
//! 1. **ER / CR** — conflicting entity ids or attribute values. The paper
//!    presents these to users alongside the witnessing rules; Rock also
//!    "develops learning-based strategies to resolve conflicts" (§4.1
//!    Novelty (b)). The autonomous reproduction resolves them with, in
//!    priority order: ground truth (a trusted cell wins), the correlation
//!    model `Mc` (pick the candidate with the higher strength given the
//!    tuple's validated evidence), then majority vote over the entity
//!    class's raw cells, then a deterministic tie-break — so the chase
//!    stays Church–Rosser.
//! 2. **TD** — conflicting temporal orders are resolved by the extended
//!    `Mrank` confidence: whichever direction scores higher is retained.
//! 3. **MI** — multiple imputed candidates: `argmax Mc(t[Ā], c)`.

use rock_data::Value;
use rock_ml::{ModelId, ModelRegistry};

/// Which strategy resolved a conflict (reported in chase stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    GroundTruth,
    Correlation,
    Majority,
    RankConfidence,
    TieBreak,
}

/// Conflict-resolution policy.
#[derive(Debug, Clone, Default)]
pub struct ConflictPolicy {
    /// Correlation model used for CR/MI arbitration, when available.
    pub mc: Option<ModelId>,
    /// Ranking model used for TD arbitration, when available.
    pub mrank: Option<ModelId>,
}

impl ConflictPolicy {
    /// Pick the winning value among candidates for a CR/MI conflict.
    ///
    /// * `trusted` — the value coming from ground truth, if any (wins
    ///   outright).
    /// * `evidence` — the tuple's validated values (input to `Mc`).
    /// * `raw_votes` — raw cell values across the entity class, for the
    ///   majority fallback.
    ///
    /// Returns the winner and which strategy decided.
    pub fn resolve_value(
        &self,
        registry: &ModelRegistry,
        trusted: Option<&Value>,
        evidence: &[Value],
        candidates: &[Value],
        raw_votes: &[Value],
    ) -> Option<(Value, Resolution)> {
        if let Some(t) = trusted {
            return Some((t.clone(), Resolution::GroundTruth));
        }
        let mut cands: Vec<Value> = candidates
            .iter()
            .filter(|c| !c.is_null())
            .cloned()
            .collect();
        cands.sort();
        cands.dedup();
        match cands.as_slice() {
            [] => return None,
            [only] => return Some((only.clone(), Resolution::TieBreak)),
            _ => {}
        }
        // Correlation model, when present and discriminative.
        if let Some(mc) = self.mc {
            let mut scored: Vec<(f64, &Value)> = cands
                .iter()
                .map(|c| (registry.correlation_strength(mc, evidence, c), c))
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(b.1)));
            if scored.len() >= 2 && (scored[0].0 - scored[1].0) > 1e-9 {
                return Some((scored[0].1.clone(), Resolution::Correlation));
            }
        }
        // Majority vote over raw cells.
        let mut best: Option<(usize, &Value)> = None;
        for c in &cands {
            let votes = raw_votes.iter().filter(|v| v.sql_eq(c)).count();
            best = match best {
                Some((n, v)) if n > votes || (n == votes && v <= c) => Some((n, v)),
                _ => Some((votes, c)),
            };
        }
        match best {
            Some((n, v)) if n > 0 => {
                // distinguish true majority from pure tie-break
                let runner_up = cands
                    .iter()
                    .filter(|c| !c.sql_eq(v))
                    .map(|c| raw_votes.iter().filter(|r| r.sql_eq(c)).count())
                    .max()
                    .unwrap_or(0);
                let res = if n > runner_up {
                    Resolution::Majority
                } else {
                    Resolution::TieBreak
                };
                Some((v.clone(), res))
            }
            _ => {
                // no votes at all: deterministic smallest candidate (the
                // list is sorted and non-empty past the guard above)
                cands.into_iter().next().map(|c| (c, Resolution::TieBreak))
            }
        }
    }

    /// Resolve a TD conflict between `t1 ⪯ t2` and `t2 ⪯ t1` using the
    /// extended `Mrank` confidence (§4.2(2)); `true` means keep `t1 ⪯ t2`.
    /// Without a ranking model the first-validated direction is kept
    /// (deterministic).
    pub fn resolve_order(
        &self,
        registry: &ModelRegistry,
        t1_features: &[Value],
        t2_features: &[Value],
    ) -> (bool, Resolution) {
        if let Some(mrank) = self.mrank {
            let fwd = registry.rank_confidence(mrank, t1_features, t2_features);
            let bwd = registry.rank_confidence(mrank, t2_features, t1_features);
            if (fwd - bwd).abs() > 1e-12 {
                return (fwd > bwd, Resolution::RankConfidence);
            }
        }
        (true, Resolution::TieBreak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_ml::correlation::CorrelationModel;
    use rock_ml::rank::{CurrencyConstraint, RankModel};
    use std::sync::Arc;

    #[test]
    fn ground_truth_wins() {
        let reg = ModelRegistry::new();
        let p = ConflictPolicy::default();
        let (v, r) = p
            .resolve_value(
                &reg,
                Some(&Value::str("truth")),
                &[],
                &[Value::str("a"), Value::str("b")],
                &[],
            )
            .unwrap();
        assert_eq!(v, Value::str("truth"));
        assert_eq!(r, Resolution::GroundTruth);
    }

    #[test]
    fn majority_vote() {
        let reg = ModelRegistry::new();
        let p = ConflictPolicy::default();
        let votes = vec![Value::str("a"), Value::str("a"), Value::str("b")];
        let (v, r) = p
            .resolve_value(&reg, None, &[], &[Value::str("a"), Value::str("b")], &votes)
            .unwrap();
        assert_eq!(v, Value::str("a"));
        assert_eq!(r, Resolution::Majority);
    }

    #[test]
    fn correlation_model_arbitrates() {
        let reg = ModelRegistry::new();
        let rows = vec![
            (vec![Value::str("Beijing")], Value::str("010")),
            (vec![Value::str("Beijing")], Value::str("010")),
            (vec![Value::str("Beijing")], Value::str("010")),
            (vec![Value::str("Shanghai")], Value::str("021")),
        ];
        let mc = reg.register_correlation("Mc", Arc::new(CorrelationModel::train(&rows)));
        let p = ConflictPolicy {
            mc: Some(mc),
            mrank: None,
        };
        let (v, r) = p
            .resolve_value(
                &reg,
                None,
                &[Value::str("Beijing")],
                &[Value::str("021"), Value::str("010")],
                &[],
            )
            .unwrap();
        assert_eq!(v, Value::str("010"));
        assert_eq!(r, Resolution::Correlation);
    }

    #[test]
    fn deterministic_tiebreak() {
        let reg = ModelRegistry::new();
        let p = ConflictPolicy::default();
        let (v, r) = p
            .resolve_value(&reg, None, &[], &[Value::str("b"), Value::str("a")], &[])
            .unwrap();
        assert_eq!(v, Value::str("a"), "smallest candidate wins ties");
        assert_eq!(r, Resolution::TieBreak);
    }

    #[test]
    fn null_candidates_filtered() {
        let reg = ModelRegistry::new();
        let p = ConflictPolicy::default();
        assert!(p
            .resolve_value(&reg, None, &[], &[Value::Null], &[])
            .is_none());
        let (v, _) = p
            .resolve_value(&reg, None, &[], &[Value::Null, Value::str("x")], &[])
            .unwrap();
        assert_eq!(v, Value::str("x"));
    }

    #[test]
    fn rank_confidence_resolves_order() {
        let reg = ModelRegistry::new();
        let pairs: Vec<(Vec<Value>, Vec<Value>)> = (0..10)
            .map(|i| {
                (
                    vec![Value::str("single"), Value::Int(100 + i)],
                    vec![Value::str("married"), Value::Int(5000 + i)],
                )
            })
            .collect();
        let constraints = vec![CurrencyConstraint {
            attr_pos: 0,
            earlier: Value::str("single"),
            later: Value::str("married"),
        }];
        let model = RankModel::train_creator_critic(2, &pairs, &constraints, 2, 5);
        let mrank = reg.register_rank("Mrank", Arc::new(model));
        let p = ConflictPolicy {
            mc: None,
            mrank: Some(mrank),
        };
        let early = vec![Value::str("single"), Value::Int(150)];
        let late = vec![Value::str("married"), Value::Int(5500)];
        let (keep_fwd, r) = p.resolve_order(&reg, &early, &late);
        assert!(keep_fwd);
        assert_eq!(r, Resolution::RankConfidence);
        let (keep_fwd2, _) = p.resolve_order(&reg, &late, &early);
        assert!(!keep_fwd2);
    }

    #[test]
    fn order_tiebreak_without_model() {
        let reg = ModelRegistry::new();
        let p = ConflictPolicy::default();
        let (keep, r) = p.resolve_order(&reg, &[Value::Int(1)], &[Value::Int(2)]);
        assert!(keep);
        assert_eq!(r, Resolution::TieBreak);
    }
}
