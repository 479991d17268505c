//! `Mrank` — the pairwise temporal ranking model of §2.2, trained under the
//! creator–critic framework of [42].
//!
//! The paper: "Mrank is trained by arranging values chronologically by their
//! distances to a target in the embedding space, and using the distance to
//! quantify the timeliness." Concretely we learn a per-tuple *currency
//! score* `g(t)` (a linear model over embedding + numeric features) such
//! that `t1 ⪯A t2` iff `g(t1) ≤ g(t2)`. The pairwise confidence is
//! `σ(g(t2) − g(t1))` — this is the 0-to-1 confidence that §4.2(2) uses for
//! TD conflict resolution.
//!
//! The **creator** fits `g` from labeled ordered pairs; the **critic**
//! validates the induced ranking against *currency constraints* (e.g.
//! "status: single before married", φ4) and the transitive closure of the
//! training pairs, producing augmented training data for the next round.

use crate::features::HashingEmbedder;
use crate::linear::sigmoid;
use rock_data::{rng::StdRng, Value};

/// A currency constraint on a categorical attribute: within the feature
/// tuple, position `attr_pos`'s value `earlier` precedes `later`
/// chronologically (cf. [34]).
#[derive(Debug, Clone)]
pub struct CurrencyConstraint {
    pub attr_pos: usize,
    pub earlier: Value,
    pub later: Value,
}

/// The pairwise ranking model. Feature tuples are fixed-width slices of
/// [`Value`]s (the caller projects the relevant attributes).
#[derive(Debug, Clone)]
pub struct RankModel {
    weights: Vec<f64>,
    embedder: HashingEmbedder,
    width: usize,
}

impl RankModel {
    fn feature_dim(embedder: &HashingEmbedder, width: usize) -> usize {
        embedder.dim + width
    }

    /// Per-tuple features: mean embedding of the values plus the raw
    /// numeric view of each position (nulls → 0).
    fn features(&self, t: &[Value]) -> Vec<f64> {
        let mut f = self.embedder.embed_values(t);
        for v in t.iter().take(self.width) {
            f.push(v.as_f64().map(|x| x.tanh_scaled()).unwrap_or(0.0));
        }
        f.resize(Self::feature_dim(&self.embedder, self.width), 0.0);
        f
    }

    /// Currency score `g(t)`; larger = more current.
    pub fn currency(&self, t: &[Value]) -> f64 {
        let f = self.features(t);
        self.weights.iter().zip(&f).map(|(w, x)| w * x).sum()
    }

    /// Confidence that `t1 ⪯ t2` (t2 at least as current as t1), in [0, 1].
    pub fn confidence(&self, t1: &[Value], t2: &[Value]) -> f64 {
        sigmoid(self.currency(t2) - self.currency(t1))
    }

    /// Boolean prediction `Mrank(t1, t2, ⪯)` at threshold 0.5.
    pub fn predict_before(&self, t1: &[Value], t2: &[Value]) -> bool {
        self.confidence(t1, t2) >= 0.5
    }

    /// Train under the creator–critic loop.
    ///
    /// `pairs` are labeled ordered pairs `(earlier, later)`; `constraints`
    /// are currency constraints the critic enforces; `rounds` alternations.
    pub fn train_creator_critic(
        width: usize,
        pairs: &[(Vec<Value>, Vec<Value>)],
        constraints: &[CurrencyConstraint],
        rounds: usize,
        seed: u64,
    ) -> Self {
        let embedder = HashingEmbedder::default();
        let dim = Self::feature_dim(&embedder, width);
        let mut model = RankModel {
            weights: vec![0.0; dim],
            embedder,
            width,
        };
        let mut training: Vec<(Vec<Value>, Vec<Value>)> = pairs.to_vec();
        for round in 0..rounds.max(1) {
            // Creator: fit g on current training pairs (pairwise logistic).
            model.fit_pairs(&training, seed.wrapping_add(round as u64));
            // Critic: deduce more ordered pairs from constraints applied to
            // the training pool, and keep only pairs the constraints do not
            // contradict. (The critic of [42] validates with currency
            // constraints and deduces more ranked pairs.)
            let mut augmented = Vec::new();
            for (a, b) in &training {
                match constraint_verdict(a, b, constraints) {
                    Some(false) => continue, // contradicted: drop
                    _ => augmented.push((a.clone(), b.clone())),
                }
            }
            // Deduce fresh pairs: any two tuples related by a constraint.
            let pool: Vec<&Vec<Value>> = training.iter().flat_map(|(a, b)| [a, b]).collect();
            for i in 0..pool.len() {
                for j in 0..pool.len() {
                    if i == j {
                        continue;
                    }
                    if constraint_verdict(pool[i], pool[j], constraints) == Some(true) {
                        augmented.push((pool[i].clone(), pool[j].clone()));
                    }
                }
            }
            augmented.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
            augmented.dedup();
            training = augmented;
        }
        model.fit_pairs(&training, seed.wrapping_mul(31).wrapping_add(17));
        model
    }

    /// Pairwise logistic fit: maximize σ(g(later) − g(earlier)).
    fn fit_pairs(&mut self, pairs: &[(Vec<Value>, Vec<Value>)], seed: u64) {
        if pairs.is_empty() {
            return;
        }
        let feats: Vec<(Vec<f64>, Vec<f64>)> = pairs
            .iter()
            .map(|(a, b)| (self.features(a), self.features(b)))
            .collect();
        let mut order: Vec<usize> = (0..feats.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        self.weights.iter_mut().for_each(|w| *w = 0.0);
        for epoch in 0..80 {
            rng.shuffle(&mut order);
            let lr = 0.5 / (1.0 + epoch as f64 * 0.05);
            for &i in &order {
                let (fa, fb) = &feats[i];
                let diff: Vec<f64> = fb.iter().zip(fa).map(|(x, y)| x - y).collect();
                let z: f64 = self.weights.iter().zip(&diff).map(|(w, d)| w * d).sum();
                let err = sigmoid(z) - 1.0; // label is always "later after earlier"
                for (w, d) in self.weights.iter_mut().zip(&diff) {
                    *w -= lr * (err * d + 1e-4 * *w);
                }
            }
        }
    }

    /// F-measure of the model on held-out labeled pairs (the paper reports
    /// Mrank F-measure consistently above 0.80).
    pub fn f_measure(&self, pairs: &[(Vec<Value>, Vec<Value>)]) -> f64 {
        if pairs.is_empty() {
            return 1.0;
        }
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fnn = 0usize;
        for (a, b) in pairs {
            // true direction: a ⪯ b
            if self.predict_before(a, b) {
                tp += 1;
            } else {
                fnn += 1;
            }
            // reversed pair should be rejected
            if self.predict_before(b, a) && self.confidence(b, a) > self.confidence(a, b) {
                fp += 1;
            }
        }
        let prec = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let rec = if tp + fnn == 0 {
            0.0
        } else {
            tp as f64 / (tp + fnn) as f64
        };
        if prec + rec == 0.0 {
            0.0
        } else {
            2.0 * prec * rec / (prec + rec)
        }
    }
}

/// Does `(a, b)` agree (Some(true)), disagree (Some(false)) or say nothing
/// (None) about the constraints? `(a, b)` is read as "a earlier, b later".
fn constraint_verdict(
    a: &[Value],
    b: &[Value],
    constraints: &[CurrencyConstraint],
) -> Option<bool> {
    let mut verdict = None;
    for c in constraints {
        let (va, vb) = (a.get(c.attr_pos)?, b.get(c.attr_pos)?);
        if *va == c.earlier && *vb == c.later {
            verdict = Some(true);
        } else if *va == c.later && *vb == c.earlier {
            return Some(false);
        }
    }
    verdict
}

/// Small helper: squash a numeric value into [-1, 1] with a smooth,
/// scale-tolerant transform.
trait TanhScaled {
    fn tanh_scaled(self) -> f64;
}

impl TanhScaled for f64 {
    fn tanh_scaled(self) -> f64 {
        (self / 1e4).tanh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status_pairs() -> Vec<(Vec<Value>, Vec<Value>)> {
        // (earlier, later): single → married, sales grows monotonically
        let mut pairs = Vec::new();
        for i in 0..20 {
            pairs.push((
                vec![Value::str("single"), Value::Int(1000 + i * 10)],
                vec![Value::str("married"), Value::Int(5000 + i * 10)],
            ));
        }
        pairs
    }

    fn constraints() -> Vec<CurrencyConstraint> {
        vec![CurrencyConstraint {
            attr_pos: 0,
            earlier: Value::str("single"),
            later: Value::str("married"),
        }]
    }

    #[test]
    fn learns_monotone_ordering() {
        let m = RankModel::train_creator_critic(2, &status_pairs(), &constraints(), 2, 42);
        let early = vec![Value::str("single"), Value::Int(1200)];
        let late = vec![Value::str("married"), Value::Int(5100)];
        assert!(m.predict_before(&early, &late));
        assert!(m.confidence(&early, &late) > m.confidence(&late, &early));
    }

    #[test]
    fn f_measure_above_paper_bar() {
        let m = RankModel::train_creator_critic(2, &status_pairs(), &constraints(), 2, 42);
        // Paper: "Mrank has F-measure consistently above 0.80".
        let held_out = vec![
            (
                vec![Value::str("single"), Value::Int(1111)],
                vec![Value::str("married"), Value::Int(7777)],
            ),
            (
                vec![Value::str("single"), Value::Int(900)],
                vec![Value::str("married"), Value::Int(4500)],
            ),
        ];
        assert!(m.f_measure(&held_out) > 0.8);
    }

    #[test]
    fn critic_drops_contradicting_pairs() {
        // One poisoned pair (married before single) must be filtered by the
        // critic, so the model still learns the right direction.
        let mut pairs = status_pairs();
        pairs.push((
            vec![Value::str("married"), Value::Int(9000)],
            vec![Value::str("single"), Value::Int(100)],
        ));
        let m = RankModel::train_creator_critic(2, &pairs, &constraints(), 3, 1);
        let early = vec![Value::str("single"), Value::Int(1000)];
        let late = vec![Value::str("married"), Value::Int(6000)];
        assert!(m.predict_before(&early, &late));
    }

    #[test]
    fn constraint_verdict_cases() {
        let cs = constraints();
        assert_eq!(
            constraint_verdict(&[Value::str("single")], &[Value::str("married")], &cs),
            Some(true)
        );
        assert_eq!(
            constraint_verdict(&[Value::str("married")], &[Value::str("single")], &cs),
            Some(false)
        );
        assert_eq!(
            constraint_verdict(&[Value::str("x")], &[Value::str("y")], &cs),
            None
        );
    }

    #[test]
    fn confidence_is_probability() {
        let m = RankModel::train_creator_critic(2, &status_pairs(), &constraints(), 1, 3);
        let a = vec![Value::str("single"), Value::Int(1)];
        let b = vec![Value::str("married"), Value::Int(2)];
        let c = m.confidence(&a, &b);
        assert!((0.0..=1.0).contains(&c));
        assert!((m.confidence(&a, &b) + m.confidence(&b, &a) - 1.0).abs() < 1e-9);
    }
}
