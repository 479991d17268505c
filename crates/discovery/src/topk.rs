//! Top-k rule discovery under objective + subjective measures, the
//! learned user-preference model, coverage diversification, and the
//! anytime iterator ([37]; paper §3 "Rule discovery" (a)–(b), §5.2 "Prior
//! knowledge learning").
//!
//! * **Objective** measures: support, confidence.
//! * **Subjective** measures: a [`PreferenceModel`] — logistic regression
//!   over structural rule features — trained from user labels ("After a
//!   handful of rules are labeled, Rock takes them as training instances,
//!   and trains a scoring model to learn the preferences of users").
//! * **Diversification**: greedy max-coverage selection so the returned
//!   top-k rules flag *different* data (§5.2: "Rock (optionally) uses the
//!   data coverage as the diversification metric").
//! * **Anytime**: [`AnytimeMiner`] yields the next-best rules on demand
//!   and accepts incremental feedback that retrains the preference model.

use rock_data::FxHashSet;
use rock_ml::linear::{LogisticRegression, SgdParams};
use rock_rees::{Predicate, Rule};

/// A scored rule (index into the candidate pool plus its score parts).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleScore {
    pub rule_index: usize,
    pub objective: f64,
    pub subjective: f64,
    pub total: f64,
}

/// Structural features of a rule for the preference model.
pub fn rule_features(rule: &Rule) -> Vec<f64> {
    let mut n_const = 0.0;
    let mut n_attr = 0.0;
    let mut n_ml = 0.0;
    let mut n_temporal = 0.0;
    let mut n_null = 0.0;
    for p in rule.all_predicates() {
        match p {
            Predicate::Const { .. } => n_const += 1.0,
            Predicate::Attr { .. } => n_attr += 1.0,
            Predicate::Temporal { .. } | Predicate::MlRank { .. } => n_temporal += 1.0,
            Predicate::IsNull { .. } => n_null += 1.0,
            p if p.is_ml() => n_ml += 1.0,
            _ => {}
        }
    }
    vec![
        rule.precondition.len() as f64 / 4.0,
        n_const / 4.0,
        n_attr / 4.0,
        n_ml / 2.0,
        n_temporal / 2.0,
        n_null,
        rule.support.min(1.0),
        rule.confidence,
        rule.uses_ml() as u8 as f64,
    ]
}

/// Learned user-preference model over rule features.
#[derive(Debug, Clone)]
pub struct PreferenceModel {
    lr: LogisticRegression,
    trained: bool,
}

impl Default for PreferenceModel {
    fn default() -> Self {
        Self::new()
    }
}

impl PreferenceModel {
    pub fn new() -> Self {
        PreferenceModel {
            lr: LogisticRegression::zeros(9),
            trained: false,
        }
    }

    /// Train from labeled rules (true = useful).
    pub fn train(&mut self, labeled: &[(&Rule, bool)]) {
        if labeled.is_empty() {
            return;
        }
        let xs: Vec<Vec<f64>> = labeled.iter().map(|(r, _)| rule_features(r)).collect();
        let ys: Vec<bool> = labeled.iter().map(|(_, y)| *y).collect();
        self.lr = LogisticRegression::zeros(9);
        self.lr.train(&xs, &ys, SgdParams::default());
        self.trained = true;
    }

    /// Preference score in [0, 1]; 0.5 (neutral) before any training.
    pub fn score(&self, rule: &Rule) -> f64 {
        if !self.trained {
            return 0.5;
        }
        self.lr.prob(&rule_features(rule))
    }

    pub fn is_trained(&self) -> bool {
        self.trained
    }
}

/// Score all rules: `total = w_obj · (supp_norm + conf)/2 + w_subj · pref`.
/// `supp_norm` rescales log-support into [0, 1] (raw support spans many
/// orders of magnitude).
pub fn score_rules(
    rules: &[Rule],
    pref: &PreferenceModel,
    w_objective: f64,
    w_subjective: f64,
) -> Vec<RuleScore> {
    rules
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let supp_norm = if r.support <= 0.0 {
                0.0
            } else {
                // map 1e-8..1 to 0..1 on a log scale
                ((r.support.log10() + 8.0) / 8.0).clamp(0.0, 1.0)
            };
            let objective = (supp_norm + r.confidence) / 2.0;
            let subjective = pref.score(r);
            RuleScore {
                rule_index: i,
                objective,
                subjective,
                total: w_objective * objective + w_subjective * subjective,
            }
        })
        .collect()
}

/// Greedy diversified top-k: pick the highest-scored rule whose *coverage*
/// (the set of tuples its precondition touches, supplied by the caller)
/// adds the most uncovered elements, scaled by its score.
pub fn diversified_top_k(
    scores: &[RuleScore],
    coverage: &[FxHashSet<u32>],
    k: usize,
) -> Vec<usize> {
    assert_eq!(scores.len(), coverage.len());
    let mut chosen: Vec<usize> = Vec::new();
    let mut covered: FxHashSet<u32> = FxHashSet::default();
    let mut remaining: Vec<usize> = (0..scores.len()).collect();
    while chosen.len() < k && !remaining.is_empty() {
        let Some((pos, &best)) = remaining.iter().enumerate().max_by(|(_, &a), (_, &b)| {
            let ga = gain(&covered, &coverage[a], scores[a].total);
            let gb = gain(&covered, &coverage[b], scores[b].total);
            ga.total_cmp(&gb).then_with(|| b.cmp(&a))
        }) else {
            break;
        };
        chosen.push(best);
        covered.extend(coverage[best].iter().copied());
        remaining.remove(pos);
    }
    chosen
}

fn gain(covered: &FxHashSet<u32>, cov: &FxHashSet<u32>, score: f64) -> f64 {
    let fresh = cov.iter().filter(|x| !covered.contains(x)).count();
    score * (1.0 + fresh as f64)
}

/// Anytime top-k miner: holds a scored candidate pool, yields the next
/// best batch on demand, and accepts feedback that re-ranks the remainder
/// ("an anytime algorithm to continually return the next top-k results …
/// iteratively gathers feedback from the users and incrementally trains
/// the model").
pub struct AnytimeMiner {
    pool: Vec<Rule>,
    emitted: FxHashSet<usize>,
    pref: PreferenceModel,
    feedback: Vec<(usize, bool)>,
    pub w_objective: f64,
    pub w_subjective: f64,
}

impl AnytimeMiner {
    pub fn new(pool: Vec<Rule>) -> Self {
        AnytimeMiner {
            pool,
            emitted: FxHashSet::default(),
            pref: PreferenceModel::new(),
            feedback: Vec::new(),
            w_objective: 0.6,
            w_subjective: 0.4,
        }
    }

    /// Number of rules not yet emitted.
    pub fn remaining(&self) -> usize {
        self.pool.len() - self.emitted.len()
    }

    /// Yield the next `k` best un-emitted rules (indices into the pool).
    pub fn next_k(&mut self, k: usize) -> Vec<usize> {
        let scores = score_rules(&self.pool, &self.pref, self.w_objective, self.w_subjective);
        let mut order: Vec<usize> = (0..self.pool.len())
            .filter(|i| !self.emitted.contains(i))
            .collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .total
                .total_cmp(&scores[a].total)
                .then_with(|| a.cmp(&b))
        });
        order.truncate(k);
        self.emitted.extend(order.iter().copied());
        order
    }

    /// Record user feedback on an emitted rule and retrain the preference
    /// model incrementally.
    pub fn feedback(&mut self, rule_index: usize, useful: bool) {
        self.feedback.push((rule_index, useful));
        let labeled: Vec<(&Rule, bool)> = self
            .feedback
            .iter()
            .map(|(i, y)| (&self.pool[*i], *y))
            .collect();
        self.pref.train(&labeled);
    }

    pub fn rule(&self, i: usize) -> &Rule {
        &self.pool[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrId, RelId};
    use rock_rees::{CmpOp, ModelRef};

    fn rule(name: &str, supp: f64, conf: f64, ml: bool) -> Rule {
        let mut pre = vec![Predicate::Attr {
            lvar: 0,
            lattr: AttrId(0),
            op: CmpOp::Eq,
            rvar: 1,
            rattr: AttrId(0),
        }];
        if ml {
            pre.push(Predicate::Ml {
                model: ModelRef::named("M"),
                lvar: 0,
                lattrs: vec![AttrId(0)],
                rvar: 1,
                rattrs: vec![AttrId(0)],
            });
        }
        let mut r = Rule::new(
            name,
            vec![("t".into(), RelId(0)), ("s".into(), RelId(0))],
            vec![],
            pre,
            Predicate::Attr {
                lvar: 0,
                lattr: AttrId(1),
                op: CmpOp::Eq,
                rvar: 1,
                rattr: AttrId(1),
            },
        );
        r.support = supp;
        r.confidence = conf;
        r
    }

    #[test]
    fn objective_scores_order_by_measures() {
        let rules = vec![
            rule("good", 1e-2, 0.99, false),
            rule("weak", 1e-7, 0.9, false),
        ];
        let pref = PreferenceModel::new();
        let scores = score_rules(&rules, &pref, 1.0, 0.0);
        assert!(scores[0].total > scores[1].total);
        assert_eq!(scores[0].subjective, 0.5);
    }

    #[test]
    fn preference_model_learns_ml_bias() {
        // user likes ML rules
        let ml_rules: Vec<Rule> = (0..10)
            .map(|i| rule(&format!("m{i}"), 1e-3, 0.95, true))
            .collect();
        let plain: Vec<Rule> = (0..10)
            .map(|i| rule(&format!("p{i}"), 1e-3, 0.95, false))
            .collect();
        let mut labeled: Vec<(&Rule, bool)> = Vec::new();
        labeled.extend(ml_rules.iter().map(|r| (r, true)));
        labeled.extend(plain.iter().map(|r| (r, false)));
        let mut pref = PreferenceModel::new();
        pref.train(&labeled);
        assert!(pref.is_trained());
        assert!(
            pref.score(&rule("x", 1e-3, 0.95, true)) > pref.score(&rule("y", 1e-3, 0.95, false))
        );
    }

    #[test]
    fn diversified_topk_prefers_fresh_coverage() {
        let rules = vec![
            rule("a", 1e-2, 0.99, false),
            rule("b", 1e-2, 0.98, false),
            rule("c", 1e-2, 0.97, false),
        ];
        let pref = PreferenceModel::new();
        let scores = score_rules(&rules, &pref, 1.0, 0.0);
        // a and b cover the same tuples; c covers different ones
        let coverage = vec![
            [1u32, 2, 3].into_iter().collect(),
            [1u32, 2, 3].into_iter().collect(),
            [7u32, 8].into_iter().collect(),
        ];
        let picked = diversified_top_k(&scores, &coverage, 2);
        assert_eq!(picked.len(), 2);
        assert!(picked.contains(&0));
        assert!(
            picked.contains(&2),
            "diversification must pick c over b: {picked:?}"
        );
    }

    #[test]
    fn anytime_yields_disjoint_batches_and_learns() {
        let pool: Vec<Rule> = (0..6)
            .map(|i| {
                rule(
                    &format!("r{i}"),
                    1e-3 * (i + 1) as f64,
                    0.9 + 0.01 * i as f64,
                    i % 2 == 0,
                )
            })
            .collect();
        let mut miner = AnytimeMiner::new(pool);
        let first = miner.next_k(2);
        let second = miner.next_k(2);
        assert_eq!(first.len(), 2);
        assert_eq!(second.len(), 2);
        assert!(first.iter().all(|i| !second.contains(i)));
        assert_eq!(miner.remaining(), 2);
        // feedback flows into the preference model
        miner.feedback(first[0], true);
        miner.feedback(first[1], false);
        let third = miner.next_k(10);
        assert_eq!(third.len(), 2);
        assert_eq!(miner.remaining(), 0);
    }

    #[test]
    fn rule_features_shape() {
        let f = rule_features(&rule("x", 0.5, 0.9, true));
        assert_eq!(f.len(), 9);
        assert_eq!(f[8], 1.0);
    }
}
