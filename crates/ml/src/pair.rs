//! Pair classifiers — the `M(t[Ā], s[B̄])` predicates of §2.1(e).
//!
//! "Here M can be any existing ML model that returns a Boolean value, e.g.
//! Mreg ≥ δ for the strength of a regression model and a predefined
//! threshold δ." The trait below is exactly that contract: a score in
//! [0, 1] plus a decision threshold, with a declared per-inference cost so
//! the evaluation harness can account for expensive models (the paper's
//! T5-class baselines lose on exactly this axis).

use crate::features::{
    pair_features, pair_features_prepared, render_join, HashingEmbedder, SideFeatures,
};
use crate::linear::{LogisticRegression, SgdParams};
use crate::text::TextProfile;
use rock_data::Value;

/// One side `t[Ā]` of a pair predicate, featurized once by
/// [`PairClassifier::prepare`] so that each of the many candidate pairs the
/// tuple sits in costs only [`PairClassifier::score_prepared`].
///
/// It always carries the values it was built from; what else it carries is
/// the business of the model that prepared it. A model handed a side it
/// finds no features in falls back to `score` over the values.
#[derive(Debug, Clone)]
pub struct PreparedSide {
    values: Vec<Value>,
    features: Prepared,
}

#[derive(Debug, Clone)]
enum Prepared {
    /// Nothing beyond the values (the trait's default `prepare`).
    Values,
    /// [`NgramPairModel`]: profile of the space-joined rendering.
    Text(TextProfile),
    /// [`TrainedPairModel`]: text profile plus embedding.
    Features(SideFeatures),
}

impl PreparedSide {
    /// A side with no model-specific features.
    pub fn new(values: &[Value]) -> Self {
        PreparedSide {
            values: values.to_vec(),
            features: Prepared::Values,
        }
    }

    /// The value vector this side was prepared from.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

/// A Boolean ML predicate over two value vectors.
///
/// Inference is split in two so that blocking can featurize each tuple once
/// and score it against all its block-mates: for every model,
/// `score_prepared(&prepare(a), &prepare(b))` must equal `score(a, b)` bit
/// for bit. The defaults satisfy that by keeping the values and calling
/// `score`; a model overrides both or neither.
pub trait PairClassifier: Send + Sync {
    /// Match strength in [0, 1].
    fn score(&self, a: &[Value], b: &[Value]) -> f64;

    /// Everything `score` derives from one side alone.
    fn prepare(&self, a: &[Value]) -> PreparedSide {
        PreparedSide::new(a)
    }

    /// `score` over two sides this model prepared.
    fn score_prepared(&self, a: &PreparedSide, b: &PreparedSide) -> f64 {
        self.score(a.values(), b.values())
    }

    /// Decision threshold δ.
    fn threshold(&self) -> f64 {
        0.5
    }

    /// Boolean prediction `M(a, b)`.
    fn predict(&self, a: &[Value], b: &[Value]) -> bool {
        self.score(a, b) >= self.threshold()
    }

    /// Synthetic cost units per inference (see `registry::CostMeter`).
    /// 1.0 ≈ one cheap feature-kernel evaluation; transformer-class models
    /// declare costs orders of magnitude higher.
    fn cost(&self) -> f64 {
        1.0
    }

    /// Blocking key strings for LSH (filter-and-verify, §5.3): tokens of the
    /// rendered values. Models may override to block on a designated field.
    fn blocking_text(&self, a: &[Value]) -> String {
        let mut s = String::new();
        for v in a {
            s.push_str(&v.render());
            s.push(' ');
        }
        s
    }
}

/// Untrained n-gram similarity model: score = mean of edit/Jaccard/trigram
/// kernels. Good default `MER`-style matcher for noisy text.
#[derive(Debug, Clone)]
pub struct NgramPairModel {
    pub threshold: f64,
    pub cost: f64,
}

impl Default for NgramPairModel {
    fn default() -> Self {
        NgramPairModel {
            threshold: 0.7,
            cost: 1.0,
        }
    }
}

impl NgramPairModel {
    pub fn with_threshold(threshold: f64) -> Self {
        NgramPairModel {
            threshold,
            cost: 1.0,
        }
    }
}

impl PairClassifier for NgramPairModel {
    fn score(&self, a: &[Value], b: &[Value]) -> f64 {
        self.score_prepared(&self.prepare(a), &self.prepare(b))
    }

    fn prepare(&self, a: &[Value]) -> PreparedSide {
        PreparedSide {
            values: a.to_vec(),
            features: Prepared::Text(TextProfile::new(&render_join(a))),
        }
    }

    fn score_prepared(&self, a: &PreparedSide, b: &PreparedSide) -> f64 {
        let (Prepared::Text(ta), Prepared::Text(tb)) = (&a.features, &b.features) else {
            return self.score(a.values(), b.values());
        };
        if ta.is_empty() || tb.is_empty() {
            return 0.0;
        }
        (ta.edit_similarity(tb) + ta.token_jaccard(tb) + ta.trigram_cosine(tb)) / 3.0
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn cost(&self) -> f64 {
        self.cost
    }
}

/// Trained pair classifier: logistic regression over [`pair_features`].
/// This is the reproduction's `MER`/`Mlimited`/`Mad`-style model — trained
/// from labeled match/non-match pairs (the workloads generate labels).
#[derive(Debug, Clone)]
pub struct TrainedPairModel {
    pub lr: LogisticRegression,
    pub embedder: HashingEmbedder,
    pub threshold: f64,
    pub cost: f64,
}

impl TrainedPairModel {
    /// Train from labeled pairs.
    pub fn train(
        pairs: &[(Vec<Value>, Vec<Value>, bool)],
        params: SgdParams,
        threshold: f64,
    ) -> Self {
        let embedder = HashingEmbedder::default();
        let xs: Vec<Vec<f64>> = pairs
            .iter()
            .map(|(a, b, _)| pair_features(a, b, &embedder))
            .collect();
        let ys: Vec<bool> = pairs.iter().map(|(_, _, y)| *y).collect();
        let mut lr = LogisticRegression::zeros(xs.first().map(|x| x.len()).unwrap_or(6));
        lr.train(&xs, &ys, params);
        TrainedPairModel {
            lr,
            embedder,
            threshold,
            cost: 2.0,
        }
    }
}

impl PairClassifier for TrainedPairModel {
    fn score(&self, a: &[Value], b: &[Value]) -> f64 {
        self.lr.prob(&pair_features(a, b, &self.embedder))
    }

    fn prepare(&self, a: &[Value]) -> PreparedSide {
        PreparedSide {
            values: a.to_vec(),
            features: Prepared::Features(SideFeatures::new(a, &self.embedder)),
        }
    }

    fn score_prepared(&self, a: &PreparedSide, b: &PreparedSide) -> f64 {
        let (Prepared::Features(fa), Prepared::Features(fb)) = (&a.features, &b.features) else {
            return self.score(a.values(), b.values());
        };
        self.lr
            .prob(&pair_features_prepared(a.values(), fa, b.values(), fb))
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn cost(&self) -> f64 {
        self.cost
    }
}

/// Exact-equality "model" — useful to express plain joins through the same
/// machinery and in tests.
#[derive(Debug, Clone, Default)]
pub struct ExactMatchModel;

impl PairClassifier for ExactMatchModel {
    fn score(&self, a: &[Value], b: &[Value]) -> f64 {
        let same = a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.sql_eq(y));
        if same {
            1.0
        } else {
            0.0
        }
    }

    fn cost(&self) -> f64 {
        0.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ngram_model_matches_discount_codes() {
        // φ1's MER: "IPhone 14 (Discount ID 41)" vs "(Discount Code 41)"
        let m = NgramPairModel::with_threshold(0.6);
        let a = vec![Value::str("IPhone 14 (Discount ID 41)")];
        let b = vec![Value::str("IPhone 14 (Discount Code 41)")];
        let c = vec![Value::str("Mate X2 (Limited Sold)")];
        assert!(m.predict(&a, &b));
        assert!(!m.predict(&a, &c));
    }

    #[test]
    fn ngram_model_null_scores_zero() {
        let m = NgramPairModel::default();
        assert_eq!(m.score(&[Value::Null], &[Value::str("x")]), 0.0);
    }

    #[test]
    fn trained_model_learns_pairs() {
        let mut pairs = Vec::new();
        for i in 0..30 {
            let s = format!("Product {i} deluxe");
            pairs.push((
                vec![Value::str(&s)],
                vec![Value::str(format!("product {i} DELUXE"))],
                true,
            ));
            pairs.push((
                vec![Value::str(&s)],
                vec![Value::str(format!("Gadget {} basic", (i + 13) % 30))],
                false,
            ));
        }
        let m = TrainedPairModel::train(&pairs, SgdParams::default(), 0.5);
        assert!(m.predict(
            &[Value::str("Product 99 deluxe")],
            &[Value::str("product 99 Deluxe")]
        ));
        assert!(!m.predict(
            &[Value::str("Product 99 deluxe")],
            &[Value::str("Completely different thing")]
        ));
    }

    #[test]
    fn exact_match_model() {
        let m = ExactMatchModel;
        assert!(m.predict(&[Value::Int(1)], &[Value::Int(1)]));
        assert!(!m.predict(&[Value::Int(1)], &[Value::Int(2)]));
        assert!(!m.predict(&[Value::Null], &[Value::Null])); // sql_eq
        assert!(!m.predict(&[Value::Int(1)], &[Value::Int(1), Value::Int(2)]));
    }

    /// `NgramPairModel::score` as it was before prepared sides.
    fn reference_ngram_score(a: &[Value], b: &[Value]) -> f64 {
        use crate::text::reference::{edit_similarity, token_jaccard, trigram_cosine};
        let (sa, sb) = (render_join(a), render_join(b));
        if sa.is_empty() || sb.is_empty() {
            return 0.0;
        }
        (edit_similarity(&sa, &sb) + token_jaccard(&sa, &sb) + trigram_cosine(&sa, &sb)) / 3.0
    }

    /// `pair_features` as it was before prepared sides: the three text
    /// kernels over the joined renderings and the cosine of embeddings
    /// computed per call. The last two features read only the values.
    fn reference_pair_features(a: &[Value], b: &[Value], e: &HashingEmbedder) -> Vec<f64> {
        use crate::features::cosine;
        use crate::text::reference::{edit_similarity, token_jaccard, trigram_cosine};
        let (sa, sb) = (render_join(a), render_join(b));
        let mut f = pair_features(a, b, e);
        f[0] = edit_similarity(&sa, &sb);
        f[1] = token_jaccard(&sa, &sb);
        f[2] = trigram_cosine(&sa, &sb);
        f[3] = cosine(&e.embed_values(a), &e.embed_values(b));
        f
    }

    /// Value-vector pairs: every seeded string pair as a one-column side,
    /// then multi-column sides mixing in every other `Value` variant, with
    /// null, empty and unequal-length sides among them.
    fn value_pairs() -> Vec<(Vec<Value>, Vec<Value>)> {
        use crate::text::testgen::{string_pairs, Rng};
        let strings = string_pairs(0x5eed_0002);
        let mut pairs: Vec<(Vec<Value>, Vec<Value>)> = strings
            .iter()
            .map(|(a, b)| (vec![Value::str(a)], vec![Value::str(b)]))
            .collect();
        let mut rng = Rng(0x5eed_0003);
        let other = |rng: &mut Rng| match rng.below(6) {
            0 => Value::Null,
            1 => Value::Int(rng.below(2000) as i64 - 1000),
            2 => Value::Float(rng.below(100_000) as f64 / 64.0 - 500.0),
            3 => Value::Bool(rng.below(2) == 0),
            4 => Value::Date(rng.below(20_000) as i32 - 100),
            _ => Value::str(&strings[rng.below(strings.len())].0),
        };
        for _ in 0..600 {
            let a: Vec<Value> = (0..rng.below(4)).map(|_| other(&mut rng)).collect();
            let b: Vec<Value> = match rng.below(3) {
                0 => a.clone(),
                1 => a.iter().map(|_| other(&mut rng)).collect(),
                _ => (0..rng.below(4)).map(|_| other(&mut rng)).collect(),
            };
            pairs.push((a, b));
        }
        for side in [vec![], vec![Value::Null], vec![Value::Null, Value::Null]] {
            pairs.push((side.clone(), vec![Value::str("x")]));
            pairs.push((vec![Value::str("x")], side.clone()));
            pairs.push((side.clone(), side));
        }
        pairs
    }

    #[test]
    fn ngram_scores_equal_reference_bit_for_bit() {
        let m = NgramPairModel::default();
        for (a, b) in value_pairs() {
            let want = reference_ngram_score(&a, &b).to_bits();
            assert_eq!(m.score(&a, &b).to_bits(), want, "score({a:?}, {b:?})");
            let (pa, pb) = (m.prepare(&a), m.prepare(&b));
            assert_eq!(
                m.score_prepared(&pa, &pb).to_bits(),
                want,
                "score_prepared({a:?}, {b:?})"
            );
        }
    }

    #[test]
    fn trained_scores_equal_reference_bit_for_bit() {
        let pairs = value_pairs();
        let labeled: Vec<_> = pairs
            .iter()
            .take(400)
            .map(|(a, b)| (a.clone(), b.clone(), reference_ngram_score(a, b) > 0.6))
            .collect();
        let m = TrainedPairModel::train(&labeled, SgdParams::default(), 0.5);
        assert!(m.lr.weights.iter().any(|w| *w != 0.0), "model trained");
        for (a, b) in &pairs {
            let want =
                m.lr.prob(&reference_pair_features(a, b, &m.embedder))
                    .to_bits();
            assert_eq!(m.score(a, b).to_bits(), want, "score({a:?}, {b:?})");
            let (pa, pb) = (m.prepare(a), m.prepare(b));
            assert_eq!(
                m.score_prepared(&pa, &pb).to_bits(),
                want,
                "score_prepared({a:?}, {b:?})"
            );
        }
    }

    #[test]
    fn sides_prepared_by_another_model_fall_back_to_the_values() {
        let ngram = NgramPairModel::default();
        let a = [Value::str("IPhone 14 (Discount ID 41)")];
        let b = [Value::str("IPhone 14 (Discount Code 41)")];
        let (pa, pb) = (ExactMatchModel.prepare(&a), ExactMatchModel.prepare(&b));
        assert_eq!(pa.values(), &a);
        assert_eq!(
            ngram.score_prepared(&pa, &pb).to_bits(),
            ngram.score(&a, &b).to_bits()
        );
        assert_eq!(ExactMatchModel.score_prepared(&pa, &pa), 1.0);
    }

    #[test]
    fn blocking_text_joins_values() {
        let m = ExactMatchModel;
        assert_eq!(m.blocking_text(&[Value::str("a"), Value::Int(3)]), "a 3 ");
    }
}
