//! # rock-ml — the embedded-ML substrate
//!
//! REE++ rules embed ML classifiers *as predicates* (paper §2.1(e)): any
//! model that returns a Boolean on a pair of attribute vectors can appear in
//! a rule. The paper uses BERT-class NLP models, an LSTM for `match`, a
//! pairwise ranking network `Mrank` trained under a creator–critic loop, and
//! correlation models `Mc`/`Md` combining graph and language-model
//! embeddings. Those exact networks are proprietary-scale; per DESIGN.md §1
//! this crate substitutes deterministic, trainable, feature-based models
//! that expose the identical interfaces and — crucially for the evaluation —
//! a *per-inference cost model* so the paper's relative runtime shapes
//! reproduce.
//!
//! Modules:
//! * [`text`] — tokenizers, n-grams, string similarity kernels
//!   (Levenshtein, Jaccard, cosine).
//! * [`features`] — hashing-trick feature vectors and embeddings.
//! * [`linear`] — logistic regression (SGD) and LASSO coordinate descent
//!   (the polynomial-expression learner of §5.4 uses LASSO).
//! * [`tree`] — decision stumps + gradient boosting; feature-importance
//!   ranking stands in for the XGBoost attribute pruning of §5.4.
//! * [`pair`] — pair classifiers `M(t[Ā], s[B̄])` (the ER-style predicates).
//! * [`rank`] — `Mrank(t1, t2, ⊗A)` pairwise temporal ranking with
//!   creator–critic training (§2.2, [42]).
//! * [`correlation`] — `Mc` correlation strength and `Md` value prediction
//!   (§2.3).
//! * [`her`] — heterogeneous entity resolution `HER(t, x)` across a
//!   relation and a knowledge graph ([31]).
//! * [`lsh`] — MinHash LSH blocking for ML predicates (§5.3/§5.4
//!   filter-and-verify).
//! * [`registry`] — the model registry REE++ predicates reference by name,
//!   with memoized inference and cost accounting.

// Model inference runs inside rule evaluation on worker threads: a panic
// there voids a chase round or a discovery sweep, so non-test code
// surfaces errors as values (same gate as the engine crates).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod block_index;
pub mod correlation;
pub mod features;
pub mod her;
pub mod linear;
pub mod lsh;
pub mod pair;
pub mod rank;
pub mod registry;
pub mod text;
pub mod tree;

pub use block_index::{MlBlockIndex, PairBlockIndex, PairSignature};
pub use correlation::{CorrelationModel, ValuePredictor};
pub use her::HerModel;
pub use lsh::MinHashLsh;
pub use pair::{NgramPairModel, PairClassifier, PreparedSide};
pub use rank::RankModel;
pub use registry::{CostMeter, ModelId, ModelRegistry};
