//! # rock-discovery — REE++ rule discovery (paper §3, §5.2, §5.4)
//!
//! Rock mines/learns REE++s from (possibly large, possibly dirty) data.
//! This crate implements the discovery stack:
//!
//! * [`space`] — predicate-space construction from the schema, column
//!   statistics and the registered ML models ("predicates, to construct
//!   predicates and corresponding auxiliary structures", §5.3 Fig. 3).
//! * [`cache`] — the predicate satisfaction-bitset cache: each predicate is
//!   evaluated once per instance set (ML inference included), materialized
//!   as a dense bitset, and candidate measures reduce to AND+popcount. A
//!   byte budget with LRU spill bounds residency.
//! * [`levelwise`] — the core miner: levelwise search over precondition
//!   conjunctions with support/confidence thresholds and anti-monotone
//!   pruning, parallelized over Crystal work units.
//! * [`sampling`] — multi-round sampling with probabilistic accuracy
//!   guarantees ([36]): mine on a fraction of D, with Hoeffding bounds
//!   connecting sample support/confidence to their true values.
//! * [`topk`] — top-k discovery under objective (support, confidence,
//!   coverage diversification) and subjective (learned user preference)
//!   measures, plus the anytime iterator ([37]).
//! * [`prune`] — the polynomial-expression learner (XGBoost-style feature
//!   ranking + LASSO) of §5.4.

// Mining runs on the Crystal cluster's worker threads: a panic in a
// candidate evaluation quarantines the unit and silently shrinks the
// mined ruleset, so non-test code surfaces errors as values (same gate
// as the engine crates).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod levelwise;
pub mod prune;
pub mod sampling;
pub mod space;
pub mod topk;

pub use cache::{BitsetCache, CacheStats, PredicateBitsets};
pub use levelwise::{Discoverer, DiscoveryConfig};
pub use space::PredicateSpace;
pub use topk::{AnytimeMiner, PreferenceModel};
