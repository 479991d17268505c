//! Block filters for ML pair predicates (§5.3/§5.4 filter-and-verify).
//!
//! The blocking pass (`rock_detect`'s `precompute_ml`) scores a model on
//! the LSH candidates of every signature that uses it and installs the
//! verdicts as one [`BlockFilter`] per model, keyed by the two sides'
//! [`pair_key`](rock_data::pair_key)s. The filter answers `predict_pair`
//! for every pair: a scored pair gets its verdict, any other pair `false`.
//! Its accepted pairs, indexed by either side's key, are what the
//! enumerator joins an ML predicate on (`rock_rees::eval`): once one side
//! is bound, the other side's candidates are the tuples whose current key
//! is accepted with the bound key.
//!
//! The registry keeps the last pass ([`BlockingPass`]): a second blocking
//! call over the same column snapshots with the same signatures reinstalls
//! its filters instead of scoring again.

use crate::registry::ModelId;
use rock_crystal::sync::Arc;
use rock_data::{AttrId, ColumnSet, Database, FxHashMap, RelId};

/// Identifies one ML pair-predicate signature: the model plus the two
/// (relation, projection) sides it compares.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PairSignature {
    pub model: ModelId,
    pub lrel: RelId,
    pub lattrs: Vec<AttrId>,
    pub rrel: RelId,
    pub rattrs: Vec<AttrId>,
}

/// One model's blocking verdicts, keyed by `(left key, right key)`.
#[derive(Debug, Default)]
pub struct BlockFilter {
    /// The model's verdict on every scored (candidate) key pair.
    verdicts: FxHashMap<(u64, u64), bool>,
    /// Accepted right keys of each left key, in insertion order.
    by_left: FxHashMap<u64, Vec<u64>>,
    /// Accepted left keys of each right key, in insertion order.
    by_right: FxHashMap<u64, Vec<u64>>,
}

impl BlockFilter {
    /// Record the model's verdict on a candidate key pair. The first
    /// verdict of a pair stands: a model scores equal keys equally.
    pub fn insert(&mut self, left: u64, right: u64, accepted: bool) {
        if self.verdicts.contains_key(&(left, right)) {
            return;
        }
        self.verdicts.insert((left, right), accepted);
        if accepted {
            self.by_left.entry(left).or_default().push(right);
            self.by_right.entry(right).or_default().push(left);
        }
    }

    /// The verdict on a key pair: `None` when blocking did not score it,
    /// which the registry answers `false`.
    pub fn verdict(&self, left: u64, right: u64) -> Option<bool> {
        self.verdicts.get(&(left, right)).copied()
    }

    /// Whether the model accepted the key pair.
    pub fn accepts(&self, left: u64, right: u64) -> bool {
        self.verdict(left, right) == Some(true)
    }

    /// The distinct keys accepted with `key` when it is the left side
    /// (`left = true`) or the right side of the pair.
    pub fn partners(&self, key: u64, left: bool) -> &[u64] {
        let by = if left { &self.by_left } else { &self.by_right };
        by.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Scored key pairs and their verdicts, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = ((u64, u64), bool)> + '_ {
        self.verdicts.iter().map(|(&k, &v)| (k, v))
    }
}

/// Statistics of a blocking pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockingStats {
    /// ML predicates processed.
    pub predicates: usize,
    /// Total possible tuple pairs across predicates.
    pub total_pairs: u64,
    /// Tuple pairs that survived blocking (the model scored their values).
    pub candidate_pairs: u64,
    /// Of those, tuple pairs the model accepted.
    pub matches: u64,
}

/// One blocking pass: the signatures it ran, the column snapshot of every
/// relation it read, each model's filter and the pass's statistics.
///
/// Its filters are a function of the signatures and of the values of the
/// relations they read. A snapshot someone holds never changes (a row
/// write patches a copy of a shared snapshot, or drops it), so while the
/// pass holds its snapshots, `Arc::ptr_eq` with a relation's current
/// snapshot means that relation's values are the ones the pass read.
#[derive(Debug, Default)]
pub struct BlockingPass {
    pub signatures: Vec<PairSignature>,
    pub snapshots: Vec<(RelId, Arc<ColumnSet>)>,
    pub filters: Vec<(ModelId, Arc<BlockFilter>)>,
    pub stats: BlockingStats,
}

impl BlockingPass {
    /// Whether running `signatures` over `db` would compute this pass: the
    /// same signature list, and every snapshot it read still current.
    pub fn ran_over(&self, signatures: &[PairSignature], db: &Database) -> bool {
        self.signatures == signatures
            && self
                .snapshots
                .iter()
                .all(|(rel, set)| Arc::ptr_eq(set, &db.relation(*rel).columns()))
    }
}

/// Kept so that callers of `precompute_ml_indexed` and
/// `ChaseEngine::with_blocking` still compile; it carries nothing. The
/// chase reads the registry's [`BlockFilter`]s through the enumerator's ML
/// join instead of a tuple-level block-mate index.
#[derive(Debug, Default)]
pub struct MlBlockIndex;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_indexes_accepted_pairs_both_ways_once() {
        let mut f = BlockFilter::default();
        f.insert(1, 2, true);
        f.insert(1, 3, false);
        f.insert(4, 2, true);
        f.insert(1, 2, true); // a second signature scoring the same pair
        assert_eq!(f.iter().count(), 3);
        assert_eq!(f.verdict(1, 3), Some(false));
        assert_eq!(f.verdict(3, 1), None);
        assert!(f.accepts(1, 2) && !f.accepts(2, 1) && !f.accepts(1, 3));
        assert_eq!(f.partners(1, true), &[2]);
        assert_eq!(f.partners(2, false), &[1, 4]);
        assert_eq!(f.partners(2, true), &[] as &[u64]);
    }
}
