//! Reusable LSH blocking index for ML pair predicates (§5.3/§5.4
//! filter-and-verify, re-used by the semi-naive chase).
//!
//! The detection-time blocking pass (`rock_detect`'s `precompute_ml`)
//! already computes, for every ML pair-predicate signature, which tuple
//! pairs are LSH block-mates — everything else is memoized `false`. This
//! module captures that information in a *tuple-level* index so the chase
//! can turn "enumerate all partners of a delta tuple" into "enumerate its
//! block-mates": for a pinned tuple `d`, any tuple `s` with `M(d, s)` true
//! must share an LSH bucket with `d` (up to the usual LSH recall caveat the
//! block filter already accepts), so the non-pinned variable only scans
//! `mates(d)` instead of the whole relation.
//!
//! **Staleness contract.** Block-mate lists are computed from *build-time*
//! attribute values. The index therefore stores each tuple's build-time
//! [`ModelRegistry::pair_key`](crate::ModelRegistry::pair_key) so consumers
//! can detect that a tuple's projection changed since the build and fall
//! back to a full scan (the chase additionally unions in its cumulative
//! dirty set; see DESIGN.md).

use crate::registry::ModelId;
use rock_data::{AttrId, FxHashMap, RelId, TupleId};

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

/// Tuple-level blocking index for one signature.
#[derive(Debug, Default, Clone)]
pub struct PairBlockIndex {
    /// Build-time `pair_key` of every left-relation tuple's projection.
    pub left_key: FxHashMap<TupleId, u64>,
    /// Build-time `pair_key` of every right-relation tuple's projection.
    pub right_key: FxHashMap<TupleId, u64>,
    /// Right-relation block-mates of each left tuple.
    pub left_mates: FxHashMap<TupleId, Vec<TupleId>>,
    /// Left-relation block-mates of each right tuple.
    pub right_mates: FxHashMap<TupleId, Vec<TupleId>>,
}

impl PairBlockIndex {
    /// Block-mates of `tid` when it binds the left (`left = true`) or
    /// right variable of the predicate. Empty slice when the tuple shares
    /// no bucket with anything.
    pub fn mates(&self, tid: TupleId, left: bool) -> &[TupleId] {
        let m = if left {
            &self.left_mates
        } else {
            &self.right_mates
        };
        m.get(&tid).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The build-time projection key of `tid` on the given side, if the
    /// tuple existed at build time.
    pub fn build_key(&self, tid: TupleId, left: bool) -> Option<u64> {
        let k = if left {
            &self.left_key
        } else {
            &self.right_key
        };
        k.get(&tid).copied()
    }
}

/// All per-signature blocking indexes built in one precomputation pass.
#[derive(Debug, Default)]
pub struct MlBlockIndex {
    entries: FxHashMap<PairSignature, PairBlockIndex>,
}

impl MlBlockIndex {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, sig: PairSignature, idx: PairBlockIndex) {
        self.entries.insert(sig, idx);
    }

    pub fn get(&self, sig: &PairSignature) -> Option<&PairBlockIndex> {
        self.entries.get(sig)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> PairSignature {
        PairSignature {
            model: ModelId(0),
            lrel: RelId(0),
            lattrs: vec![AttrId(1)],
            rrel: RelId(0),
            rattrs: vec![AttrId(1)],
        }
    }

    #[test]
    fn mates_and_keys_round_trip() {
        let mut idx = PairBlockIndex::default();
        idx.left_key.insert(TupleId(0), 11);
        idx.right_key.insert(TupleId(1), 22);
        idx.left_mates.insert(TupleId(0), vec![TupleId(1)]);
        idx.right_mates.insert(TupleId(1), vec![TupleId(0)]);
        assert_eq!(idx.mates(TupleId(0), true), &[TupleId(1)]);
        assert_eq!(idx.mates(TupleId(1), false), &[TupleId(0)]);
        assert_eq!(idx.mates(TupleId(9), true), &[] as &[TupleId]);
        assert_eq!(idx.build_key(TupleId(0), true), Some(11));
        assert_eq!(idx.build_key(TupleId(0), false), None);

        let mut all = MlBlockIndex::new();
        assert!(all.is_empty());
        all.insert(sig(), idx);
        assert_eq!(all.len(), 1);
        assert!(all.get(&sig()).is_some());
    }
}
