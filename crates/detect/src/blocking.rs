//! Filter-and-verify pre-computation for ML predicates (paper §5.3/§5.4).
//!
//! "Given M(t[Ā], s[B̄]), Rock adopts the filter-and-verify paradigm such
//! that (a) a blocking algorithm is first evoked to retrieve a candidate
//! set of potentially matching tuple ID pairs, and then (b) it finds the
//! true matching pairs in the candidate set."
//!
//! For every ML predicate of every rule, this module builds a MinHash LSH
//! index over the left side's blocking text, queries it with the right
//! side, runs the model only on candidate pairs, and memoizes everything —
//! candidates with the model's real output, non-candidates with `false`.
//! Rule evaluation afterwards never pays inference cost: every
//! `predict_pair` call hits the memo.

use rock_data::{AttrId, Database, FxHashMap, FxHashSet, Relation, TupleId};
use rock_ml::pair::PreparedSide;
use rock_ml::{
    MinHashLsh, MlBlockIndex, ModelId, ModelRegistry, PairBlockIndex, PairClassifier, PairSignature,
};
use rock_rees::{Predicate, RuleSet};

/// Statistics of a pre-computation pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockingStats {
    /// ML predicates processed.
    pub predicates: usize,
    /// Total possible pairs across predicates.
    pub total_pairs: u64,
    /// Pairs that survived blocking (model actually ran on these).
    pub candidate_pairs: u64,
    /// Of those, pairs the model accepted.
    pub matches: u64,
}

impl BlockingStats {
    /// Fraction of pairs pruned without inference.
    pub fn pruned_fraction(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            1.0 - self.candidate_pairs as f64 / self.total_pairs as f64
        }
    }
}

/// Pre-compute all binary ML predicates of `rules` over `db`.
pub fn precompute_ml(db: &Database, rules: &RuleSet, registry: &ModelRegistry) -> BlockingStats {
    precompute_ml_indexed(db, rules, registry).0
}

/// One tuple's projection, with everything the pass derives from it alone.
struct Side {
    tid: TupleId,
    /// Memo and filter key of the projection.
    key: u64,
    /// LSH band keys of the model's blocking text.
    bands: Vec<u64>,
    prepared: PreparedSide,
}

/// Project every live tuple of `rel` on `attrs` and derive, once per tuple,
/// what would otherwise be recomputed for each candidate pair it is in.
fn prepare_sides(
    rel: &Relation,
    attrs: &[AttrId],
    classifier: &dyn PairClassifier,
    lsh: &MinHashLsh,
) -> Vec<Side> {
    rel.iter()
        .map(|t| {
            let vals = t.project(attrs);
            Side {
                tid: t.tid,
                key: ModelRegistry::pair_key(&vals),
                bands: lsh.band_keys(&classifier.blocking_text(&vals)),
                prepared: classifier.prepare(&vals),
            }
        })
        .collect()
}

/// Like [`precompute_ml`], additionally returning the tuple-level
/// [`MlBlockIndex`] built in the same pass — the semi-naive chase consumes
/// it to enumerate block-mates of delta tuples instead of whole relations.
pub fn precompute_ml_indexed(
    db: &Database,
    rules: &RuleSet,
    registry: &ModelRegistry,
) -> (BlockingStats, MlBlockIndex) {
    let mut stats = BlockingStats::default();
    let mut index = MlBlockIndex::new();
    // A model's block filter is the union over every signature that uses
    // the model: installed per signature, a later one would turn all pairs
    // of an earlier one into non-candidates.
    let mut filters: FxHashMap<ModelId, FxHashSet<(u64, u64)>> = FxHashMap::default();
    for rule in rules.iter() {
        for p in rule.all_predicates() {
            let Predicate::Ml {
                model,
                lvar,
                lattrs,
                rvar,
                rattrs,
            } = p
            else {
                continue;
            };
            // one pass per (model, relations, attrs) signature
            let sig = PairSignature {
                model: model.resolved(),
                lrel: rule.rel_of(*lvar),
                lattrs: lattrs.clone(),
                rrel: rule.rel_of(*rvar),
                rattrs: rattrs.clone(),
            };
            if index.get(&sig).is_some() {
                continue;
            }
            let id = sig.model;
            let Some(classifier) = registry.pair(id) else {
                continue;
            };
            stats.predicates += 1;

            // Both sides are featurized here and dropped with this
            // iteration: at any time only one signature's sides are alive.
            let mut lsh = MinHashLsh::new(16, 2);
            let left = prepare_sides(db.relation(sig.lrel), lattrs, classifier.as_ref(), &lsh);
            let self_join = sig.lrel == sig.rrel && lattrs == rattrs;
            let other = (!self_join)
                .then(|| prepare_sides(db.relation(sig.rrel), rattrs, classifier.as_ref(), &lsh));
            let right = other.as_ref().unwrap_or(&left);

            let mut pair_idx = PairBlockIndex::default();
            // index the left side, by position in `left`
            for (i, l) in left.iter().enumerate() {
                lsh.insert_keys(i as u32, &l.bands);
                pair_idx.left_key.insert(l.tid, l.key);
            }
            // query with the right side: run the model only on LSH
            // candidates; everything else is excluded via a block filter
            // (O(candidates) instead of O(n²) memo entries).
            let filter = filters.entry(id).or_default();
            for s in right {
                stats.total_pairs += left.len() as u64;
                pair_idx.right_key.insert(s.tid, s.key);
                // ascending positions, hence ascending tuple ids
                let mut rmates: Vec<TupleId> = Vec::new();
                for cand in lsh.candidates_of(&s.bands) {
                    let l = &left[cand as usize];
                    rmates.push(l.tid);
                    stats.candidate_pairs += 1;
                    let out = classifier.score_prepared(&l.prepared, &s.prepared)
                        >= classifier.threshold();
                    registry.meter.add(classifier.cost());
                    if out {
                        stats.matches += 1;
                    }
                    filter.insert((l.key, s.key));
                    registry.memoize_pair(id, l.key, s.key, out);
                }
                for l in &rmates {
                    pair_idx.left_mates.entry(*l).or_default().push(s.tid);
                }
                pair_idx.right_mates.insert(s.tid, rmates);
            }
            index.insert(sig, pair_idx);
        }
    }
    for (id, filter) in filters {
        registry.set_block_filter(id, filter);
    }
    (stats, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrType, DatabaseSchema, RelId, RelationSchema, Value};
    use rock_ml::pair::NgramPairModel;
    use rock_rees::parse_rules;
    use std::sync::Arc;

    fn db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "Trans",
            &[("pid", AttrType::Str), ("com", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        for i in 0..6 {
            r.insert_row(vec![
                Value::str(format!("p{i}")),
                Value::str(format!("IPhone 14 Discount Code {i} apple store bundle")),
            ])
            .unwrap();
        }
        for i in 0..6 {
            r.insert_row(vec![
                Value::str(format!("q{i}")),
                Value::str(format!("fresh organic juice bottle crate {i}")),
            ])
            .unwrap();
        }
        db
    }

    fn rules(db: &Database) -> RuleSet {
        let schema = db.schema();
        RuleSet::new(
            parse_rules(
                "rule er: Trans(t) && Trans(s) && ml:MER(t[com], s[com]) -> t.pid = s.pid",
                &schema,
            )
            .unwrap(),
        )
    }

    #[test]
    fn blocking_prunes_cross_cluster_pairs() {
        let db = db();
        let reg = ModelRegistry::new();
        reg.register_pair("MER", Arc::new(NgramPairModel::with_threshold(0.8)));
        let mut rs = rules(&db);
        rs.resolve(&reg).unwrap();
        let stats = precompute_ml(&db, &rs, &reg);
        assert_eq!(stats.predicates, 1);
        assert_eq!(stats.total_pairs, 144);
        assert!(stats.candidate_pairs < stats.total_pairs, "{stats:?}");
        assert!(stats.pruned_fraction() > 0.3, "{stats:?}");
        assert!(stats.matches >= 12, "self pairs at minimum: {stats:?}");
    }

    #[test]
    fn evaluation_after_precompute_hits_memo_only() {
        let db = db();
        let reg = ModelRegistry::new();
        reg.register_pair("MER", Arc::new(NgramPairModel::with_threshold(0.8)));
        let mut rs = rules(&db);
        rs.resolve(&reg).unwrap();
        precompute_ml(&db, &rs, &reg);
        let inferences_before = reg.meter.inferences();
        // evaluate the rule's violations: every predict_pair must hit memo
        let ctx = rock_rees::eval::EvalContext::new(&db, &reg);
        let _ = rock_rees::eval::find_violations(&rs.rules[0], &ctx);
        assert_eq!(
            reg.meter.inferences(),
            inferences_before,
            "no fresh inference after pre-computation"
        );
        assert!(reg.meter.memo_hits() > 0);
    }

    #[test]
    fn indexed_precompute_builds_symmetric_mates() {
        let db = db();
        let reg = ModelRegistry::new();
        reg.register_pair("MER", Arc::new(NgramPairModel::with_threshold(0.8)));
        let mut rs = rules(&db);
        rs.resolve(&reg).unwrap();
        let (stats, index) = precompute_ml_indexed(&db, &rs, &reg);
        assert_eq!(index.len(), stats.predicates);
        let sig = PairSignature {
            model: reg.id("MER").unwrap(),
            lrel: RelId(0),
            lattrs: vec![rock_data::AttrId(1)],
            rrel: RelId(0),
            rattrs: vec![rock_data::AttrId(1)],
        };
        let idx = index.get(&sig).expect("signature indexed");
        // build-time keys recorded for every live tuple on both sides
        assert_eq!(idx.left_key.len(), db.relation(RelId(0)).len());
        assert_eq!(idx.right_key.len(), db.relation(RelId(0)).len());
        // mates are symmetric: l in right_mates[r] <=> r in left_mates[l]
        let mut pairs = 0u64;
        for (r, ls) in &idx.right_mates {
            for l in ls {
                pairs += 1;
                assert!(idx.mates(*l, true).contains(r), "asymmetric ({l:?},{r:?})");
            }
        }
        assert_eq!(pairs, stats.candidate_pairs);
        // every tuple is at least its own block-mate (identical text)
        for t in db.relation(RelId(0)).iter() {
            assert!(idx.mates(t.tid, false).contains(&t.tid));
        }
    }

    #[test]
    fn one_model_on_two_attribute_sets_keeps_both_filters() {
        let db = db();
        let schema = db.schema();
        let reg = ModelRegistry::new();
        let id = reg.register_pair("MER", Arc::new(NgramPairModel::with_threshold(0.8)));
        let mut rs = RuleSet::new(
            parse_rules(
                "rule a: Trans(t) && Trans(s) && ml:MER(t[com], s[com]) -> t.pid = s.pid\nrule b: Trans(t) && Trans(s) && ml:MER(t[pid], s[pid]) -> t.com = s.com",
                &schema,
            )
            .unwrap(),
        );
        rs.resolve(&reg).unwrap();
        let (stats, index) = precompute_ml_indexed(&db, &rs, &reg);
        assert_eq!(stats.predicates, 2);
        assert_eq!(index.len(), 2);
        let inferences = reg.meter.inferences();
        assert_eq!(inferences, stats.candidate_pairs);
        // Every tuple is its own block-mate under either signature, and the
        // model accepts identical text: a filter holding only the second
        // signature's pairs would answer `false` for the first's.
        for t in db.relation(RelId(0)).iter() {
            for attr in [AttrId(1), AttrId(0)] {
                let vals = t.project(&[attr]);
                assert!(reg.predict_pair(id, &vals, &vals), "{vals:?}");
            }
        }
        assert_eq!(reg.meter.inferences(), inferences, "answered from the memo");
    }

    #[test]
    fn duplicate_predicate_signatures_processed_once() {
        let db = db();
        let schema = db.schema();
        let reg = ModelRegistry::new();
        reg.register_pair("MER", Arc::new(NgramPairModel::with_threshold(0.8)));
        let mut rs = RuleSet::new(
            parse_rules(
                "rule a: Trans(t) && Trans(s) && ml:MER(t[com], s[com]) -> t.pid = s.pid\nrule b: Trans(t) && Trans(s) && ml:MER(t[com], s[com]) && t.pid = s.pid -> t.eid = s.eid",
                &schema,
            )
            .unwrap(),
        );
        rs.resolve(&reg).unwrap();
        let stats = precompute_ml(&db, &rs, &reg);
        assert_eq!(stats.predicates, 1, "same signature must be deduped");
    }
}
