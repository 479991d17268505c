//! Filter-and-verify pre-computation for ML predicates (paper §5.3/§5.4).
//!
//! "Given M(t[Ā], s[B̄]), Rock adopts the filter-and-verify paradigm such
//! that (a) a blocking algorithm is first evoked to retrieve a candidate
//! set of potentially matching tuple ID pairs, and then (b) it finds the
//! true matching pairs in the candidate set."
//!
//! For every ML predicate of every rule, this module builds a MinHash LSH
//! index over the left side's blocking text, queries it with the right
//! side, runs the model only on candidate pairs, and installs their
//! verdicts as the model's [`BlockFilter`], which answers `false` for
//! every other pair. Rule evaluation afterwards never pays inference cost:
//! the filter answers every `predict_pair` call, and the enumerator joins
//! on its accepted pairs.
//!
//! The pass works on distinct projections: tuples with equal projections
//! share a key, a blocking text and a verdict, so each distinct key is
//! featurized and LSH-indexed once and each distinct candidate key pair is
//! scored once. Tuples only expand the counts: [`BlockingStats`] stays
//! tuple-level.
//!
//! The registry keeps the last pass ([`BlockingPass`]). A call with the
//! same signatures over the same column snapshots reinstalls it and runs
//! no inference, so `RockSystem::correct` after `detect` on one database
//! blocks once.

use rock_crystal::sync::Arc;
use rock_data::{AttrId, Database, FxHashMap, FxHashSet, Relation};
use rock_ml::pair::PreparedSide;
use rock_ml::{
    BlockFilter, BlockingPass, MinHashLsh, MlBlockIndex, ModelRegistry, PairClassifier,
    PairSignature,
};
use rock_rees::{Predicate, RuleSet};

pub use rock_ml::BlockingStats;

/// Pre-compute all binary ML predicates of `rules` over `db` and install
/// each pair model's [`BlockFilter`] in `registry`: the filters of the
/// registry's kept pass when that pass ran the same signatures over `db`'s
/// current snapshots, otherwise those of a new pass, which the registry
/// keeps instead.
pub fn precompute_ml(db: &Database, rules: &RuleSet, registry: &ModelRegistry) -> BlockingStats {
    let signatures = signatures(rules, registry);
    let kept = registry
        .blocking_pass()
        .filter(|kept| kept.ran_over(&signatures, db));
    let pass = match kept {
        Some(kept) => kept,
        None => {
            // a stale pass is not held while the new one is built
            registry.drop_blocking_pass();
            Arc::new(run_pass(db, signatures, registry))
        }
    };
    let stats = pass.stats.clone();
    registry.install_blocking_pass(pass);
    stats
}

/// The distinct signatures of `rules`' ML predicates over pair models, in
/// rule and predicate order.
fn signatures(rules: &RuleSet, registry: &ModelRegistry) -> Vec<PairSignature> {
    let mut seen: FxHashSet<PairSignature> = FxHashSet::default();
    let mut out = Vec::new();
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
            let sig = PairSignature {
                model: model.resolved(),
                lrel: rule.rel_of(*lvar),
                lattrs: lattrs.clone(),
                rrel: rule.rel_of(*rvar),
                rattrs: rattrs.clone(),
            };
            if registry.pair(sig.model).is_some() && seen.insert(sig.clone()) {
                out.push(sig);
            }
        }
    }
    out
}

/// Score every signature over `db`, one signature at a time.
fn run_pass(
    db: &Database,
    signatures: Vec<PairSignature>,
    registry: &ModelRegistry,
) -> BlockingPass {
    // the snapshots the pass reads, taken before it reads them
    let mut rels: Vec<_> = signatures.iter().flat_map(|s| [s.lrel, s.rrel]).collect();
    rels.sort_unstable();
    rels.dedup();
    let snapshots = rels
        .into_iter()
        .map(|rel| (rel, db.relation(rel).columns()))
        .collect();
    let mut stats = BlockingStats::default();
    // A model's block filter is the union over every signature that uses
    // the model: installed per signature, a later one would turn all pairs
    // of an earlier one into non-candidates.
    let mut filters: FxHashMap<_, BlockFilter> = FxHashMap::default();
    for sig in &signatures {
        let Some(classifier) = registry.pair(sig.model) else {
            continue;
        };
        stats.predicates += 1;
        let (lattrs, rattrs) = (&sig.lattrs, &sig.rattrs);

        // Both sides are featurized here and dropped with this
        // iteration: at any time only one signature's sides are alive.
        let mut lsh = MinHashLsh::new(16, 2);
        let left = prepare_sides(db.relation(sig.lrel), lattrs, classifier.as_ref(), &lsh);
        let self_join = sig.lrel == sig.rrel && lattrs == rattrs;
        let other = (!self_join)
            .then(|| prepare_sides(db.relation(sig.rrel), rattrs, classifier.as_ref(), &lsh));
        let right = other.as_ref().unwrap_or(&left);

        // index the left side, by position in `left`
        let left_tuples: u64 = left.iter().map(|l| l.tuples).sum();
        for (i, l) in left.iter().enumerate() {
            lsh.insert_keys(i as u32, &l.bands);
        }
        // query with the right side: score only LSH candidates, once
        // per key pair; the filter answers `false` for the rest
        // (O(candidates) instead of O(n²) entries).
        let filter = filters.entry(sig.model).or_default();
        for s in right {
            stats.total_pairs += left_tuples * s.tuples;
            for cand in lsh.candidates_of(&s.bands) {
                let l = &left[cand as usize];
                let pairs = l.tuples * s.tuples;
                stats.candidate_pairs += pairs;
                // another signature of the model may have scored the
                // same values already
                let out = filter.verdict(l.key, s.key).unwrap_or_else(|| {
                    registry.meter.add(classifier.cost());
                    let out = classifier.score_prepared(&l.prepared, &s.prepared)
                        >= classifier.threshold();
                    filter.insert(l.key, s.key, out);
                    out
                });
                if out {
                    stats.matches += pairs;
                }
            }
        }
    }
    BlockingPass {
        signatures,
        snapshots,
        filters: filters
            .into_iter()
            .map(|(id, f)| (id, Arc::new(f)))
            .collect(),
        stats,
    }
}

/// Remove the block filters [`precompute_ml`] installed for `rules`: a
/// filter answers `false` for every pair its pass did not score, so it must
/// not outlive the database and rules it was built for.
pub fn clear_block_filters(rules: &RuleSet, registry: &ModelRegistry) {
    for rule in rules.iter() {
        for p in rule.all_predicates() {
            if let Predicate::Ml { model, .. } = p {
                registry.clear_block_filter(model.resolved());
            }
        }
    }
}

/// One distinct projection of a relation, with everything the pass
/// derives from its values alone.
struct Side {
    /// Filter key of the projection.
    key: u64,
    /// Live tuples that project to it.
    tuples: u64,
    /// LSH band keys of the model's blocking text.
    bands: Vec<u64>,
    prepared: PreparedSide,
}

/// The distinct projections of `rel`'s live tuples on `attrs`, in the
/// order of their first tuple.
fn prepare_sides(
    rel: &Relation,
    attrs: &[AttrId],
    classifier: &dyn PairClassifier,
    lsh: &MinHashLsh,
) -> Vec<Side> {
    let keys = rel.columns().projection_keys(attrs);
    rel.iter()
        .filter_map(|t| {
            let key = keys.key(t.tid);
            let group = keys.tids(key);
            // the key's first tuple stands for all of them
            (group.first() == Some(&t.tid)).then(|| {
                let vals = t.project(attrs);
                Side {
                    key,
                    tuples: group.len() as u64,
                    bands: lsh.band_keys(&classifier.blocking_text(&vals)),
                    prepared: classifier.prepare(&vals),
                }
            })
        })
        .collect()
}

/// [`precompute_ml`], kept for source compatibility: the chase no longer
/// takes a tuple-level block index, so the [`MlBlockIndex`] carries
/// nothing.
pub fn precompute_ml_indexed(
    db: &Database,
    rules: &RuleSet,
    registry: &ModelRegistry,
) -> (BlockingStats, MlBlockIndex) {
    (precompute_ml(db, rules, registry), MlBlockIndex)
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
        // over 30 % of the pairs are pruned without inference
        assert!(
            stats.candidate_pairs * 10 < stats.total_pairs * 7,
            "{stats:?}"
        );
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
    fn filter_holds_each_distinct_key_pair_once() {
        let db = db();
        let reg = ModelRegistry::new();
        let id = reg.register_pair("MER", Arc::new(NgramPairModel::with_threshold(0.8)));
        let mut rs = rules(&db);
        rs.resolve(&reg).unwrap();
        let stats = precompute_ml(&db, &rs, &reg);
        let filter = reg.block_filter(id).expect("filter installed");
        // every com value is distinct: key pairs are tuple pairs
        assert_eq!(filter.iter().count() as u64, stats.candidate_pairs);
        assert_eq!(reg.meter.inferences(), stats.candidate_pairs);
        let accepted = filter.iter().filter(|(_, v)| *v).count() as u64;
        assert_eq!(accepted, stats.matches);
        // the partner lists index exactly the accepted pairs, both ways
        for ((l, r), v) in filter.iter() {
            assert_eq!(filter.partners(l, true).contains(&r), v);
            assert_eq!(filter.partners(r, false).contains(&l), v);
        }
        // every tuple accepts itself (identical text)
        let keys = db
            .relation(RelId(0))
            .columns()
            .projection_keys(&[AttrId(1)]);
        for t in db.relation(RelId(0)).iter() {
            let k = keys.key(t.tid);
            assert!(filter.accepts(k, k), "{:?}", t.tid);
        }
    }

    #[test]
    fn duplicated_tuples_scale_the_counts_not_the_inferences() {
        let once = db();
        let mut thrice = db();
        let rows: Vec<Vec<Value>> = once
            .relation(RelId(0))
            .iter()
            .map(|t| t.values.clone())
            .collect();
        for _ in 0..2 {
            for row in &rows {
                thrice
                    .relation_mut(RelId(0))
                    .insert_row(row.clone())
                    .unwrap();
            }
        }
        let run = |db: &Database| {
            let reg = ModelRegistry::new();
            reg.register_pair("MER", Arc::new(NgramPairModel::with_threshold(0.8)));
            let mut rs = rules(db);
            rs.resolve(&reg).unwrap();
            let stats = precompute_ml(db, &rs, &reg);
            (stats, reg.meter.inferences())
        };
        let (a, a_inferences) = run(&once);
        let (b, b_inferences) = run(&thrice);
        assert_eq!(b.total_pairs, 9 * a.total_pairs);
        assert_eq!(b.candidate_pairs, 9 * a.candidate_pairs);
        assert_eq!(b.matches, 9 * a.matches);
        assert_eq!(b_inferences, a_inferences, "one inference per key pair");
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
        let stats = precompute_ml(&db, &rs, &reg);
        assert_eq!(stats.predicates, 2);
        let inferences = reg.meter.inferences();
        // one inference per distinct key pair of either signature
        let filter = reg.block_filter(id).expect("filter installed");
        assert_eq!(inferences, filter.iter().count() as u64);
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
