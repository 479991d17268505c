//! `precompute_ml_indexed` scores candidate pairs over sides it featurized
//! once. This suite runs it on the three applications' curated rules next
//! to a reference pass that works the way blocking did before prepared
//! sides — blocking text shingled per call, `classifier.predict` over the
//! raw value vectors per pair — and requires the same funnel counts, the
//! same block index and the same answer for every tuple pair.

use rock_data::{TupleId, Value};
use rock_detect::blocking::{precompute_ml_indexed, BlockingStats};
use rock_ml::{MinHashLsh, ModelRegistry, PairBlockIndex, PairSignature};
use rock_rees::Predicate;
use rock_workloads::workload::{GenConfig, Workload};
use std::collections::HashMap;

/// What the reference pass learned about one signature.
struct Reference {
    sig: PairSignature,
    index: PairBlockIndex,
    left: Vec<(TupleId, Vec<Value>)>,
    right: Vec<(TupleId, Vec<Value>)>,
    /// The model's verdict on each candidate pair.
    verdicts: HashMap<(TupleId, TupleId), bool>,
}

fn reference_pass(w: &Workload) -> (BlockingStats, Vec<Reference>) {
    let mut stats = BlockingStats::default();
    let mut refs: Vec<Reference> = Vec::new();
    for rule in w.rules.iter() {
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
            if refs.iter().any(|r| r.sig == sig) {
                continue;
            }
            let Some(classifier) = w.registry.pair(sig.model) else {
                continue;
            };
            stats.predicates += 1;
            let project = |rel, attrs: &[_]| -> Vec<(TupleId, Vec<Value>)> {
                w.dirty
                    .relation(rel)
                    .iter()
                    .map(|t| (t.tid, t.project(attrs)))
                    .collect()
            };
            let left = project(sig.lrel, lattrs);
            let right = project(sig.rrel, rattrs);
            let mut lsh = MinHashLsh::new(16, 2);
            let mut index = PairBlockIndex::default();
            for (tid, vals) in &left {
                lsh.insert(tid.0, &classifier.blocking_text(vals));
                index.left_key.insert(*tid, ModelRegistry::pair_key(vals));
            }
            let by_tid: HashMap<u32, &Vec<Value>> =
                left.iter().map(|(tid, vals)| (tid.0, vals)).collect();
            let mut verdicts = HashMap::new();
            for (stid, svals) in &right {
                stats.total_pairs += left.len() as u64;
                index
                    .right_key
                    .insert(*stid, ModelRegistry::pair_key(svals));
                let mut mates = Vec::new();
                for cand in lsh.candidates(&classifier.blocking_text(svals)) {
                    let ltid = TupleId(cand);
                    mates.push(ltid);
                    stats.candidate_pairs += 1;
                    let out = classifier.predict(by_tid[&cand], svals);
                    stats.matches += u64::from(out);
                    verdicts.insert((ltid, *stid), out);
                }
                mates.sort_unstable();
                for l in &mates {
                    index.left_mates.entry(*l).or_default().push(*stid);
                }
                index.right_mates.insert(*stid, mates);
            }
            refs.push(Reference {
                sig,
                index,
                left,
                right,
                verdicts,
            });
        }
    }
    (stats, refs)
}

fn check(w: &Workload) {
    let name = &w.name;
    let (want_stats, refs) = reference_pass(w);
    assert!(
        want_stats.predicates > 0,
        "{name}: no ML predicate to block"
    );
    assert!(want_stats.matches > 0, "{name}: nothing matched");
    assert!(
        want_stats.candidate_pairs < want_stats.total_pairs,
        "{name}: blocking pruned nothing"
    );

    w.registry.clear_memo();
    w.registry.meter.reset();
    let (stats, index) = precompute_ml_indexed(&w.dirty, &w.rules, &w.registry);
    assert_eq!(stats, want_stats, "{name}");
    assert_eq!(
        w.registry.meter.inferences(),
        stats.candidate_pairs,
        "{name}: one inference per candidate pair"
    );
    assert_eq!(index.len(), refs.len(), "{name}");

    for r in &refs {
        let got = index
            .get(&r.sig)
            .unwrap_or_else(|| panic!("{name}: {:?} not indexed", r.sig));
        assert_eq!(got.left_key, r.index.left_key, "{name} {:?}", r.sig);
        assert_eq!(got.right_key, r.index.right_key, "{name} {:?}", r.sig);
        assert_eq!(got.left_mates, r.index.left_mates, "{name} {:?}", r.sig);
        assert_eq!(got.right_mates, r.index.right_mates, "{name} {:?}", r.sig);
        // Candidates get the model's verdict, everything else `false`. Two
        // tuples with equal projections share a memo key and an LSH
        // bucket, so "candidate" is a property of the values.
        for (ltid, lvals) in &r.left {
            for (stid, svals) in &r.right {
                let want = r.verdicts.get(&(*ltid, *stid)).copied().unwrap_or(false);
                assert_eq!(
                    w.registry.predict_pair(r.sig.model, lvals, svals),
                    want,
                    "{name} {:?}: ({ltid:?}, {stid:?})",
                    r.sig
                );
            }
        }
    }
    assert_eq!(
        w.registry.meter.inferences(),
        stats.candidate_pairs,
        "{name}: every pair was answered without the model"
    );
}

fn cfg(seed: u64) -> GenConfig {
    GenConfig {
        rows: 300,
        seed,
        ..GenConfig::default()
    }
}

#[test]
fn sales_blocking_equals_per_pair_reference() {
    check(&rock_workloads::sales::generate(&cfg(11)));
}

#[test]
fn bank_blocking_equals_per_pair_reference() {
    check(&rock_workloads::bank::generate(&cfg(12)));
}

#[test]
fn logistics_blocking_equals_per_pair_reference() {
    check(&rock_workloads::logistics::generate(&cfg(13)));
}
