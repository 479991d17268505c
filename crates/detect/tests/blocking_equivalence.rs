//! `precompute_ml` groups each side by projection key and scores each
//! distinct candidate key pair once, over sides it featurized once. This
//! suite runs it on the three applications' curated rules next to a
//! reference pass that works per tuple pair — blocking text shingled per
//! call, one LSH item per tuple, `classifier.predict` over the raw value
//! vectors per candidate pair — and requires the same funnel counts, the
//! same verdicts in the installed filter, the same accepted pairs in both
//! directions and the same answer for every tuple pair.

use rock_data::{pair_key, TupleId, Value};
use rock_detect::blocking::{precompute_ml, BlockingStats};
use rock_ml::{MinHashLsh, ModelId, PairSignature};
use rock_rees::Predicate;
use rock_workloads::workload::{GenConfig, Workload};
use std::collections::{BTreeSet, HashMap};

/// What the reference pass learned about one signature.
struct Reference {
    sig: PairSignature,
    left: Vec<(TupleId, Vec<Value>)>,
    right: Vec<(TupleId, Vec<Value>)>,
}

/// The model's verdict on each candidate key pair, per model.
type Verdicts = HashMap<ModelId, HashMap<(u64, u64), bool>>;

fn reference_pass(w: &Workload) -> (BlockingStats, Vec<Reference>, Verdicts) {
    let mut stats = BlockingStats::default();
    let mut refs: Vec<Reference> = Vec::new();
    let mut verdicts: Verdicts = HashMap::new();
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
            for (tid, vals) in &left {
                lsh.insert(tid.0, &classifier.blocking_text(vals));
            }
            let by_tid: HashMap<u32, &Vec<Value>> =
                left.iter().map(|(tid, vals)| (tid.0, vals)).collect();
            let model_verdicts = verdicts.entry(sig.model).or_default();
            for (_, svals) in &right {
                stats.total_pairs += left.len() as u64;
                for cand in lsh.candidates(&classifier.blocking_text(svals)) {
                    let lvals = by_tid[&cand];
                    stats.candidate_pairs += 1;
                    let out = classifier.predict(lvals, svals);
                    stats.matches += u64::from(out);
                    let key = (pair_key(lvals), pair_key(svals));
                    let first = *model_verdicts.entry(key).or_insert(out);
                    assert_eq!(first, out, "equal keys, equal verdicts");
                }
            }
            refs.push(Reference { sig, left, right });
        }
    }
    (stats, refs, verdicts)
}

fn check(w: &Workload) {
    let name = &w.name;
    let (want_stats, refs, verdicts) = reference_pass(w);
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
    let stats = precompute_ml(&w.dirty, &w.rules, &w.registry);
    assert_eq!(stats, want_stats, "{name}");
    let key_pairs: usize = verdicts.values().map(HashMap::len).sum();
    assert_eq!(
        w.registry.meter.inferences(),
        key_pairs as u64,
        "{name}: one inference per distinct candidate key pair"
    );

    for (model, want) in &verdicts {
        let filter = w
            .registry
            .block_filter(*model)
            .unwrap_or_else(|| panic!("{name}: no filter for {model:?}"));
        let got: HashMap<(u64, u64), bool> = filter.iter().collect();
        assert_eq!(&got, want, "{name} {model:?}: filter verdicts");
        // the accepted pairs, indexed from either side
        let accepted: BTreeSet<(u64, u64)> =
            want.iter().filter(|(_, v)| **v).map(|(k, _)| *k).collect();
        let lefts: BTreeSet<u64> = accepted.iter().map(|p| p.0).collect();
        let rights: BTreeSet<u64> = accepted.iter().map(|p| p.1).collect();
        let by_left: BTreeSet<(u64, u64)> = lefts
            .iter()
            .flat_map(|&l| filter.partners(l, true).iter().map(move |&r| (l, r)))
            .collect();
        let by_right: BTreeSet<(u64, u64)> = rights
            .iter()
            .flat_map(|&r| filter.partners(r, false).iter().map(move |&l| (l, r)))
            .collect();
        assert_eq!(by_left, accepted, "{name} {model:?}: by left key");
        assert_eq!(by_right, accepted, "{name} {model:?}: by right key");
    }

    // Candidates get the model's verdict, everything else `false`. Two
    // tuples with equal projections share a key and an LSH bucket, so
    // "candidate" is a property of the values.
    for r in &refs {
        let want = &verdicts[&r.sig.model];
        for (ltid, lvals) in &r.left {
            for (stid, svals) in &r.right {
                let key = (pair_key(lvals), pair_key(svals));
                assert_eq!(
                    w.registry.predict_pair(r.sig.model, lvals, svals),
                    want.get(&key).copied().unwrap_or(false),
                    "{name} {:?}: ({ltid:?}, {stid:?})",
                    r.sig
                );
            }
        }
    }
    assert_eq!(
        w.registry.meter.inferences(),
        key_pairs as u64,
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

/// Sales at 1,000 rows, seed 42: `Mfirm` blocks 521 firms with 230
/// distinct names into 47,607 candidate tuple pairs, which are 8,914
/// distinct name pairs — the inferences the pass runs.
#[test]
fn sales_mfirm_scores_distinct_name_pairs() {
    let w = rock_workloads::sales::generate(&GenConfig {
        rows: 1000,
        seed: 42,
        ..GenConfig::default()
    });
    let mfirm = w.registry.id("Mfirm").expect("Sales registers Mfirm");
    let rules = rock_rees::RuleSet::new(
        w.rules
            .iter()
            .filter(|r| r.name == "ccn_er_ml")
            .cloned()
            .collect(),
    );
    w.registry.meter.reset();
    let stats = precompute_ml(&w.dirty, &rules, &w.registry);
    assert_eq!(stats.candidate_pairs, 47_607);
    assert_eq!(w.registry.meter.inferences(), 8_914);
    let filter = w.registry.block_filter(mfirm).expect("filter installed");
    assert_eq!(filter.iter().count(), 8_914);
}
