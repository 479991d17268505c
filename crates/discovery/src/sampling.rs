//! Multi-round sampling with probabilistic accuracy guarantees ([36];
//! paper §5.2 "Rock samples data with an accuracy guarantee during the
//! discovery process if the estimated cost of REE++ deduction is large").
//!
//! The connection between sample and population measures: support and
//! confidence are means of bounded indicator variables over valuations, so
//! Hoeffding's inequality bounds the deviation — with `n` sampled
//! valuations, `P(|supp̂ − supp| ≥ ε) ≤ 2·exp(−2nε²)`. [`required_sample`]
//! inverts this to the sample size achieving (ε, δ); the driver mines on a
//! sampled database and then *verifies* survivors on the full data (the
//! multi-round part), so reported measures are exact while pruning cost is
//! paid on the sample. Verification measures on the miner's satisfaction
//! bitsets, built over the full relation once per distinct predicate of
//! the survivors; a rescan per survivor cost as much as the mining.

use crate::cache::PredicateBitsets;
use crate::levelwise::{Discoverer, DiscoveryConfig, DiscoveryReport};
use crate::space::PredicateSpace;
use rock_data::{rng::StdRng, Database, RelId, Relation};
use rock_rees::{Predicate, Rule};
use std::sync::Arc;

/// Hoeffding sample size for deviation ε with failure probability δ:
/// `n ≥ ln(2/δ) / (2ε²)`.
pub fn required_sample(epsilon: f64, delta: f64) -> usize {
    assert!(epsilon > 0.0 && delta > 0.0 && delta < 1.0);
    ((2.0 / delta).ln() / (2.0 * epsilon * epsilon)).ceil() as usize
}

/// Two-sided Hoeffding deviation bound for a given sample size and δ.
pub fn deviation_bound(n: usize, delta: f64) -> f64 {
    assert!(n > 0 && delta > 0.0 && delta < 1.0);
    ((2.0 / delta).ln() / (2.0 * n as f64)).sqrt()
}

/// Uniformly sample a fraction `ratio` of each relation (without
/// replacement, seeded). Timestamps of sampled tuples are carried over.
pub fn sample_database(db: &Database, ratio: f64, seed: u64) -> Database {
    assert!((0.0..=1.0).contains(&ratio));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut relations = Vec::new();
    for (_, rel) in db.iter() {
        let mut out = Relation::new(rel.schema.clone());
        let tids: Vec<_> = rel.tids().collect();
        let k = ((tids.len() as f64) * ratio).round() as usize;
        let mut chosen: Vec<usize> = if k >= tids.len() {
            (0..tids.len()).collect()
        } else {
            rng.sample_indices(tids.len(), k)
        };
        chosen.sort_unstable();
        for idx in chosen {
            let Some(t) = rel.get(tids[idx]) else {
                continue;
            };
            let Ok(new_tid) = out.insert(t.eid, t.values.clone()) else {
                continue;
            };
            for (a, _) in rel.schema.iter_attrs() {
                if let Some(ts) = rel.timestamps.get(t.tid, a) {
                    out.set_timestamp(new_tid, a, ts);
                }
            }
        }
        relations.push(out);
    }
    Database::from_relations(relations)
}

/// Sampled discovery: mine on a `ratio` sample, then re-measure the mined
/// rules on the full database and keep those clearing the thresholds.
/// The sample-phase thresholds are relaxed by the Hoeffding deviation at
/// the sample's valuation count so that true positives survive the sample
/// round with probability ≥ 1 − δ each.
///
/// The sample-phase miner inherits the caller's full `DiscoveryConfig`
/// (struct-update below) and knowledge graph. The verification round
/// ([`verify`]) measures the survivors on the full relation with the same
/// bitset kernels the miner uses, under the caller's own evaluation
/// context, so the reported measures are exactly those of
/// [`rock_rees::measures::measure`] over the full data.
pub fn mine_with_sampling(
    discoverer: &Discoverer<'_>,
    db: &Database,
    rel: RelId,
    space: &PredicateSpace,
    ratio: f64,
    delta: f64,
    seed: u64,
) -> DiscoveryReport {
    let sampled = sample_database(db, ratio, seed);
    let n = sampled.relation(rel).len().max(2);
    // valuation count for a 2-variable template ≈ n².
    let eps = deviation_bound(n * n, delta).min(0.2);
    let relaxed = Discoverer {
        registry: discoverer.registry,
        graph: discoverer.graph,
        config: DiscoveryConfig {
            min_support: (discoverer.config.min_support - eps).max(0.0),
            min_confidence: (discoverer.config.min_confidence - eps).max(0.0),
            ..discoverer.config.clone()
        },
    };
    let mut report = relaxed.mine_relation(&sampled, rel, space);
    verify(discoverer, db, rel, &mut report.rules.rules);
    report
}

/// The verification round on the full data with the true thresholds:
/// record each rule's full-data support and confidence, and keep the rules
/// that clear both. Survivors share most of their predicates, so each
/// distinct predicate is materialized once into a satisfaction bitset over
/// the full relation ([`PredicateBitsets`]) and each rule is measured by
/// AND + popcount, as the miner measures its candidates.
fn verify(discoverer: &Discoverer<'_>, db: &Database, rel: RelId, rules: &mut Vec<Rule>) {
    let mut pre: Vec<Predicate> = Vec::new();
    let mut cons: Vec<Predicate> = Vec::new();
    for rule in rules.iter() {
        for p in &rule.precondition {
            if !pre.contains(p) {
                pre.push(p.clone());
            }
        }
        if !cons.contains(&rule.consequence) {
            cons.push(rule.consequence.clone());
        }
    }
    let ctx = discoverer.ctx(db);
    let bits = PredicateBitsets::new(
        &ctx,
        db,
        rel,
        &pre,
        &cons,
        discoverer.registry,
        discoverer.config.cache_budget_bytes,
    );
    let slot = |ps: &[Predicate], p: &Predicate| ps.iter().position(|q| q == p);
    rules.retain_mut(|rule| {
        let mut conj = bits.root();
        for p in &rule.precondition {
            // every slot resolves: the rules were mined with these models
            let Some(b) = slot(&pre, p).and_then(|i| bits.precondition(i)) else {
                return false;
            };
            conj = Arc::new(conj.and(&b, bits.n()));
        }
        let Some(m) = slot(&cons, &rule.consequence).and_then(|ci| bits.measure(ci, &conj)) else {
            return false;
        };
        rule.support = m.support();
        rule.confidence = m.confidence();
        m.support() >= discoverer.config.min_support
            && m.confidence() >= discoverer.config.min_confidence
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceConfig;
    use rock_data::{AttrType, DatabaseSchema, RelationSchema, Value};
    use rock_ml::ModelRegistry;

    fn db(n: usize) -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "Store",
            &[("city", AttrType::Str), ("area_code", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        for i in 0..n {
            let (c, a) = match i % 3 {
                0 => ("Beijing", "010"),
                1 => ("Shanghai", "021"),
                _ => ("Shenzhen", "0755"),
            };
            r.insert_row(vec![Value::str(c), Value::str(a)]).unwrap();
        }
        db
    }

    #[test]
    fn hoeffding_bounds_invert() {
        let n = required_sample(0.05, 0.01);
        assert!(deviation_bound(n, 0.01) <= 0.05 + 1e-9);
        assert!(deviation_bound(n - 50, 0.01) > deviation_bound(n, 0.01));
        assert!(required_sample(0.01, 0.01) > required_sample(0.1, 0.01));
    }

    #[test]
    fn sample_ratio_respected() {
        let d = db(100);
        let s = sample_database(&d, 0.1, 7);
        assert_eq!(s.relation(RelId(0)).len(), 10);
        let full = sample_database(&d, 1.0, 7);
        assert_eq!(full.relation(RelId(0)).len(), 100);
        let empty = sample_database(&d, 0.0, 7);
        assert_eq!(empty.relation(RelId(0)).len(), 0);
    }

    #[test]
    fn sampling_deterministic_per_seed() {
        let d = db(50);
        let a = sample_database(&d, 0.2, 42);
        let b = sample_database(&d, 0.2, 42);
        let vals = |db: &Database| -> Vec<Value> {
            db.relation(RelId(0))
                .iter()
                .map(|t| t.get(rock_data::AttrId(0)).clone())
                .collect()
        };
        assert_eq!(vals(&a), vals(&b));
    }

    /// Verification measures under the discoverer's own context, knowledge
    /// graph included: the survivors' measures are those a rescan under
    /// that context records.
    #[test]
    fn verification_runs_under_the_discoverers_graph() {
        let d = db(120);
        let reg = ModelRegistry::new();
        let mut graph = rock_kg::Graph::new("kg");
        let city = graph.add_vertex(Value::str("Beijing"), "city");
        let code = graph.add_vertex(Value::str("010"), "code");
        graph.add_edge(city, "area_code", code);
        let space = PredicateSpace::build(&d, RelId(0), &[], &SpaceConfig);
        let mut disc = Discoverer::new(
            &reg,
            DiscoveryConfig {
                min_support: 0.02,
                min_confidence: 0.95,
                max_preconditions: 1,
                ..Default::default()
            },
        );
        disc.graph = Some(&graph);
        let report = mine_with_sampling(&disc, &d, RelId(0), &space, 0.3, 0.05, 3);
        assert!(!report.rules.is_empty());
        let ctx = disc.ctx(&d);
        for rule in report.rules.iter() {
            let mut rescanned = rule.clone();
            rock_rees::measures::measure_into(&mut rescanned, &ctx);
            assert_eq!(rule.support.to_bits(), rescanned.support.to_bits());
            assert_eq!(rule.confidence.to_bits(), rescanned.confidence.to_bits());
        }
    }

    #[test]
    fn sampled_mining_recovers_fd_verified_on_full_data() {
        let d = db(120);
        let reg = ModelRegistry::new();
        let space = PredicateSpace::build(&d, RelId(0), &[], &SpaceConfig);
        let disc = Discoverer::new(
            &reg,
            DiscoveryConfig {
                min_support: 0.02,
                min_confidence: 0.95,
                max_preconditions: 1,
                ..Default::default()
            },
        );
        let report = mine_with_sampling(&disc, &d, RelId(0), &space, 0.3, 0.05, 3);
        // the FD city → area_code must survive verification, with exact
        // full-data measures recorded
        assert!(!report.rules.is_empty());
        for r in report.rules.iter() {
            assert!(r.support >= 0.02, "{} supp {}", r.name, r.support);
            assert!(r.confidence >= 0.95);
        }
    }
}
