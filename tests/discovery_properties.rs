//! Property tests for rule discovery: every accepted rule clears the
//! configured support/confidence thresholds when re-measured, sampled
//! mining never returns rules failing full-data verification, and the
//! Hoeffding helpers are mutually consistent.

mod common;

use common::check;
use rock::data::{AttrType, Database, DatabaseSchema, RelId, RelationSchema, Value};
use rock::discovery::levelwise::{Discoverer, DiscoveryConfig};
use rock::discovery::sampling::{
    deviation_bound, mine_with_sampling, required_sample, sample_database,
};
use rock::discovery::space::{PredicateSpace, SpaceConfig};
use rock::ml::ModelRegistry;
use rock::rees::measures::measure;
use rock::rees::EvalContext;

const CASES: u64 = 16;

fn db_from(rows: &[(u8, u8)]) -> Database {
    let schema = DatabaseSchema::new(vec![RelationSchema::of(
        "T",
        &[("a", AttrType::Str), ("b", AttrType::Str)],
    )]);
    let mut db = Database::new(&schema);
    let r = db.relation_mut(RelId(0));
    for (a, b) in rows {
        r.insert_row(vec![
            Value::str(format!("a{}", a % 3)),
            Value::str(format!("b{}", b % 3)),
        ])
        .unwrap();
    }
    db
}

/// Accepted rules re-measure at or above the thresholds.
#[test]
fn accepted_rules_clear_thresholds() {
    check(CASES, |g| {
        let rows = g.vec(4..24, |g| (g.range(0u8..3), g.range(0u8..3)));
        let db = db_from(&rows);
        let reg = ModelRegistry::new();
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig::default());
        let cfg = DiscoveryConfig {
            min_support: 0.01,
            min_confidence: 0.9,
            max_preconditions: 2,
            ..Default::default()
        };
        let report = Discoverer::new(&reg, cfg.clone()).mine_relation(&db, RelId(0), &space);
        let ctx = EvalContext::new(&db, &reg);
        for rule in report.rules.iter() {
            let m = measure(rule, &ctx);
            assert!(m.support() >= cfg.min_support - 1e-12, "{}", rule.name);
            assert!(
                m.confidence() >= cfg.min_confidence - 1e-12,
                "{}",
                rule.name
            );
        }
    });
}

/// Sampled mining: every returned rule passes full-data verification
/// (the multi-round guarantee of [36]).
#[test]
fn sampled_rules_verified_on_full_data() {
    check(CASES, |g| {
        let rows = g.vec(12..40, |g| (g.range(0u8..3), g.range(0u8..3)));
        let seed = g.below(50);
        let db = db_from(&rows);
        let reg = ModelRegistry::new();
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig::default());
        let cfg = DiscoveryConfig {
            min_support: 0.01,
            min_confidence: 0.9,
            max_preconditions: 1,
            ..Default::default()
        };
        let disc = Discoverer::new(&reg, cfg.clone());
        let report = mine_with_sampling(&disc, &db, RelId(0), &space, 0.5, 0.1, seed);
        let ctx = EvalContext::new(&db, &reg);
        for rule in report.rules.iter() {
            let m = measure(rule, &ctx);
            assert!(m.support() >= cfg.min_support - 1e-12);
            assert!(m.confidence() >= cfg.min_confidence - 1e-12);
        }
    });
}

/// Hoeffding helpers invert each other.
#[test]
fn hoeffding_inversion() {
    check(CASES, |g| {
        let (eps, delta) = (g.range(0.01f64..0.3), g.range(0.001f64..0.2));
        let n = required_sample(eps, delta);
        assert!(deviation_bound(n, delta) <= eps + 1e-9);
        if n > 1 {
            assert!(deviation_bound(n - 1, delta) > eps - 1e-9);
        }
    });
}

/// Sampling preserves schema and respects the requested ratio.
#[test]
fn sample_size_is_exact() {
    check(CASES, |g| {
        let rows = g.vec(1..60, |g| (g.range(0u8..3), g.range(0u8..3)));
        let (ratio_pct, seed) = (g.range(0u32..=100), g.below(20));
        let db = db_from(&rows);
        let ratio = f64::from(ratio_pct) / 100.0;
        let sampled = sample_database(&db, ratio, seed);
        let expect = ((rows.len() as f64) * ratio).round() as usize;
        assert_eq!(sampled.relation(RelId(0)).len(), expect);
    });
}
