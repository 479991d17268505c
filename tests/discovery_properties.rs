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
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig);
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
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig);
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

/// FNV-1a over a string: a stable digest of a predicate list's `Debug` text.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The predicate space discovery mines on each real workload (1k rows,
/// seed 42, with the workload's ML signatures) is pinned: per relation,
/// the unary, binary and consequence counts and a digest of their `Debug`
/// text. A change to column statistics or to the space's constants that
/// moves one constant predicate fails here.
#[test]
fn predicate_space_on_real_workloads_is_pinned() {
    use rock::core::system::ml_signatures;
    use rock::workloads::workload::GenConfig;

    let cfg = GenConfig {
        rows: 1000,
        seed: 42,
        ..GenConfig::default()
    };
    let workloads = [
        ("sales", rock::workloads::sales::generate(&cfg)),
        ("logistics", rock::workloads::logistics::generate(&cfg)),
        ("bank", rock::workloads::bank::generate(&cfg)),
    ];
    let mut got = Vec::new();
    for (name, w) in &workloads {
        let sigs = ml_signatures(w);
        for (rid, rel) in w.dirty.iter() {
            let space = PredicateSpace::build(&w.dirty, rid, &sigs, &SpaceConfig);
            got.push(format!(
                "{name}.{} {} {} {} {:016x}",
                rel.schema.name,
                space.unary.len(),
                space.binary.len(),
                space.consequences.len(),
                fnv1a(&format!(
                    "{:?}{:?}{:?}",
                    space.unary, space.binary, space.consequences
                )),
            ));
        }
    }
    let expected = [
        "sales.Client 12 4 20 9cebaa0e835408a2",
        "sales.Firm 4 4 11 854b32ee63539be8",
        "sales.OrderLine 9 8 19 72b34426d7b18a37",
        "sales.Item 14 5 21 21006c16ae109eb6",
        "sales.ItemExt 12 4 21 a9ee01f46eeed034",
        "logistics.Shipment 16 9 32 68f80304af04194f",
        "bank.Customer 9 6 19 36eb641562ff5857",
        "bank.Company 22 6 32 c02b8431510c16fb",
        "bank.Account 0 4 7 5870d52eb9c468be",
        "bank.Payment 1 8 11 12fd3e0a4722f31b",
        "bank.Branch 0 3 7 ff925de861075c96",
    ];
    assert_eq!(got, expected);
}
