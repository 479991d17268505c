//! Discovery's measures on the code plane against their per-valuation
//! references.
//!
//! * **Kernels** — `predicate_sat_bits` fills `t.A = s.A` from the groups
//!   of the relation's join index and `M(t[Ā], s[B̄])` from the distinct
//!   projections of each side. Under `EvalContext::with_columnar(false)`
//!   the same call evaluates the predicate on every tuple pair; both must
//!   set the same bits, on relations with nulls, duplicate values, float
//!   columns (`0.0`, `-0.0`, `NaN`) and deleted tuples, whose bit positions
//!   follow the live tids. The ML kernel scores each distinct key pair once.
//! * **Sampled verification** — `mine_with_sampling` re-measures the
//!   sampled survivors on full-data bitsets. The reference mines the same
//!   sample and re-measures each survivor by rescan (`measure_into`); the
//!   rule names, texts and support/confidence bits must be identical.

mod common;

use common::{check, Gen};
use rock::core::{ml_signatures, RockConfig};
use rock::data::{
    AttrId, AttrType, Database, DatabaseSchema, FxHashSet, RelId, RelationSchema, TupleId, Value,
};
use rock::discovery::cache::PredicateBitsets;
use rock::discovery::levelwise::{Discoverer, DiscoveryConfig};
use rock::discovery::sampling::{deviation_bound, mine_with_sampling, sample_database};
use rock::discovery::space::{PredicateSpace, SpaceConfig};
use rock::ml::{ModelRegistry, NgramPairModel, PairClassifier};
use rock::rees::measures::{measure_into, predicate_sat_bits};
use rock::rees::{CmpOp, EvalContext, ModelRef, Predicate, Rule};
use rock::workloads::workload::{GenConfig, Workload};
use std::sync::Arc;

const CASES: u64 = 24;

/// `T(name, city, score, n)`: strings, a float and an int column.
fn schema() -> DatabaseSchema {
    DatabaseSchema::new(vec![RelationSchema::of(
        "T",
        &[
            ("name", AttrType::Str),
            ("city", AttrType::Str),
            ("score", AttrType::Float),
            ("n", AttrType::Int),
        ],
    )])
}

/// Small value pools, so that equal values and equal projections repeat;
/// every column draws a null now and then, and some tuples are deleted.
fn random_db(g: &mut Gen) -> Database {
    let names = ["ann", "anna", "bob", "bobby", "carl", "ann lee"];
    // a few cities are names too, so that `M(t[name], s[city])` matches
    let cities = ["paris", "lyon", "ann", "bobby"];
    let scores = [0.0, -0.0, 1.5, 2.25, f64::NAN];
    let mut db = Database::new(&schema());
    let r = db.relation_mut(RelId(0));
    let rows = g.range(0..36usize);
    for _ in 0..rows {
        let row = vec![
            Value::str(g.pick(&names)),
            Value::str(g.pick(&cities)),
            Value::Float(g.pick(&scores)),
            Value::Int(g.range(0..4i64)),
        ];
        let row = row
            .into_iter()
            .map(|v| if g.below(8) == 0 { Value::Null } else { v })
            .collect();
        r.insert_row(row).unwrap();
    }
    let tids: Vec<TupleId> = r.tids().collect();
    for tid in tids {
        if g.below(5) == 0 {
            r.delete(tid);
        }
    }
    db
}

/// `P(a, b)`: `a`'s rendering is a prefix of `b`'s. Asymmetric, so a
/// kernel that swapped the sides would set the wrong bits, and it keeps the
/// trait's default `prepare`/`score_prepared`.
struct PrefixModel;

impl PairClassifier for PrefixModel {
    fn score(&self, a: &[Value], b: &[Value]) -> f64 {
        let render = |vs: &[Value]| vs.iter().map(Value::render).collect::<Vec<_>>().join(" ");
        if render(b).starts_with(&render(a)) {
            1.0
        } else {
            0.0
        }
    }
}

fn registry() -> ModelRegistry {
    let reg = ModelRegistry::new();
    reg.register_pair("M", Arc::new(NgramPairModel::default()));
    reg.register_pair("P", Arc::new(PrefixModel));
    reg
}

fn ml(model: &str, lattrs: &[u16], rattrs: &[u16]) -> Predicate {
    Predicate::Ml {
        model: ModelRef::named(model),
        lvar: 0,
        lattrs: lattrs.iter().map(|&a| AttrId(a)).collect(),
        rvar: 1,
        rattrs: rattrs.iter().map(|&a| AttrId(a)).collect(),
    }
}

fn attr_eq(lvar: usize, lattr: u16, rvar: usize, rattr: u16) -> Predicate {
    Predicate::Attr {
        lvar,
        lattr: AttrId(lattr),
        op: CmpOp::Eq,
        rvar,
        rattr: AttrId(rattr),
    }
}

/// The predicates under test: the kernel shapes and their near misses,
/// which take the per-valuation loop either way.
fn predicates() -> Vec<Predicate> {
    let mut ps: Vec<Predicate> = (0..4).map(|a| attr_eq(0, a, 1, a)).collect();
    ps.push(attr_eq(0, 0, 1, 1));
    ps.push(attr_eq(1, 2, 0, 2));
    ps.push(ml("M", &[0], &[0]));
    ps.push(ml("M", &[0, 1], &[0, 1]));
    ps.push(ml("M", &[0], &[1]));
    ps.push(ml("P", &[0], &[0]));
    ps.push(ml("P", &[1], &[0]));
    ps
}

/// `p` with its model references resolved against `reg`.
fn resolved(p: &Predicate, reg: &ModelRegistry) -> Predicate {
    let mut probe = Rule::new(
        "probe",
        vec![("t".into(), RelId(0)), ("s".into(), RelId(0))],
        vec![],
        vec![],
        p.clone(),
    );
    probe.resolve(reg).unwrap();
    probe.consequence
}

/// Distinct projections of the live tuples on `attrs`.
fn distinct_projections(db: &Database, attrs: &[AttrId]) -> u64 {
    let rel = db.relation(RelId(0));
    let keys: FxHashSet<Vec<Value>> = rel.iter().map(|t| t.project(attrs)).collect();
    keys.len() as u64
}

#[test]
fn kernel_bitsets_equal_the_per_valuation_loop() {
    check(CASES, |g| {
        let db = random_db(g);
        let reg = registry();
        let tids: Vec<TupleId> = db.relation(RelId(0)).tids().collect();
        let kernels = EvalContext::new(&db, &reg);
        let oracle = EvalContext::new(&db, &reg).with_columnar(false);
        for p in predicates() {
            let p = resolved(&p, &reg);
            let before = reg.meter.inferences();
            let fast = predicate_sat_bits(&p, &kernels, RelId(0), &tids);
            let scored = reg.meter.inferences() - before;
            let slow = predicate_sat_bits(&p, &oracle, RelId(0), &tids);
            assert_eq!(fast, slow, "{p:?} over {} live tuples", tids.len());
            if let Predicate::Ml { lattrs, rattrs, .. } = &p {
                // one inference per distinct key pair, however many
                // tuple pairs share it
                let pairs = distinct_projections(&db, lattrs) * distinct_projections(&db, rattrs);
                assert_eq!(scored, pairs, "{p:?}");
            }
        }
    });
}

/// The bitset façade serves the kernels' bitsets, and an unknown model
/// yields no bitset on either plane.
#[test]
fn predicate_bitsets_serve_kernel_bits_and_skip_unknown_models() {
    check(CASES / 2, |g| {
        let db = random_db(g);
        let reg = registry();
        let tids: Vec<TupleId> = db.relation(RelId(0)).tids().collect();
        let mut preds = predicates();
        preds.push(ml("Nope", &[0], &[0]));
        let unknown = preds.len() - 1;
        let oracle = EvalContext::new(&db, &reg).with_columnar(false);
        for ctx in [EvalContext::new(&db, &reg), oracle] {
            let bits = PredicateBitsets::new(&ctx, &db, RelId(0), &preds, &[], &reg, 1 << 20);
            assert!(bits.precondition(unknown).is_none());
            for (i, p) in preds[..unknown].iter().enumerate() {
                let expect = predicate_sat_bits(
                    &resolved(p, &reg),
                    &EvalContext::new(&db, &reg).with_columnar(false),
                    RelId(0),
                    &tids,
                );
                assert_eq!(*bits.precondition(i).unwrap(), expect, "{p:?}");
            }
        }
    });
}

/// `mine_with_sampling` as it verified before its survivors were measured
/// on bitsets: mine the sample under relaxed thresholds, then rescan every
/// survivor over the full data.
fn mine_then_measure(
    disc: &Discoverer<'_>,
    db: &Database,
    rel: RelId,
    space: &PredicateSpace,
    ratio: f64,
    delta: f64,
    seed: u64,
) -> Vec<Rule> {
    let sampled = sample_database(db, ratio, seed);
    let n = sampled.relation(rel).len().max(2);
    let eps = deviation_bound(n * n, delta).min(0.2);
    let relaxed = Discoverer::new(
        disc.registry,
        DiscoveryConfig {
            min_support: (disc.config.min_support - eps).max(0.0),
            min_confidence: (disc.config.min_confidence - eps).max(0.0),
            ..disc.config.clone()
        },
    );
    let mut rules = relaxed.mine_relation(&sampled, rel, space).rules.rules;
    let ctx = EvalContext::new(db, disc.registry);
    rules.retain_mut(|rule| {
        let m = measure_into(rule, &ctx);
        m.support() >= disc.config.min_support && m.confidence() >= disc.config.min_confidence
    });
    rules
}

/// Name, text and measure bits of each rule, in mined order.
fn lines(db: &Database, rules: &[Rule]) -> Vec<String> {
    let schema = db.schema();
    rules
        .iter()
        .map(|r| {
            format!(
                "{} {} {:016x} {:016x}",
                r.name,
                r.display(&schema),
                r.support.to_bits(),
                r.confidence.to_bits()
            )
        })
        .collect()
}

/// Every relation of `w` above `min_rows`, mined with sampling at the
/// system's ratio and δ, matches the reference. Returns how many
/// relations were compared.
fn assert_sampling_matches(w: &Workload, min_rows: usize) -> usize {
    let cfg = RockConfig::default();
    let sigs = ml_signatures(w);
    let disc = Discoverer::new(&w.registry, cfg.discovery_config());
    let mut compared = 0;
    for (rid, rel) in w.dirty.iter() {
        if rel.len() <= min_rows {
            continue;
        }
        let space = PredicateSpace::build(&w.dirty, rid, &sigs, &SpaceConfig);
        let (ratio, delta, seed) = (cfg.sample_ratio, 0.05, 17);
        let got = mine_with_sampling(&disc, &w.dirty, rid, &space, ratio, delta, seed);
        let want = mine_then_measure(&disc, &w.dirty, rid, &space, ratio, delta, seed);
        assert!(!want.is_empty(), "{}: no verified rules", rel.schema.name);
        assert_eq!(
            lines(&w.dirty, &got.rules.rules),
            lines(&w.dirty, &want),
            "{}",
            rel.schema.name
        );
        compared += 1;
    }
    compared
}

fn config(rows: usize, seed: u64) -> GenConfig {
    GenConfig {
        rows,
        error_rate: 0.08,
        seed,
        trusted_per_rel: 40,
    }
}

#[test]
fn sampled_verification_equals_rescan_on_bank() {
    for seed in 42..=45 {
        let w = rock::workloads::bank::generate(&config(200, seed));
        // the relations the system samples: those above 200 rows
        assert!(assert_sampling_matches(&w, 200) > 0, "seed {seed}");
    }
}

#[test]
fn sampled_verification_equals_rescan_on_sales() {
    let w = rock::workloads::sales::generate(&config(200, 42));
    assert!(assert_sampling_matches(&w, 200) > 0);
}
