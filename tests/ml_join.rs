//! The ML join: with a model's block filter installed, production
//! enumeration narrows the second variable of `M(t[Ā], s[B̄])` to the
//! tuples whose current projection key is accepted with the bound one
//! (`rock::rees::eval`). Everything else must come out exactly as when
//! every valuation is decided at the leaf: detection against
//! `Detector::with_columnar(false)`, the chase against
//! `rock::chase::reference`, with the same filters installed for both; and
//! detection and the chase, round stats included, against production over
//! a registry whose model gives the same answers but has no filter to
//! join on ([`Unjoined`]).
//!
//! The random databases draw names from a small pool, so many tuples share
//! a projection; names and cities may be null. The model is asymmetric
//! ([`Directed`]), so the two directions of a pair differ. It serves four
//! signatures — one attribute and two, within a relation and across two —
//! so its filter is their union. `ml_alone` is an ML join with nothing
//! before it, `ml_after_eq` follows an equality join. The chase rewrites
//! names to another tuple's name (`code_name`) and to a value no tuple held
//! when the filter was built (`fresh`), so later rounds join on keys that
//! are new or that moved between tuples. A failing case prints its seed.

mod common;

use common::{check, Gen};
use rock::chase::reference;
use rock::chase::{ChaseConfig, ChaseEngine, GateMode};
use rock::data::{
    AttrId, AttrType, Database, DatabaseSchema, GlobalTid, RelId, RelationSchema, TupleId, Value,
};
use rock::detect::blocking::precompute_ml;
use rock::detect::{DetectReport, Detector};
use rock::ml::{ModelId, ModelRegistry, NgramPairModel, PairClassifier};
use rock::rees::{parse_rules, RuleSet};
use std::cell::Cell;
use std::sync::Arc;

const CASES: u64 = 48;

const NAMES: [&str; 6] = [
    "acme holdings",
    "acme holding",
    "globex systems inc",
    "globex system inc",
    "initech labs",
    "umbrella group",
];

fn schema() -> DatabaseSchema {
    DatabaseSchema::new(vec![
        RelationSchema::of(
            "Firm",
            &[
                ("name", AttrType::Str),
                ("city", AttrType::Str),
                ("sector", AttrType::Str),
                ("code", AttrType::Str),
            ],
        ),
        RelationSchema::of("Ext", &[("name", AttrType::Str), ("city", AttrType::Str)]),
    ])
}

fn rules(reg: &ModelRegistry) -> RuleSet {
    let mut rules = RuleSet::new(
        parse_rules(
            "rule ml_alone: Firm(t) && Firm(s) && ml:M(t[name], s[name]) -> t.eid = s.eid\n\
             rule ml_after_eq: Firm(t) && Firm(s) && t.sector = s.sector && ml:M(t[name,city], s[name,city]) -> t.code = s.code\n\
             rule ml_cross: Firm(t) && Ext(s) && ml:M(t[name], s[name]) -> t.city = s.city\n\
             rule ml_ext: Ext(t) && Ext(s) && ml:M(t[city], s[city]) -> t.name = s.name\n\
             rule code_name: Firm(t) && Firm(s) && t.code = s.code -> t.name = s.name\n\
             rule fresh: Firm(t) && t.sector = 'sx' -> t.name = 'zz fresh name'",
            &schema(),
        )
        .unwrap(),
    );
    rules.resolve(reg).unwrap();
    rules
}

fn maybe_null(g: &mut Gen, v: impl Into<String>) -> Value {
    if g.below(8) == 0 {
        Value::Null
    } else {
        Value::str(v.into())
    }
}

fn random_db(g: &mut Gen) -> Database {
    let mut db = Database::new(&schema());
    let firms = g.range(12..40usize);
    for _ in 0..firms {
        let (name, city) = (g.pick(&NAMES), format!("city {}", g.below(3)));
        let row = vec![
            maybe_null(g, name),
            maybe_null(g, city),
            Value::str(g.pick(&["s0", "s1", "sx"])),
            Value::str(format!("c{}", g.below(5))),
        ];
        db.relation_mut(RelId(0)).insert_row(row).unwrap();
    }
    let ext = g.range(3..10usize);
    for _ in 0..ext {
        let suffix = g.pick(&["", " ltd"]);
        let name = g.pick(&NAMES).to_owned() + suffix;
        let city = format!("city {}", g.below(4));
        let row = vec![maybe_null(g, name), maybe_null(g, city)];
        db.relation_mut(RelId(1)).insert_row(row).unwrap();
    }
    db
}

/// An n-gram matcher that only accepts a left side at least as long as the
/// right one, so that `M(a, b)` and `M(b, a)` differ and a join probing the
/// wrong direction shows.
struct Directed(NgramPairModel);

impl PairClassifier for Directed {
    fn score(&self, a: &[Value], b: &[Value]) -> f64 {
        let len = |vs: &[Value]| vs.iter().map(|v| v.render().len()).sum::<usize>();
        if len(a) >= len(b) {
            self.0.score(a, b)
        } else {
            0.0
        }
    }

    fn threshold(&self) -> f64 {
        self.0.threshold()
    }
}

fn registry() -> Arc<ModelRegistry> {
    let reg = ModelRegistry::new();
    reg.register_pair(
        "M",
        Arc::new(Directed(NgramPairModel::with_threshold(0.75))),
    );
    Arc::new(reg)
}

/// `M` answered through a registry with its block filter installed, as a
/// model of its own: registered where no filter is, it decides every pair
/// at the leaf exactly as the filtered model does, and no ML join runs.
struct Unjoined {
    reg: Arc<ModelRegistry>,
    id: ModelId,
}

impl PairClassifier for Unjoined {
    fn score(&self, a: &[Value], b: &[Value]) -> f64 {
        f64::from(u8::from(self.reg.predict_pair(self.id, a, b)))
    }
}

fn detection(report: &DetectReport) -> (Vec<String>, usize, Vec<String>) {
    let mut pairs: Vec<String> = report.pairs().iter().map(|v| format!("{v:?}")).collect();
    pairs.sort();
    let mut cells: Vec<String> = report
        .flagged_cells
        .iter()
        .map(|c| format!("{c:?}"))
        .collect();
    cells.sort();
    (pairs, report.count(), cells)
}

fn rows(db: &Database) -> Vec<String> {
    db.iter()
        .flat_map(|(rid, rel)| rel.iter().map(move |t| format!("{rid:?} {t:?}")))
        .collect()
}

#[test]
fn ml_join_equals_leaf_evaluation() {
    // predict_pair calls with the join and without it, over all cases
    let (joined_calls, leaf_calls) = (Cell::new(0u64), Cell::new(0u64));
    // Firm names the chase rewrote to a name absent at blocking time, and
    // to one some tuple held
    let (fresh_names, existing_names) = (Cell::new(0usize), Cell::new(0usize));
    check(CASES, |g| {
        let db = random_db(g);
        let reg = registry();
        let rules = rules(&reg);
        let stats = precompute_ml(&db, &rules, &reg);
        assert_eq!(stats.predicates, 4);
        let id = reg.id("M").unwrap();
        let unjoined = ModelRegistry::new();
        let reg2 = Arc::clone(&reg);
        unjoined.register_pair("M", Arc::new(Unjoined { reg: reg2, id }));

        reg.meter.reset();
        let prod = Detector::new(&rules, &reg).detect(&db);
        joined_calls.set(joined_calls.get() + reg.meter.memo_hits());
        reg.meter.reset();
        let scalar = Detector::new(&rules, &reg).with_columnar(false).detect(&db);
        leaf_calls.set(leaf_calls.get() + reg.meter.memo_hits());
        assert_eq!(reg.meter.inferences(), 0, "the filter answers every pair");
        let leaf = Detector::new(&rules, &unjoined).detect(&db);
        assert_eq!(detection(&prod), detection(&scalar), "detection, scalar");
        assert_eq!(detection(&prod), detection(&leaf), "detection, no join");

        let trusted = [
            GlobalTid::new(RelId(0), TupleId(0)),
            GlobalTid::new(RelId(1), TupleId(0)),
        ];
        for gate in [GateMode::Resolved, GateMode::Strict] {
            let engine = |reg, workers| {
                let config = ChaseConfig {
                    gate,
                    workers,
                    ..ChaseConfig::default()
                };
                ChaseEngine::new(&rules, reg, config)
            };
            let naive = reference::run(&engine(&reg, 1), &db, &trusted);
            let leaf = engine(&unjoined, 1).run(&db, &trusted);
            for workers in [1, 3] {
                let case = format!("{gate:?} workers {workers}");
                let prod = engine(&reg, workers).run(&db, &trusted);
                assert_eq!(rows(&prod.db), rows(&naive.db), "{case}: databases");
                assert_eq!(prod.changes, naive.changes, "{case}: change lists");
                assert_eq!(prod.merged_pairs, naive.merged_pairs, "{case}: merges");
                assert_eq!(prod.conflicts, naive.conflicts, "{case}: conflicts");
                assert_eq!(prod.steps, naive.steps, "{case}: steps");
                assert!(prod.unit_failures.is_empty(), "{case}: quarantined units");
                // valuations and proposals, round by round, as without the join
                assert_eq!(prod.changes, leaf.changes, "{case}: no join");
                assert_eq!(prod.round_stats, leaf.round_stats, "{case}: round stats");
            }
            for (cell, _, new) in &naive.changes {
                if cell.rel == RelId(0) && cell.attr == AttrId(0) {
                    let fresh = *new == Value::str("zz fresh name");
                    let count = if fresh { &fresh_names } else { &existing_names };
                    count.set(count.get() + 1);
                }
            }
        }
    });
    assert!(
        joined_calls.get() < leaf_calls.get(),
        "the join narrowed nothing: {joined_calls:?} vs {leaf_calls:?} model calls"
    );
    assert!(fresh_names.get() > 0, "no name rewritten to a new value");
    assert!(
        existing_names.get() > 0,
        "no name rewritten to an existing one"
    );
}
