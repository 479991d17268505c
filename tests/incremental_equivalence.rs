//! Incremental ≡ batch (paper §3, [41]): incremental detection after ΔD
//! must find exactly the batch violations that touch updated tuples.

mod common;

use common::check;
use rock::crystal::{ClusterConfig, FaultPlan};
use rock::data::{
    AttrId, AttrType, Database, DatabaseSchema, Delta, Eid, RelId, RelationSchema, TupleId, Update,
    Value,
};
use rock::detect::detect::Violation;
use rock::detect::Detector;
use rock::ml::ModelRegistry;
use rock::rees::{parse_rules, RuleSet};
use rock_data::FxHashSet;

fn schema() -> DatabaseSchema {
    DatabaseSchema::new(vec![RelationSchema::of(
        "T",
        &[
            ("k", AttrType::Str),
            ("v", AttrType::Str),
            ("w", AttrType::Str),
        ],
    )])
}

fn rules(schema: &DatabaseSchema) -> RuleSet {
    RuleSet::new(
        parse_rules(
            "rule fd1: T(t) && T(s) && t.k = s.k -> t.v = s.v\n\
             rule fd2: T(t) && T(s) && t.v = s.v -> t.w = s.w\n\
             rule mi: T(t) && null(t.w) -> t.w = 'z'",
            schema,
        )
        .unwrap(),
    )
}

fn build_db(rows: &[(u8, u8, Option<u8>)]) -> Database {
    let schema = schema();
    let mut db = Database::new(&schema);
    let r = db.relation_mut(RelId(0));
    for (k, v, w) in rows {
        r.insert_row(vec![
            Value::str(format!("k{}", k % 3)),
            Value::str(format!("v{}", v % 3)),
            match w {
                None => Value::Null,
                Some(x) => Value::str(format!("w{}", x % 2)),
            },
        ])
        .unwrap();
    }
    db
}

const CASES: u64 = 32;

fn build_delta(db: &Database, ops: &[(u8, u8, u8)]) -> Delta {
    // op kinds: 0 = insert, 1 = set v, 2 = null w
    let n = db.relation(RelId(0)).capacity() as u32;
    let mut delta = Delta::default();
    for (kind, a, b) in ops {
        match kind % 3 {
            0 => delta.push(Update::Insert {
                rel: RelId(0),
                eid: Eid(10_000 + u32::from(*a)),
                values: vec![
                    Value::str(format!("k{}", a % 3)),
                    Value::str(format!("v{}", b % 3)),
                    Value::str(format!("w{}", b % 2)),
                ],
            }),
            1 => delta.push(Update::SetCell {
                rel: RelId(0),
                tid: TupleId(u32::from(*a) % n.max(1)),
                attr: AttrId(1),
                value: Value::str(format!("v{}", b % 3)),
            }),
            _ => delta.push(Update::SetCell {
                rel: RelId(0),
                tid: TupleId(u32::from(*a) % n.max(1)),
                attr: AttrId(2),
                value: Value::Null,
            }),
        }
    }
    delta
}

#[test]
fn incremental_detection_equals_batch_on_touched() {
    check(CASES, |g| {
        let rows = g.vec(2..10, |g| {
            (
                g.range(0u8..3),
                g.range(0u8..3),
                g.option(|g| g.range(0u8..2)),
            )
        });
        let ops = g.vec(1..5, |g| {
            (g.range(0u8..3), g.range(0u8..8), g.range(0u8..4))
        });
        let (fault_seed, panic_prob, transient_prob) =
            (g.u64(), g.range(0.0f64..0.3), g.range(0.0f64..0.3));
        let schema = schema();
        let rules = rules(&schema);
        let reg = ModelRegistry::new();
        let mut db = build_db(&rows);
        let delta = build_delta(&db, &ops);
        let inserted = db.apply(&delta).unwrap();

        let detector = Detector::new(&rules, &reg);
        let incremental = detector.detect_incremental(&db, &delta, &inserted);

        // touched tuple ids
        let mut touched: FxHashSet<TupleId> = inserted.iter().copied().collect();
        for u in &delta.updates {
            if let Update::SetCell { tid, .. } = u {
                touched.insert(*tid);
            }
        }

        // the batch violations binding a touched tuple, as (rule, tuples)
        // pairs: incremental detection finds exactly these, each once
        let key = |v: &Violation| (v.rule, v.valuation.tuples.clone());
        let batch = detector.detect(&db);
        let mut batch_touched: Vec<_> = batch
            .pairs()
            .iter()
            .filter(|v| v.valuation.tuples.iter().any(|g| touched.contains(&g.tid)))
            .map(key)
            .collect();
        batch_touched.sort();
        let mut found: Vec<_> = incremental.pairs().iter().map(key).collect();
        found.sort();
        assert_eq!(found, batch_touched);
        assert_eq!(incremental.count(), batch_touched.len());

        // the same units on the cluster: more workers, and first-attempt
        // faults the default retry budget absorbs, change nothing
        let faults = FaultPlan::seeded(fault_seed)
            .with_panics(panic_prob)
            .with_transients(transient_prob);
        rock::crystal::fault::silence_injected_panics();
        for (workers, cluster) in [
            (1, ClusterConfig::default()),
            (3, ClusterConfig::default()),
            (3, ClusterConfig::default().with_fault_plan(faults)),
        ] {
            let rep = Detector::new(&rules, &reg)
                .with_workers(workers)
                .with_cluster(cluster)
                .detect_incremental(&db, &delta, &inserted);
            assert!(rep.unit_failures.is_empty(), "{:?}", rep.unit_failures);
            let mut on_cluster: Vec<_> = rep.pairs().iter().map(key).collect();
            on_cluster.sort();
            assert_eq!(on_cluster, found, "{workers} workers");
            assert_eq!(rep.flagged_cells, incremental.flagged_cells);
        }
    });
}

/// Incremental detection runs on the cluster it is given: a unit that
/// panics on every attempt is quarantined, reported, and contributes no
/// violations, while the rest still find theirs.
#[test]
fn poisoned_incremental_unit_is_reported() {
    let schema = schema();
    let rules = rules(&schema);
    let reg = ModelRegistry::new();
    let mut db = build_db(&[(0, 0, Some(0)), (0, 1, Some(0)), (1, 1, None)]);
    let delta = Delta::new(vec![
        Update::Insert {
            rel: RelId(0),
            eid: Eid(99),
            values: vec![Value::str("k0"), Value::str("v9"), Value::Null],
        },
        Update::SetCell {
            rel: RelId(0),
            tid: TupleId(0),
            attr: AttrId(1),
            value: Value::str("v2"),
        },
    ]);
    let inserted = db.apply(&delta).unwrap();
    let key = |v: &Violation| (v.rule, v.valuation.tuples.clone());
    let clean = Detector::new(&rules, &reg).detect_incremental(&db, &delta, &inserted);
    let all: FxHashSet<_> = clean.pairs().iter().map(key).collect();

    rock::crystal::fault::silence_injected_panics();
    let poisoned = ClusterConfig::default()
        .with_fault_plan(FaultPlan::seeded(7).with_poison(vec![0]))
        .with_max_retries(0);
    let rep = Detector::new(&rules, &reg)
        .with_cluster(poisoned)
        .detect_incremental(&db, &delta, &inserted);
    assert!(
        !rep.unit_failures.is_empty(),
        "the poisoned unit is reported"
    );
    assert!(rep.pairs().iter().all(|v| all.contains(&key(v))));
    // unit 0 is fd1's run unit: it covers the k0 run, which holds the
    // rewritten tuple 0 and the inserted row, both disagreeing with the
    // other k0 rows
    assert!(rep.count() < clean.count(), "unit 0 found violations");
    assert!(rep.count() > 0, "the other units still ran");
}

/// Applying an empty delta detects nothing incrementally.
#[test]
fn empty_delta_detects_nothing() {
    check(CASES, |g| {
        let rows = g.vec(2..8, |g| {
            (
                g.range(0u8..3),
                g.range(0u8..3),
                g.option(|g| g.range(0u8..2)),
            )
        });
        let schema = schema();
        let rules = rules(&schema);
        let reg = ModelRegistry::new();
        let db = build_db(&rows);
        let detector = Detector::new(&rules, &reg);
        let rep = detector.detect_incremental(&db, &Delta::default(), &[]);
        assert_eq!(rep.count(), 0);
    });
}

/// Deterministic regression: an insert conflicting with existing rows is
/// caught with exactly the right counterpart count.
#[test]
fn insert_conflicts_counted_exactly() {
    let schema = schema();
    let rules = rules(&schema);
    let reg = ModelRegistry::new();
    let mut db = build_db(&[(0, 0, Some(0)), (0, 0, Some(0)), (1, 1, Some(1))]);
    let delta = Delta::new(vec![Update::Insert {
        rel: RelId(0),
        eid: Eid(99),
        values: vec![Value::str("k0"), Value::str("v9"), Value::str("w0")],
    }]);
    let inserted = db.apply(&delta).unwrap();
    let rep = Detector::new(&rules, &reg).detect_incremental(&db, &delta, &inserted);
    // fd1: new row (k0, v9) conflicts with both (k0, v0) rows, both
    // directions = 4 violations
    let fd1 = rep.pairs().iter().filter(|v| v.rule == 0).count();
    assert_eq!(rep.per_rule()[&0], fd1);
    assert_eq!(fd1, 4);
}
