//! Incremental monitoring (paper §3: "the users may opt to employ Rock to
//! monitor changes to D, and incrementally detect and fix errors in
//! response to updates"). A stream of ΔD batches arrives; each batch is
//! checked by incremental detection — touching only valuations that
//! involve updated tuples — and the flagged errors are repaired by an
//! incremental chase.
//!
//! ```text
//! cargo run --example incremental_monitor
//! ```

use rock::chase::{ChaseConfig, ChaseEngine};
use rock::data::{
    AttrId, AttrType, Database, DatabaseSchema, Delta, Eid, RelId, RelationSchema, Update, Value,
};
use rock::detect::Detector;
use rock::ml::ModelRegistry;
use rock::rees::{parse_rules, RuleSet};

fn main() {
    let schema = DatabaseSchema::new(vec![RelationSchema::of(
        "Order",
        &[
            ("oid", AttrType::Str),
            ("city", AttrType::Str),
            ("region", AttrType::Str),
        ],
    )]);
    let mut db = Database::new(&schema);
    let rel = RelId(0);
    for i in 0..200 {
        let (city, region) = match i % 3 {
            0 => ("Beijing", "North"),
            1 => ("Shanghai", "East"),
            _ => ("Shenzhen", "South"),
        };
        db.relation_mut(rel)
            .insert_row(vec![
                Value::str(format!("O{i:04}")),
                Value::str(city),
                Value::str(region),
            ])
            .unwrap();
    }

    let rules = RuleSet::new(
        parse_rules(
            "rule fd: Order(t) && Order(s) && t.city = s.city -> t.region = s.region",
            &schema,
        )
        .unwrap(),
    );
    let registry = ModelRegistry::new();
    let detector = Detector::new(&rules, &registry);

    // A stream of update batches; the third one carries an error.
    let batches = [
        Delta::new(vec![Update::Insert {
            rel,
            eid: Eid(1000),
            values: vec![
                Value::str("O9001"),
                Value::str("Beijing"),
                Value::str("North"),
            ],
        }]),
        Delta::new(vec![Update::SetCell {
            rel,
            tid: rock::data::TupleId(0),
            attr: AttrId(0),
            value: Value::str("O0000-v2"),
        }]),
        Delta::new(vec![Update::Insert {
            rel,
            eid: Eid(1001),
            values: vec![
                Value::str("O9002"),
                Value::str("Beijing"),
                Value::str("West"),
            ], // wrong region
        }]),
    ];

    let engine = ChaseEngine::new(&rules, &registry, ChaseConfig::default());
    for (i, delta) in batches.iter().enumerate() {
        let before = db.clone();
        let inserted = db.apply(delta).unwrap();
        let report = detector.detect_incremental(&db, delta, &inserted);
        println!(
            "batch {i}: {} updates -> {} incremental violations",
            delta.len(),
            report.count()
        );
        if report.count() > 0 {
            // incremental chase repairs in response to the same ΔD
            let res = engine.run_incremental(&before, &[], delta).unwrap();
            for (cell, old, new) in &res.changes {
                println!(
                    "  repaired row {} {}: '{}' -> '{}'",
                    cell.tid.0,
                    res.db.relation(cell.rel).schema.attr_name(cell.attr),
                    old,
                    new
                );
            }
            db = res.db;
        }
    }

    // the stream left the database consistent
    let final_report = detector.detect(&db);
    assert_eq!(final_report.count(), 0, "monitor must leave no violations");
    println!("incremental_monitor OK — database consistent after the stream");
}
