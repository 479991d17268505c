//! The columnar data plane against its scalar baseline: with
//! `Detector::with_columnar(false)` the detector answers unary prefilters by
//! per-tuple evaluation instead of the vectorized column kernels
//! (`rock_data::ColumnSet`) and builds equality-join indexes per call from
//! the rows instead of probing the snapshot's cached ones, and it
//! enumerates FD-shaped rules pair by pair instead of per join run; it
//! must report exactly the same violations and flag the same cells. The chase
//! side of the same comparison lives in `tests/engine_equivalence.rs` (the
//! reference chase evaluates scalar). Also here: the column-plane
//! invariants themselves — dictionary re-encoding, null bitmap
//! round-trips, and tombstone / `TupleId` stability.

mod common;

use common::check;
use rock::data::{
    AttrId, AttrType, CellRef, ColumnData, Database, DatabaseSchema, GlobalTid, PredOp, RelId,
    Relation, RelationSchema, TupleId, Value,
};
use rock::detect::blocking::precompute_ml;
use rock::ml::ModelRegistry;
use rock::rees::eval::Valuation;
use rock::rees::{parse_rules, FdShape, RuleSet};
use rock::workloads::workload::GenConfig;

fn schema() -> DatabaseSchema {
    DatabaseSchema::new(vec![RelationSchema::of(
        "T",
        &[
            ("k", AttrType::Str),
            ("a", AttrType::Str),
            ("b", AttrType::Str),
            ("c", AttrType::Str),
        ],
    )])
}

/// The `tests/chase_properties.rs` rule set plus r6, a same-tuple
/// attribute comparison — r3 (constant), r5 (`null(...)`) and r6
/// (`t.a = t.b`) are exactly the unary shapes the columnar prefilter
/// answers with `eval_const_op`, `null_mask` and `eval_col_op_col`.
fn rules(schema: &DatabaseSchema) -> RuleSet {
    RuleSet::new(
        parse_rules(
            "rule r1: T(t) && T(s) && t.k = s.k -> t.a = s.a\n\
             rule r2: T(t) && T(s) && t.a = s.a -> t.b = s.b\n\
             rule r3: T(t) && t.a = 'x' -> t.c = 'cx'\n\
             rule r4: T(t) && T(s) && t.k = s.k -> t.eid = s.eid\n\
             rule r5: T(t) && null(t.c) && t.b = 'bz' -> t.c = 'cz'\n\
             rule r6: T(t) && t.a = t.b -> t.c = 'cab'",
            schema,
        )
        .unwrap(),
    )
}

/// `b` ranges over {bz, a1, a2, x} so it can collide with `a` (r6) and
/// still hit the `'bz'` arm (r5).
fn build_db(rows: &[(u8, u8, u8, Option<u8>)]) -> Database {
    let schema = schema();
    let mut db = Database::new(&schema);
    let r = db.relation_mut(RelId(0));
    for (k, a, b, c) in rows {
        r.insert_row(vec![
            Value::str(format!("k{}", k % 4)),
            Value::str(if a % 3 == 0 {
                "x".into()
            } else {
                format!("a{}", a % 3)
            }),
            Value::str(match b % 4 {
                0 => "bz".into(),
                3 => "x".into(),
                n => format!("a{n}"),
            }),
            match c {
                None => Value::Null,
                Some(v) => Value::str(format!("c{}", v % 2)),
            },
        ])
        .unwrap();
    }
    db
}

/// What a detection reports: the violations of the rules enumerated pair
/// by pair, as rule and valuation in report order; the FD-shaped rules'
/// violations as rule and bound tuples in canonical order (the columnar
/// detector evaluates them per join run, and a run has no enumeration
/// order); the report's count; the duplicate pairs in report order; and
/// the flagged cells.
type Detection = (
    Vec<(usize, Valuation)>,
    Vec<(usize, Vec<GlobalTid>)>,
    usize,
    Vec<(GlobalTid, GlobalTid)>,
    Vec<CellRef>,
);

fn detection(detector: rock::detect::Detector<'_>, db: &Database) -> Detection {
    let rules = detector.rules;
    let report = detector.detect(db);
    let (fd, pairwise): (Vec<_>, Vec<_>) = report
        .pairs()
        .into_iter()
        .partition(|v| FdShape::of(&rules.rules[v.rule]).is_some());
    let pairwise = pairwise
        .into_iter()
        .map(|v| (v.rule, v.valuation))
        .collect();
    let mut fd: Vec<_> = fd
        .into_iter()
        .map(|v| (v.rule, v.valuation.tuples))
        .collect();
    fd.sort_unstable();
    let count = report.count();
    let mut cells: Vec<_> = report.flagged_cells.into_iter().collect();
    cells.sort_unstable();
    (pairwise, fd, count, report.duplicate_pairs, cells)
}

/// Detection equivalence: the columnar detector — kernel prefilters,
/// cached join indexes, FD-shaped rules evaluated per join run — must
/// report exactly the scalar detector's violations, those of the rules
/// it enumerates pair by pair in the same order, the same duplicate pairs
/// and the same flagged cells. Random instances of the small rule set,
/// then each workload's curated rules at 300 rows.
#[test]
fn columnar_detection_flags_identical_cells() {
    check(64, |g| {
        let rows = g.vec(2..12, |g| {
            (
                g.range(0u8..4),
                g.range(0u8..3),
                g.range(0u8..4),
                g.option(|g| g.range(0u8..2)),
            )
        });
        let schema = schema();
        let rs = rules(&schema);
        let db = build_db(&rows);
        let reg = ModelRegistry::new();
        let detect = |columnar: bool| {
            detection(
                rock::detect::Detector::new(&rs, &reg).with_columnar(columnar),
                &db,
            )
        };
        assert_eq!(detect(false), detect(true), "detections diverged");
    });
    let gen = |seed| GenConfig {
        rows: 300,
        error_rate: 0.08,
        seed,
        trusted_per_rel: 15,
    };
    for w in [
        rock::workloads::bank::generate(&gen(42)),
        rock::workloads::logistics::generate(&gen(43)),
        rock::workloads::sales::generate(&gen(44)),
    ] {
        precompute_ml(&w.dirty, &w.rules, &w.registry);
        let detect = |columnar: bool| {
            let detector = rock::detect::Detector::new(&w.rules, &w.registry)
                .with_workers(2)
                .with_columnar(columnar);
            let detector = match &w.graph {
                Some(g) => detector.with_graph(g),
                None => detector,
            };
            detection(detector, &w.dirty)
        };
        let (scalar, columnar) = (detect(false), detect(true));
        assert!(!scalar.0.is_empty(), "{}: no pairwise violations", w.name);
        assert!(!scalar.1.is_empty(), "{}: no FD violations", w.name);
        assert!(scalar == columnar, "{}: detections diverged", w.name);
    }
}

/// Dictionary re-encoding: inserts and cell writes patch the snapshot and
/// intern append-only, so overwritten payloads leave stale codes behind;
/// once a dictionary holds more than twice as many codes as the relation
/// has slots, the next read rebuilds and re-encodes it to the live
/// payloads. The join index equals the rows' after every step.
#[test]
fn dictionary_reencodes_past_its_bound() {
    let schema = schema();
    let mut db = Database::new(&schema);
    let r = db.relation_mut(RelId(0));
    let row = |k: &str| {
        vec![
            Value::str(k),
            Value::str("a1"),
            Value::str("b1"),
            Value::Null,
        ]
    };
    for i in 0..6u32 {
        r.insert_row(row(&format!("k{i}"))).unwrap();
    }
    let dict_len = |rel: &Relation| rel.columns().column(AttrId(0)).dict_len();
    let index_matches =
        |rel: &Relation| *rel.columns().join_index(AttrId(0)) == rel.index_on(AttrId(0));
    assert_eq!(dict_len(r), 6, "six distinct keys intern six payloads");
    assert!(index_matches(r));
    // overwrite every key with one shared payload, then insert one more
    // row: all patches, so the dictionary grows rather than shrinks
    let tids: Vec<TupleId> = r.tids().collect();
    for tid in &tids {
        assert!(r.set_cell(*tid, AttrId(0), Value::str("same")));
        assert!(index_matches(r));
    }
    r.insert_row(row("same")).unwrap();
    assert_eq!(dict_len(r), 7, "patched interning is append-only");
    assert!(index_matches(r));
    // 7 slots bound the dictionary at 14 codes: seven fresh payloads reach
    // the bound and the snapshot still serves...
    for i in 0..7u32 {
        assert!(r.set_cell(tids[i as usize % 6], AttrId(0), Value::str(format!("x{i}"))));
        assert!(index_matches(r));
    }
    assert_eq!(dict_len(r), 14);
    // ...and the eighth passes it: the next read re-encodes to the live set
    assert!(r.set_cell(tids[1], AttrId(0), Value::str("x7")));
    let live: Vec<String> = r.iter().map(|t| t.get(AttrId(0)).to_string()).collect();
    let cols = r.columns();
    let ColumnData::Str { dict, .. } = &cols.column(AttrId(0)).data else {
        panic!("k must be a string column");
    };
    let payloads: Vec<String> = dict.iter().map(|(_, s)| s.to_string()).collect();
    let mut distinct_live = Vec::new();
    for s in live {
        if !distinct_live.contains(&s) {
            distinct_live.push(s);
        }
    }
    assert_eq!(payloads, distinct_live, "re-encoded to the live payloads");
    assert_eq!(dict_len(r), 7, "x6 x7 x2 x3 x4 x5 same");
    assert!(index_matches(r));
}

/// Null bitmap round-trip: every live cell decodes to exactly the row
/// store's value, nulls included, and `null_mask` agrees with the tuples.
#[test]
fn null_bitmap_roundtrips_exactly() {
    let db = build_db(&[
        (0, 1, 0, None),
        (1, 0, 2, Some(1)),
        (2, 2, 3, None),
        (3, 1, 1, Some(0)),
    ]);
    let rel = db.relation(RelId(0));
    let cols = rel.columns();
    for tid in rel.tids() {
        let t = rel.get(tid).unwrap();
        for (attr, _) in rel.schema.iter_attrs() {
            assert_eq!(
                &cols.value_at(attr, tid.index()),
                t.get(attr),
                "cell ({tid:?}, {attr:?}) diverged"
            );
            assert_eq!(
                cols.null_mask(attr).get(tid.index()),
                t.get(attr).is_null(),
                "null mask diverged at ({tid:?}, {attr:?})"
            );
        }
    }
}

/// Tombstones and `TupleId` stability: deleting a middle tuple leaves the
/// survivors' ids (and their column slots) untouched, and no kernel ever
/// matches the dead slot.
#[test]
fn tombstones_keep_tuple_ids_stable() {
    let mut db = build_db(&[(0, 0, 3, None), (1, 0, 3, None), (2, 1, 0, Some(1))]);
    let r = db.relation_mut(RelId(0));
    let tids: Vec<TupleId> = r.tids().collect();
    assert!(r.delete(tids[1]));
    let cols = r.columns();
    assert!(!cols.live().get(tids[1].index()), "deleted slot stays dead");
    for tid in [tids[0], tids[2]] {
        assert!(cols.live().get(tid.index()), "survivor {tid:?} stays live");
        assert_eq!(
            cols.value_at(AttrId(0), tid.index()),
            r.get(tid).unwrap().get(AttrId(0)).clone(),
            "survivor {tid:?} kept its slot"
        );
    }
    // row 1 had a = 'x' (a % 3 == 0); the tombstoned slot must not match
    // even though its payload bytes are still in the column.
    let hits = cols.eval_const_op(AttrId(1), PredOp::Eq, &Value::str("x"));
    assert!(hits.get(tids[0].index()), "live 'x' row matches");
    assert!(!hits.get(tids[1].index()), "tombstoned row never matches");
}

/// Satellite 6 end-to-end: `Int(3)` and `Float(3.0)` compare equal through
/// both planes — the kernel answer on a heterogeneously-typed column must
/// match the scalar path cell for cell.
#[test]
fn int_float_equality_agrees_between_planes() {
    let schema = DatabaseSchema::new(vec![RelationSchema::of("N", &[("x", AttrType::Int)])]);
    let mut db = Database::new(&schema);
    let r = db.relation_mut(RelId(0));
    for v in [
        Value::Int(3),
        Value::Float(3.0),
        Value::Float(3.5),
        Value::Int(4),
        Value::Null,
    ] {
        r.insert_row(vec![v]).unwrap();
    }
    let cols = r.columns();
    for op in [
        PredOp::Eq,
        PredOp::Neq,
        PredOp::Lt,
        PredOp::Le,
        PredOp::Gt,
        PredOp::Ge,
    ] {
        for konst in [Value::Int(3), Value::Float(3.0), Value::Float(3.25)] {
            let mask = cols.eval_const_op(AttrId(0), op, &konst);
            for tid in r.tids() {
                let scalar = op.eval(r.get(tid).unwrap().get(AttrId(0)), &konst);
                assert_eq!(
                    mask.get(tid.index()),
                    scalar,
                    "kernel vs scalar diverged: {op:?} {konst:?} at {tid:?}"
                );
            }
        }
    }
    assert_eq!(
        cols.eval_const_op(AttrId(0), PredOp::Eq, &Value::Int(3))
            .count_ones(),
        2,
        "Int(3) matches both Int(3) and Float(3.0)"
    );
}
