//! Patched column snapshots and class indexes against cold builds.
//!
//! Inserts, deletes and cell writes patch a relation's cached
//! `ColumnSet` — cells, live bitmap, every join index and projection
//! already built — and inserts, deletes and eid writes patch its entity
//! class index; a clone shares both snapshots until either side writes.
//! Two properties pin that down:
//!
//! * random `insert` / `delete` / `set_cell` / `set_eid` / clone
//!   sequences: after every step the snapshot equals
//!   `ColumnSet::from_relation` of the same rows and the class index
//!   equals a grouping of the rows by eid, a snapshot a reader still holds
//!   never changes, and neither side of a clone sees the other's writes;
//! * a Bank stream folded through `run_incremental`, each batch's result
//!   the next batch's base with its snapshots carried, is byte-identical
//!   to the same fold whose base is made cold (a JSON round trip) before
//!   every batch.

mod common;

use common::{check, Gen};
use rock::chase::{ChaseConfig, ChaseEngine};
use rock::crystal::json;
use rock::data::{
    AttrId, AttrType, ClassIndex, ColumnSet, Database, Eid, PredOp, Relation, RelationSchema,
    TupleId, Value,
};
use rock::workloads::workload::GenConfig;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

const ATTRS: [(&str, AttrType); 4] = [
    ("s", AttrType::Str),
    ("n", AttrType::Int),
    ("x", AttrType::Float),
    ("t", AttrType::Str),
];

/// A cell of a column of type `ty`: mostly well-typed from a small pool (so
/// join keys repeat), sometimes null, a type error, or a numeric of the
/// other numeric type, and sometimes a fresh string that grows the
/// dictionary towards its bound.
fn cell(g: &mut Gen, ty: AttrType) -> Value {
    match g.below(12) {
        0 => Value::Null,
        1 => Value::str("oops"),
        2 => Value::Int(g.below(3) as i64),
        3 => Value::Float(g.pick(&[1.0, 2.5])),
        _ => match ty {
            AttrType::Str if g.below(3) == 0 => Value::str(format!("f{}", g.below(10_000))),
            AttrType::Str => Value::str(g.pick(&["a", "b", "c"])),
            AttrType::Int => Value::Int(g.below(4) as i64),
            AttrType::Float => Value::Float(g.pick(&[0.5, 1.0, 2.0])),
            _ => Value::Null,
        },
    }
}

fn row(g: &mut Gen) -> Vec<Value> {
    ATTRS.iter().map(|(_, ty)| cell(g, *ty)).collect()
}

fn attrs() -> impl Iterator<Item = AttrId> {
    (0..ATTRS.len()).map(|a| AttrId(a as u16))
}

/// A few eids, so classes hold several tuples.
fn eid(g: &mut Gen) -> Eid {
    Eid(g.below(5) as u32)
}

/// The rows' live tuples grouped by eid, each class ascending.
fn grouped(rel: &Relation) -> BTreeMap<Eid, Vec<TupleId>> {
    let mut classes: BTreeMap<Eid, Vec<TupleId>> = BTreeMap::new();
    for t in rel.iter() {
        classes.entry(t.eid).or_default().push(t.tid);
    }
    classes
}

/// A class index holds exactly the rows' classes.
fn assert_classes_equal(classes: &ClassIndex, rel: &Relation) {
    let want = grouped(rel);
    assert_eq!(classes.len(), want.len(), "eids with a live tuple");
    for (eid, tids) in &want {
        let got: Vec<TupleId> = classes.members(*eid).collect();
        assert_eq!(&got, tids, "class {eid:?}");
    }
    assert_eq!(*classes, ClassIndex::from_relation(rel), "cold class index");
}

/// An independent copy of the rows with a cold cache.
fn deep_copy(rel: &Relation) -> Relation {
    json::from_slice(&json::to_vec(rel)).unwrap()
}

/// The cached snapshot equals a cold build: every cell, the live bitmap,
/// the type-error side maps, a kernel over the string codes, the join
/// index of each attribute in `probed`, and the projection keys of `proj`.
fn assert_cold_equal(rel: &Relation, probed: &[AttrId], proj: &[AttrId]) {
    let cols = rel.columns();
    let cold = ColumnSet::from_relation(rel);
    assert_eq!(cols.slots(), cold.slots());
    assert_eq!(cols.live(), cold.live(), "live bitmap");
    for attr in attrs() {
        for slot in 0..cold.slots() {
            assert_eq!(
                cols.value_at(attr, slot),
                cold.value_at(attr, slot),
                "cell {slot}/{attr:?}"
            );
        }
        assert_eq!(cols.null_mask(attr), cold.null_mask(attr), "{attr:?}");
        assert_eq!(
            cols.column(attr).fallback_len(),
            cold.column(attr).fallback_len(),
            "{attr:?} type errors"
        );
        for c in [Value::str("a"), Value::Int(1)] {
            assert_eq!(
                cols.eval_const_op(attr, PredOp::Eq, &c),
                cold.eval_const_op(attr, PredOp::Eq, &c),
                "{attr:?} = {c:?}"
            );
        }
    }
    for &attr in probed {
        let patched = cols.join_index(attr);
        assert_eq!(*patched, *cold.join_index(attr), "join index {attr:?}");
        assert_eq!(*patched, rel.index_on(attr), "join index {attr:?} vs rows");
        // equal keys, stored as the same type a cold build stores
        for (k, tids) in patched {
            let (ck, _) = cold.join_index(attr).get_key_value(k).unwrap();
            assert_eq!(format!("{k:?}"), format!("{ck:?}"), "key of {tids:?}");
        }
    }
    if !proj.is_empty() {
        assert_eq!(*cols.projection_keys(proj), *cold.projection_keys(proj));
    }
    assert_classes_equal(&rel.classes(), rel);
}

#[test]
fn random_patch_sequences_equal_a_cold_build() {
    // string dictionaries that outgrew their bound and were re-encoded
    let reencoded = Cell::new(0);
    check(48, |g| {
        let schema = RelationSchema::of("T", &ATTRS.map(|(n, ty)| (n, ty)));
        let mut rel = Relation::new(schema);
        for _ in 0..g.range(0..12usize) {
            let eid = eid(g);
            rel.insert(eid, row(g)).unwrap();
        }
        // half the cases patch a class index built up front; the others
        // build it at the first check and patch it from then on
        if g.bool() {
            let _ = rel.classes();
        }
        // build some indexes and projections up front; the rest stay
        // unbuilt until the end
        let probed: Vec<AttrId> = attrs().filter(|_| g.bool()).collect();
        let proj: Vec<AttrId> = attrs().filter(|_| g.bool()).collect();
        for &a in &probed {
            let _ = rel.columns().join_index(a);
        }
        if !proj.is_empty() {
            let _ = rel.columns().projection_keys(&proj);
        }
        // clones frozen at clone time: (clone, its independent copy)
        let mut twins: Vec<(Relation, Relation)> = Vec::new();
        // snapshots a reader holds across writes, and the rows they were for
        let mut held: Option<(Arc<ColumnSet>, Arc<ClassIndex>, Relation)> = None;
        // half the cases only write cells after the first inserts
        let write_heavy = g.bool();
        for _ in 0..60 {
            let live: Vec<TupleId> = rel.tids().collect();
            let dict_before: Vec<usize> = attrs()
                .map(|a| rel.columns().column(a).dict_len())
                .collect();
            let op = match g.below(12) {
                0..=2 if write_heavy && !live.is_empty() => 7,
                op => op,
            };
            match op {
                0..=2 => {
                    let eid = eid(g);
                    rel.insert(eid, row(g)).unwrap();
                }
                3 if !live.is_empty() => {
                    assert!(rel.delete(g.pick(&live)));
                }
                4 => {
                    let classes = rel.classes();
                    let twin = rel.clone();
                    assert!(Arc::ptr_eq(&twin.columns(), &rel.columns()));
                    assert!(Arc::ptr_eq(&twin.classes(), &classes));
                    drop(classes);
                    let frozen = deep_copy(&twin);
                    // either side goes on being written
                    if g.bool() {
                        twins.push((twin, frozen));
                    } else {
                        let original = std::mem::replace(&mut rel, twin);
                        twins.push((original, frozen));
                    }
                    if twins.len() > 3 {
                        twins.remove(0);
                    }
                }
                5 => held = Some((rel.columns(), rel.classes(), deep_copy(&rel))),
                6 => held = None,
                10 | 11 if !live.is_empty() => {
                    let eid = eid(g);
                    assert!(rel.set_eid(g.pick(&live), eid));
                }
                _ if !live.is_empty() => {
                    let attr = AttrId(g.below(ATTRS.len() as u64) as u16);
                    let v = cell(g, ATTRS[attr.index()].1);
                    assert!(rel.set_cell(g.pick(&live), attr, v));
                }
                _ => {}
            }
            assert_cold_equal(&rel, &probed, &proj);
            if attrs().any(|a| rel.columns().column(a).dict_len() < dict_before[a.index()]) {
                reencoded.set(reencoded.get() + 1);
            }
            for (twin, frozen) in &twins {
                assert!(twin == frozen, "a clone saw the other side's writes");
                assert_cold_equal(twin, &probed, &proj);
            }
            if let Some((snapshot, classes, rows)) = &held {
                let cold = ColumnSet::from_relation(rows);
                for attr in attrs() {
                    for slot in 0..cold.slots() {
                        assert_eq!(snapshot.value_at(attr, slot), cold.value_at(attr, slot));
                    }
                }
                assert_classes_equal(classes, rows);
            }
        }
        let all: Vec<AttrId> = attrs().collect();
        assert_cold_equal(&rel, &all, &all);
    });
    assert!(
        reencoded.into_inner() > 0,
        "no dictionary reached its bound"
    );
}

#[test]
fn stream_fold_with_carried_snapshots_equals_cold_bases() {
    let w = rock::workloads::bank::generate(&GenConfig {
        rows: 240,
        error_rate: 0.08,
        seed: 5,
        trusted_per_rel: 15,
    });
    let engine = ChaseEngine::new(
        &w.rules,
        &w.registry,
        ChaseConfig {
            policy: rock::core::conflict_policy(&w),
            ..Default::default()
        },
    );
    let (base, deltas) = rock::workloads::stream::generate(&w, 11, 10);
    let mut carried = base.clone();
    let mut cold = base;
    let mut changed = 0;
    for (i, delta) in deltas.iter().enumerate() {
        // build every snapshot and join index of the carried base, so the
        // batch patches all of them
        for (_, rel) in carried.iter() {
            let cols = rel.columns();
            for (attr, _) in rel.schema.iter_attrs() {
                let _ = cols.join_index(attr);
            }
        }
        let a = engine.run_incremental(&carried, &w.trusted, delta).unwrap();
        let cold_base: Database = json::from_slice(&json::to_vec(&cold)).unwrap();
        let b = engine
            .run_incremental(&cold_base, &w.trusted, delta)
            .unwrap();
        assert_eq!(
            json::to_vec(&a.db),
            json::to_vec(&b.db),
            "batch {i}: folded databases diverged"
        );
        assert_eq!(a.changes, b.changes, "batch {i}");
        assert_eq!(a.merged_pairs, b.merged_pairs, "batch {i}");
        assert_eq!(a.rounds, b.rounds, "batch {i}");
        let valuations = |r: &rock::chase::ChaseResult| {
            r.round_stats
                .iter()
                .map(|s| s.valuations)
                .collect::<Vec<_>>()
        };
        assert_eq!(valuations(&a), valuations(&b), "batch {i}");
        changed += a.changes.len();
        carried = a.db;
        cold = b.db;
    }
    assert!(changed > 0, "the stream must give the chase work");
}
