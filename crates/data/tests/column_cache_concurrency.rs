//! Concurrency regression test for the `ColumnCache` version protocol:
//! concurrent `set_cell` and `set_eid` patches (under exclusive access) and
//! snapshot rebuilds (under shared access) must never let a reader observe
//! a columnar image or an entity class index that disagrees with the row
//! store it was built from. The class index sits in a cache of its own
//! beside the columns, running the same generic cache code.
//!
//! The bounded model-checking certificate for this protocol lives in
//! `rock-crystal/tests/model_protocols.rs` (`column-cache-version`); this
//! test drives the real implementation — raw `std` threads stand in for
//! loom, which the build does not carry — so in-place patches, patches on
//! a copy of a snapshot a reader holds, and racing rebuilds all execute
//! for real under contention.

use std::sync::RwLock;

use rock_data::{AttrType, Eid, PredOp, Relation, RelationSchema, TupleId, Value};

const ROWS: usize = 64;
const WRITERS: usize = 2;
const READERS: usize = 4;
const OPS: usize = 300;

fn build_relation() -> Relation {
    let mut rel = Relation::new(RelationSchema::of(
        "T",
        &[("n", AttrType::Int), ("name", AttrType::Str)],
    ));
    for i in 0..ROWS {
        rel.insert_row(vec![Value::Int(i as i64), Value::str(format!("row-{i}"))])
            .unwrap();
    }
    rel
}

/// The class index groups exactly the rows' tuples by eid.
fn assert_classes_consistent(rel: &Relation) {
    let classes = rel.classes();
    let mut seen = 0;
    for t in rel.iter() {
        let members: Vec<TupleId> = classes.members(t.eid).collect();
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "class {:?} not ascending: {members:?}",
            t.eid
        );
        assert!(
            members.contains(&t.tid),
            "{:?} missing from its class",
            t.tid
        );
        for m in &members {
            assert_eq!(
                rel.get(*m).map(|u| u.eid),
                Some(t.eid),
                "stale member {m:?}"
            );
        }
        seen += 1;
    }
    assert_eq!(seen, ROWS);
}

/// Under a read lock the rows cannot move, so the snapshot — whether it
/// was served from cache, patched, or just rebuilt by a
/// racing reader — must agree cell-for-cell with the row store.
fn assert_snapshot_consistent(rel: &Relation) {
    let snap = rel.columns();
    for t in rel.iter() {
        for (attr, _) in rel.schema.iter_attrs() {
            assert_eq!(
                snap.value_at(attr, t.tid.index()),
                *t.get(attr),
                "snapshot diverged from rows at tid {:?} attr {:?}",
                t.tid,
                attr
            );
        }
    }
}

#[test]
fn concurrent_write_cell_and_rebuild_never_serve_stale_cells() {
    let rel = RwLock::new(build_relation());
    let int_attr = rel.read().unwrap().schema.iter_attrs().next().unwrap().0;

    std::thread::scope(|scope| {
        // eid writes move tuples between a handful of classes
        let eid_writer = &rel;
        scope.spawn(move || {
            for op in 0..OPS {
                let mut guard = eid_writer.write().unwrap();
                let tid = TupleId((op * 7 % ROWS) as u32);
                let eid = Eid((op % 5) as u32);
                assert!(guard.set_eid(tid, eid));
                assert!(
                    guard.classes().members(eid).any(|t| t == tid),
                    "the writer's own class index must be current"
                );
            }
        });
        for w in 0..WRITERS {
            let rel = &rel;
            scope.spawn(move || {
                for op in 0..OPS {
                    let mut guard = rel.write().unwrap();
                    let slot = (op * WRITERS + w) % ROWS;
                    let value = Value::Int((w * OPS + op) as i64);
                    assert!(guard.set_cell(TupleId(slot as u32), int_attr, value));
                    // the writer's own view must be current immediately
                    // (patched in place or on a copy, never a stale hit)
                    assert_eq!(
                        guard.columns().value_at(int_attr, slot),
                        Value::Int((w * OPS + op) as i64),
                    );
                }
            });
        }
        for r in 0..READERS {
            let rel = &rel;
            scope.spawn(move || {
                for op in 0..OPS {
                    let guard = rel.read().unwrap();
                    assert_snapshot_consistent(&guard);
                    assert_classes_consistent(&guard);
                    // the predicate kernels run over the same snapshot:
                    // the mask must match a scalar recomputation
                    let pivot = Value::Int(((r + op) % OPS) as i64);
                    let snap = guard.columns();
                    let mask = snap.eval_const_op(int_attr, PredOp::Ge, &pivot);
                    for t in guard.iter() {
                        let scalar = match t.get(int_attr) {
                            Value::Int(n) => *n >= ((r + op) % OPS) as i64,
                            _ => false,
                        };
                        assert_eq!(
                            mask.get(t.tid.index()),
                            scalar,
                            "kernel mask stale at tid {:?}",
                            t.tid
                        );
                    }
                }
            });
        }
    });

    // quiescent state: one more full check plus a cache-hit identity —
    // two back-to-back snapshots with no mutation share the same Arc
    let guard = rel.read().unwrap();
    assert_snapshot_consistent(&guard);
    assert_classes_consistent(&guard);
    let a = guard.columns();
    let b = guard.columns();
    assert!(
        std::sync::Arc::ptr_eq(&a, &b),
        "quiescent snapshots must be served from cache"
    );
}
