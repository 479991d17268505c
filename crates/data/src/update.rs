//! Update batches ΔD for the incremental modes (paper §3: "Rock also
//! incrementally detects errors in response to updates ΔD to D").

use crate::database::Database;
use crate::delta::DeltaSet;
use crate::error::DataError;
use crate::ids::{AttrId, Eid, RelId, TupleId};
use crate::schema::RelationSchema;
use crate::value::Value;

/// A single update.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Insert a new tuple.
    Insert {
        rel: RelId,
        eid: Eid,
        values: Vec<Value>,
    },
    /// Delete an existing tuple.
    Delete { rel: RelId, tid: TupleId },
    /// Overwrite one cell.
    SetCell {
        rel: RelId,
        tid: TupleId,
        attr: AttrId,
        value: Value,
    },
}

impl Update {
    /// Relation this update touches.
    pub fn rel(&self) -> RelId {
        match self {
            Update::Insert { rel, .. }
            | Update::Delete { rel, .. }
            | Update::SetCell { rel, .. } => *rel,
        }
    }
}

/// An ordered batch ΔD.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    pub updates: Vec<Update>,
}

impl Delta {
    pub fn new(updates: Vec<Update>) -> Self {
        Delta { updates }
    }

    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    pub fn len(&self) -> usize {
        self.updates.len()
    }

    pub fn push(&mut self, u: Update) {
        self.updates.push(u);
    }

    /// The tuples this batch touches: inserted, deleted and overwritten
    /// ones, sized to `db`, the database after the batch was applied.
    /// `inserted` is what [`crate::Database::apply`] returned for the batch
    /// (inserted ids in update order). Incremental detection and the
    /// incremental chase both start from this set.
    pub fn touched(&self, db: &Database, inserted: &[TupleId]) -> DeltaSet {
        let mut out = DeltaSet::empty(db);
        let mut ins = inserted.iter();
        for u in &self.updates {
            let tid = match u {
                Update::Insert { .. } => match ins.next() {
                    Some(tid) => *tid,
                    None => continue,
                },
                Update::Delete { tid, .. } | Update::SetCell { tid, .. } => *tid,
            };
            out.mark(u.rel(), tid);
        }
        out
    }
}

/// Validate every `Insert` in a batch against its target schema, before
/// anything is applied. [`crate::Database::apply`] calls this so that a
/// malformed ΔD is rejected atomically — the instance is left untouched
/// rather than half-applied.
pub fn check_arities<'a>(
    delta: &Delta,
    schema_of: impl Fn(RelId) -> &'a RelationSchema,
) -> Result<(), DataError> {
    for u in &delta.updates {
        if let Update::Insert { rel, values, .. } = u {
            let schema = schema_of(*rel);
            if values.len() != schema.arity() {
                return Err(DataError::ArityMismatch {
                    relation: schema.name.clone(),
                    expected: schema.arity(),
                    got: values.len(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touched_lists_every_kind_of_update_sorted() {
        let d = Delta::new(vec![
            Update::SetCell {
                rel: RelId(1),
                tid: TupleId(4),
                attr: AttrId(2),
                value: Value::Null,
            },
            Update::Insert {
                rel: RelId(0),
                eid: Eid(0),
                values: vec![],
            },
            Update::Delete {
                rel: RelId(1),
                tid: TupleId(2),
            },
            Update::SetCell {
                rel: RelId(1),
                tid: TupleId(4),
                attr: AttrId(0),
                value: Value::Null,
            },
        ]);
        // the database after the batch: 8 slots in R0, 5 in R1
        let schema = crate::DatabaseSchema::new(vec![
            RelationSchema::of("R0", &[]),
            RelationSchema::of("R1", &[]),
        ]);
        let mut db = Database::new(&schema);
        for (rel, n) in [(RelId(0), 8), (RelId(1), 5)] {
            for _ in 0..n {
                db.relation_mut(rel).insert_row(vec![]).unwrap();
            }
        }
        let touched = d.touched(&db, &[TupleId(7)]);
        let tids = |t: &DeltaSet, rel| t.tids(rel).collect::<Vec<_>>();
        assert_eq!(touched.count(), 3);
        assert_eq!(tids(&touched, RelId(0)), vec![TupleId(7)]);
        assert_eq!(tids(&touched, RelId(1)), vec![TupleId(2), TupleId(4)]);
        // an insert the database did not report binds nothing
        assert_eq!(d.touched(&db, &[]).rel_count(RelId(0)), 0);
    }

    #[test]
    fn check_arities_flags_bad_insert() {
        use crate::schema::AttrType;
        let schema = RelationSchema::of("R", &[("x", AttrType::Int)]);
        let ok = Delta::new(vec![Update::Insert {
            rel: RelId(0),
            eid: Eid(0),
            values: vec![Value::Int(1)],
        }]);
        assert!(check_arities(&ok, |_| &schema).is_ok());
        let bad = Delta::new(vec![Update::Insert {
            rel: RelId(0),
            eid: Eid(0),
            values: vec![],
        }]);
        assert_eq!(
            check_arities(&bad, |_| &schema),
            Err(DataError::ArityMismatch {
                relation: "R".into(),
                expected: 1,
                got: 0,
            })
        );
    }

    #[test]
    fn push_and_len() {
        let mut d = Delta::default();
        assert!(d.is_empty());
        d.push(Update::Delete {
            rel: RelId(0),
            tid: TupleId(0),
        });
        assert_eq!(d.len(), 1);
    }
}
