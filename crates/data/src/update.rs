//! Update batches ΔD for the incremental modes (paper §3: "Rock also
//! incrementally detects errors in response to updates ΔD to D").

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

    /// Relations touched by this batch (deduplicated, sorted) — drives
    /// incremental REE++ activation: a rule is activated only if one of its
    /// relation atoms is among these (paper §4.1 workflow).
    pub fn touched_relations(&self) -> Vec<RelId> {
        let mut rels: Vec<RelId> = self.updates.iter().map(|u| u.rel()).collect();
        rels.sort();
        rels.dedup();
        rels
    }

    /// Cells directly written by this batch (inserted tuples contribute all
    /// their cells once ids are known, so callers combine this with the ids
    /// returned by [`crate::Database::apply`]).
    pub fn touched_cells(&self) -> Vec<(RelId, TupleId, AttrId)> {
        self.updates
            .iter()
            .filter_map(|u| match u {
                Update::SetCell { rel, tid, attr, .. } => Some((*rel, *tid, *attr)),
                _ => None,
            })
            .collect()
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
    fn touched_relations_dedup_sorted() {
        let d = Delta::new(vec![
            Update::Delete {
                rel: RelId(2),
                tid: TupleId(0),
            },
            Update::Delete {
                rel: RelId(0),
                tid: TupleId(1),
            },
            Update::Delete {
                rel: RelId(2),
                tid: TupleId(3),
            },
        ]);
        assert_eq!(d.touched_relations(), vec![RelId(0), RelId(2)]);
    }

    #[test]
    fn touched_cells_only_setcell() {
        let d = Delta::new(vec![
            Update::Insert {
                rel: RelId(0),
                eid: Eid(0),
                values: vec![],
            },
            Update::SetCell {
                rel: RelId(1),
                tid: TupleId(4),
                attr: AttrId(2),
                value: Value::Null,
            },
        ]);
        assert_eq!(d.touched_cells(), vec![(RelId(1), TupleId(4), AttrId(2))]);
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
