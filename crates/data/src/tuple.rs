//! Tuples: a fixed-arity row of [`Value`]s plus an entity id.

use crate::ids::{AttrId, Eid, TupleId};
use crate::value::Value;

/// One tuple of a relation.
///
/// Per the paper (§2, following [21]) every tuple carries an `EID`
/// identifying the real-world entity it represents. ER rules may later prove
/// that two distinct `Eid`s denote the same entity; that knowledge lives in
/// the chase's fix store, not here — the tuple keeps its original id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    /// Stable id within the owning relation.
    pub tid: TupleId,
    /// Entity id this tuple claims to represent.
    pub eid: Eid,
    /// Attribute values, indexed by [`AttrId`].
    pub values: Vec<Value>,
}

rock_crystal::json_codec!(struct Tuple { tid, eid, values });

impl Tuple {
    pub fn new(tid: TupleId, eid: Eid, values: Vec<Value>) -> Self {
        Tuple { tid, eid, values }
    }

    /// Value of attribute `A`.
    #[inline]
    pub fn get(&self, attr: AttrId) -> &Value {
        &self.values[attr.index()]
    }

    /// Mutable value of attribute `A` (used when materializing fixes).
    #[inline]
    pub fn get_mut(&mut self, attr: AttrId) -> &mut Value {
        &mut self.values[attr.index()]
    }

    /// Project a vector of attributes `t[Ā]` (ML predicates take vectors of
    /// pairwise-compatible attributes, paper §2.1(e)).
    pub fn project(&self, attrs: &[AttrId]) -> Vec<Value> {
        attrs.iter().map(|a| self.get(*a).clone()).collect()
    }

    /// Number of null cells (quality metric input).
    pub fn null_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_null()).count()
    }

    /// Indices of attributes whose value is non-null ("validated values"
    /// feed `Md(t[Ā], B)` in MI rules, paper §2.3).
    pub fn non_null_attrs(&self) -> Vec<AttrId> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_null())
            .map(|(i, _)| AttrId(i as u16))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tuple {
        Tuple::new(
            TupleId(0),
            Eid(1),
            vec![Value::str("a"), Value::Null, Value::Int(3)],
        )
    }

    #[test]
    fn get_and_project() {
        let t = t();
        assert_eq!(t.get(AttrId(2)), &Value::Int(3));
        assert_eq!(
            t.project(&[AttrId(2), AttrId(0)]),
            vec![Value::Int(3), Value::str("a")]
        );
    }

    #[test]
    fn null_accounting() {
        let t = t();
        assert_eq!(t.null_count(), 1);
        assert_eq!(t.non_null_attrs(), vec![AttrId(0), AttrId(2)]);
    }

    #[test]
    fn mutate_cell() {
        let mut t = t();
        *t.get_mut(AttrId(1)) = Value::Bool(true);
        assert_eq!(t.get(AttrId(1)), &Value::Bool(true));
    }
}
