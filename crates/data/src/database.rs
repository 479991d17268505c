//! Database instances `D = (D1, …, Dm)` and string interning.

use crate::error::DataError;
use crate::ids::{AttrId, RelId, TupleId};
use crate::relation::Relation;
use crate::schema::{DatabaseSchema, RelationSchema};
use crate::update::{Delta, Update};
use crate::value::Value;
use rock_crystal::hash::FxHashMap;
use std::sync::Arc;

/// A database instance over a [`DatabaseSchema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Database {
    relations: Vec<Relation>,
}

rock_crystal::json_codec!(struct Database { relations });

impl Database {
    /// Create an empty instance of the given schema.
    pub fn new(schema: &DatabaseSchema) -> Self {
        Database {
            relations: schema
                .relations
                .iter()
                .cloned()
                .map(Relation::new)
                .collect(),
        }
    }

    /// Build from already-populated relations.
    pub fn from_relations(relations: Vec<Relation>) -> Self {
        Database { relations }
    }

    /// The schema this instance conforms to (reconstructed view).
    pub fn schema(&self) -> DatabaseSchema {
        DatabaseSchema::new(self.relations.iter().map(|r| r.schema.clone()).collect())
    }

    pub fn len(&self) -> usize {
        self.relations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total live tuples across relations (the paper quotes dataset sizes in
    /// tuples, e.g. "1.5 billion tuples" for Bank).
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    #[inline]
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.index()]
    }

    #[inline]
    pub fn relation_mut(&mut self, id: RelId) -> &mut Relation {
        &mut self.relations[id.index()]
    }

    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.relations
            .iter()
            .position(|r| r.schema.name == name)
            .map(|i| RelId(i as u16))
    }

    pub fn by_name(&self, name: &str) -> Option<&Relation> {
        self.rel_id(name).map(|id| self.relation(id))
    }

    pub fn by_name_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.rel_id(name).map(|id| self.relation_mut(id))
    }

    pub fn iter(&self) -> impl Iterator<Item = (RelId, &Relation)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelId(i as u16), r))
    }

    /// A cell value.
    pub fn cell(&self, rel: RelId, tid: TupleId, attr: AttrId) -> Option<&Value> {
        self.relation(rel).cell(tid, attr)
    }

    /// Apply a batch of updates ΔD in order; returns ids of inserted tuples.
    ///
    /// Atomic with respect to malformed input: every `Insert` is
    /// arity-checked against its target schema *before* any update is
    /// applied ([`crate::update::check_arities`]), so a rejected delta
    /// leaves the instance untouched.
    pub fn apply(&mut self, delta: &Delta) -> Result<Vec<TupleId>, DataError> {
        crate::update::check_arities(delta, |rel| &self.relation(rel).schema)?;
        let mut inserted = Vec::new();
        for u in &delta.updates {
            match u {
                Update::Insert { rel, eid, values } => {
                    inserted.push(self.relation_mut(*rel).insert(*eid, values.clone())?);
                }
                Update::Delete { rel, tid } => {
                    self.relation_mut(*rel).delete(*tid);
                }
                Update::SetCell {
                    rel,
                    tid,
                    attr,
                    value,
                } => {
                    self.relation_mut(*rel).set_cell(*tid, *attr, value.clone());
                }
            }
        }
        Ok(inserted)
    }

    /// Fraction of null cells over all live tuples (completeness metric,
    /// paper §4.1 "data quality assessment").
    pub fn null_fraction(&self) -> f64 {
        let mut nulls = 0usize;
        let mut cells = 0usize;
        for r in &self.relations {
            for t in r.iter() {
                nulls += t.null_count();
                cells += t.values.len();
            }
        }
        if cells == 0 {
            0.0
        } else {
            nulls as f64 / cells as f64
        }
    }
}

/// String interner: deduplicates string payloads so equal strings share one
/// `Arc<str>` allocation (Rust Performance Book: `Rc`/`Arc` sharing to
/// reduce memory; Crystal's preprocessing "transforms attribute values to
/// unique ids", paper §5.1 — interning is the in-memory analogue).
#[derive(Debug, Default)]
pub struct Interner {
    pool: FxHashMap<Arc<str>, ()>,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a string, returning a shared handle.
    pub fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some((k, _)) = self.pool.get_key_value(s) {
            return Arc::clone(k);
        }
        let arc: Arc<str> = Arc::from(s);
        self.pool.insert(Arc::clone(&arc), ());
        arc
    }

    /// Intern the payload of a value if it is a string.
    pub fn intern_value(&mut self, v: Value) -> Value {
        match v {
            Value::Str(s) => Value::Str(self.intern(&s)),
            other => other,
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }
}

/// Helper for building a relation schema + instance in one go (tests and
/// examples lean on this heavily).
pub struct RelationBuilder {
    rel: Relation,
}

impl RelationBuilder {
    pub fn new(schema: RelationSchema) -> Self {
        RelationBuilder {
            rel: Relation::new(schema),
        }
    }

    pub fn row(mut self, values: Vec<Value>) -> Self {
        // The builder keeps its chaining signature; a wrong-arity row in a
        // hand-written fixture is a programming error, so surface it loudly.
        match self.rel.insert_row(values) {
            Ok(_) => self,
            Err(e) => panic!("RelationBuilder::row: {e}"),
        }
    }

    pub fn build(self) -> Relation {
        self.rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Eid;
    use crate::schema::AttrType;

    fn db() -> Database {
        let schema = DatabaseSchema::new(vec![
            RelationSchema::of("A", &[("x", AttrType::Int)]),
            RelationSchema::of("B", &[("y", AttrType::Str)]),
        ]);
        Database::new(&schema)
    }

    #[test]
    fn relations_addressable_by_name_and_id() {
        let mut d = db();
        d.by_name_mut("A")
            .unwrap()
            .insert_row(vec![Value::Int(1)])
            .unwrap();
        assert_eq!(d.total_tuples(), 1);
        assert_eq!(d.rel_id("B"), Some(RelId(1)));
        assert!(d.by_name("C").is_none());
    }

    #[test]
    fn apply_delta() {
        let mut d = db();
        let rel_a = d.rel_id("A").unwrap();
        let t = d
            .relation_mut(rel_a)
            .insert_row(vec![Value::Int(1)])
            .unwrap();
        let delta = Delta::new(vec![
            Update::Insert {
                rel: rel_a,
                eid: Eid(9),
                values: vec![Value::Int(2)],
            },
            Update::SetCell {
                rel: rel_a,
                tid: t,
                attr: AttrId(0),
                value: Value::Int(7),
            },
        ]);
        let ins = d.apply(&delta).unwrap();
        assert_eq!(ins.len(), 1);
        assert_eq!(d.cell(rel_a, t, AttrId(0)), Some(&Value::Int(7)));
        assert_eq!(d.relation(rel_a).len(), 2);
    }

    #[test]
    fn null_fraction() {
        let mut d = db();
        let a = d.rel_id("A").unwrap();
        d.relation_mut(a).insert_row(vec![Value::Null]).unwrap();
        d.relation_mut(a).insert_row(vec![Value::Int(1)]).unwrap();
        assert!((d.null_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn apply_rejects_malformed_delta_atomically() {
        let mut d = db();
        let rel_a = d.rel_id("A").unwrap();
        let delta = Delta::new(vec![
            Update::Insert {
                rel: rel_a,
                eid: Eid(0),
                values: vec![Value::Int(1)],
            },
            Update::Insert {
                rel: rel_a,
                eid: Eid(1),
                values: vec![Value::Int(2), Value::Int(3)], // wrong arity
            },
        ]);
        let err = d.apply(&delta).unwrap_err();
        assert!(err.to_string().contains("arity mismatch"), "{err}");
        assert_eq!(d.total_tuples(), 0, "rejected delta must not apply at all");
    }

    #[test]
    fn interner_shares_allocations() {
        let mut i = Interner::new();
        let a = i.intern("hello");
        let b = i.intern("hello");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(i.len(), 1);
        let v = i.intern_value(Value::str("hello"));
        if let Value::Str(s) = v {
            assert!(Arc::ptr_eq(&a, &s));
        } else {
            panic!("expected Str");
        }
    }
}
