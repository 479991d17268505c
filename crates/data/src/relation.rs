//! Relations: a schema, a set of tuples, and (optionally) per-cell
//! timestamps making the relation *temporal* (paper §2.2).

use crate::column::{ColumnCache, ColumnSet};
use crate::error::DataError;
use crate::ids::{AttrId, Eid, TupleId};
use crate::schema::RelationSchema;
use crate::temporal::{CellTimestamps, Timestamp};
use crate::tuple::Tuple;
use crate::value::Value;
use rock_crystal::hash::FxHashMap;
use rock_crystal::json::{FromJson, Json, JsonError, ToJson};
use std::sync::Arc;

/// One relation instance `D` of schema `R`, optionally temporal `(D, T)`.
///
/// Tuples are stored densely in insertion order; deletion marks a slot as a
/// tombstone so [`TupleId`]s stay stable for the incremental algorithms.
///
/// Rows are the source of truth; the columnar image ([`Relation::columns`])
/// is a versioned cache that evaluation hot paths use for vectorized
/// predicate kernels. The cache is neither persisted nor compared
/// (encoded bytes and `==` are identical with or without it) and cloned
/// relations start with a cold cache.
#[derive(Debug, Clone)]
pub struct Relation {
    pub schema: RelationSchema,
    tuples: Vec<Option<Tuple>>,
    live: usize,
    /// Partial timestamp function `T`.
    pub timestamps: CellTimestamps,
    columns: ColumnCache,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema.name == other.schema.name
            && self.schema.attrs == other.schema.attrs
            && self.tuples == other.tuples
            && self.timestamps == other.timestamps
    }
}

/// `{"schema", "tuples", "timestamps"}`, tombstones as `null`. Decoding
/// checks what the accessors rely on: a tuple sits in the slot its id
/// names and has the schema's arity.
impl ToJson for Relation {
    fn to_json(&self) -> Json {
        rock_crystal::json!({
            "schema": self.schema,
            "tuples": self.tuples,
            "timestamps": self.timestamps,
        })
    }
}

impl FromJson for Relation {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let schema: RelationSchema = j.take("schema")?;
        let tuples: Vec<Option<Tuple>> = j.take("tuples")?;
        for (slot, t) in tuples.iter().enumerate() {
            if let Some(t) = t {
                if t.tid.index() != slot || t.values.len() != schema.arity() {
                    return Err(JsonError(format!(
                        "relation {}: slot {slot} holds a misplaced or mis-sized tuple",
                        schema.name
                    )));
                }
            }
        }
        Ok(Relation {
            live: tuples.iter().flatten().count(),
            schema,
            tuples,
            timestamps: j.take("timestamps")?,
            columns: ColumnCache::default(),
        })
    }
}

impl Relation {
    pub fn new(schema: RelationSchema) -> Self {
        Relation {
            schema,
            tuples: Vec::new(),
            live: 0,
            timestamps: CellTimestamps::new(),
            columns: ColumnCache::default(),
        }
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots including tombstones (exclusive upper bound on TupleIds).
    pub fn capacity(&self) -> usize {
        self.tuples.len()
    }

    /// Insert a tuple with a fresh id and the given entity id; returns the
    /// assigned [`TupleId`], or [`DataError::ArityMismatch`] when the row
    /// does not match the schema.
    pub fn insert(&mut self, eid: Eid, values: Vec<Value>) -> Result<TupleId, DataError> {
        if values.len() != self.schema.arity() {
            return Err(DataError::ArityMismatch {
                relation: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        let tid = TupleId(self.tuples.len() as u32);
        self.tuples.push(Some(Tuple::new(tid, eid, values)));
        self.live += 1;
        self.columns.invalidate();
        Ok(tid)
    }

    /// Insert and auto-assign an entity id equal to the tuple id (common for
    /// workloads where each row initially claims to be its own entity).
    pub fn insert_row(&mut self, values: Vec<Value>) -> Result<TupleId, DataError> {
        let eid = Eid(self.tuples.len() as u32);
        self.insert(eid, values)
    }

    /// Delete a tuple; returns whether it was live.
    pub fn delete(&mut self, tid: TupleId) -> bool {
        if let Some(slot) = self.tuples.get_mut(tid.index()) {
            if slot.is_some() {
                *slot = None;
                self.live -= 1;
                self.columns.invalidate();
                return true;
            }
        }
        false
    }

    /// Get a live tuple.
    #[inline]
    pub fn get(&self, tid: TupleId) -> Option<&Tuple> {
        self.tuples.get(tid.index()).and_then(|t| t.as_ref())
    }

    /// Mutable access to a live tuple. Invalidates the columnar cache
    /// pessimistically (the caller may rewrite any cell); prefer
    /// [`Relation::set_cell`], which writes through instead.
    #[inline]
    pub fn get_mut(&mut self, tid: TupleId) -> Option<&mut Tuple> {
        self.columns.invalidate();
        self.tuples.get_mut(tid.index()).and_then(|t| t.as_mut())
    }

    /// A cell value, if the tuple is live.
    pub fn cell(&self, tid: TupleId, attr: AttrId) -> Option<&Value> {
        self.get(tid).map(|t| t.get(attr))
    }

    /// Overwrite a cell (used when materializing fixes back into data).
    /// Writes through to the cached columnar image when possible, so the
    /// chase's commit path does not force a rebuild per fix. Returns `false`,
    /// writing nothing, when the tuple is dead or the attribute is out of
    /// range.
    pub fn set_cell(&mut self, tid: TupleId, attr: AttrId, v: Value) -> bool {
        let slot = self
            .tuples
            .get_mut(tid.index())
            .and_then(|t| t.as_mut())
            .and_then(|t| t.values.get_mut(attr.index()));
        match slot {
            Some(slot) => {
                *slot = v.clone();
                self.columns.write_cell(tid.index(), attr, &v);
                true
            }
            None => false,
        }
    }

    /// The columnar image of this relation, rebuilding it from the rows if
    /// stale. Cheap when cached: an `Arc` clone.
    pub fn columns(&self) -> Arc<ColumnSet> {
        self.columns.get_or_build(self)
    }

    /// Record a cell timestamp `T(t[A])`.
    pub fn set_timestamp(&mut self, tid: TupleId, attr: AttrId, ts: Timestamp) {
        self.timestamps.set(tid, attr, ts);
    }

    /// Iterate live tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter().filter_map(|t| t.as_ref())
    }

    /// Iterate live tuple ids.
    pub fn tids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.tuples
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_some())
            .map(|(i, _)| TupleId(i as u32))
    }

    /// Build an equality index `value -> tuple ids` over one attribute.
    /// Null cells are skipped (null never satisfies an equality predicate).
    pub fn index_on(&self, attr: AttrId) -> FxHashMap<Value, Vec<TupleId>> {
        let mut idx: FxHashMap<Value, Vec<TupleId>> = FxHashMap::default();
        for t in self.iter() {
            let v = t.get(attr);
            if !v.is_null() {
                idx.entry(v.clone()).or_default().push(t.tid);
            }
        }
        idx
    }

    /// Distinct non-null values of an attribute, sorted.
    pub fn active_domain(&self, attr: AttrId) -> Vec<Value> {
        let mut dom: Vec<Value> = self.index_on(attr).into_keys().collect();
        dom.sort();
        dom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn rel() -> Relation {
        let schema = RelationSchema::of(
            "Store",
            &[("name", AttrType::Str), ("sales", AttrType::Int)],
        );
        Relation::new(schema)
    }

    #[test]
    fn insert_get_delete() {
        let mut r = rel();
        let t0 = r
            .insert_row(vec![Value::str("Apple"), Value::Int(15)])
            .unwrap();
        let t1 = r
            .insert_row(vec![Value::str("Huawei"), Value::Int(11)])
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(t0, AttrId(0)), Some(&Value::str("Apple")));
        assert!(r.delete(t0));
        assert!(!r.delete(t0));
        assert_eq!(r.len(), 1);
        assert!(r.get(t0).is_none());
        // ids stay stable after deletion
        assert_eq!(r.get(t1).unwrap().get(AttrId(0)), &Value::str("Huawei"));
    }

    #[test]
    fn arity_checked() {
        let err = rel().insert_row(vec![Value::Int(1)]).unwrap_err();
        assert_eq!(
            err,
            crate::error::DataError::ArityMismatch {
                relation: "Store".into(),
                expected: 2,
                got: 1,
            }
        );
        assert!(err.to_string().contains("arity mismatch"));
    }

    #[test]
    fn index_skips_nulls() {
        let mut r = rel();
        r.insert_row(vec![Value::str("A"), Value::Null]).unwrap();
        r.insert_row(vec![Value::str("A"), Value::Int(5)]).unwrap();
        r.insert_row(vec![Value::str("B"), Value::Int(5)]).unwrap();
        let by_name = r.index_on(AttrId(0));
        assert_eq!(by_name[&Value::str("A")].len(), 2);
        let by_sales = r.index_on(AttrId(1));
        assert_eq!(by_sales.len(), 1);
        assert_eq!(by_sales[&Value::Int(5)].len(), 2);
    }

    #[test]
    fn active_domain_sorted_distinct() {
        let mut r = rel();
        r.insert_row(vec![Value::str("B"), Value::Int(2)]).unwrap();
        r.insert_row(vec![Value::str("A"), Value::Int(1)]).unwrap();
        r.insert_row(vec![Value::str("B"), Value::Null]).unwrap();
        assert_eq!(
            r.active_domain(AttrId(0)),
            vec![Value::str("A"), Value::str("B")]
        );
    }

    #[test]
    fn set_cell_and_timestamp() {
        let mut r = rel();
        let t = r.insert_row(vec![Value::str("A"), Value::Int(1)]).unwrap();
        assert!(r.set_cell(t, AttrId(1), Value::Int(9)));
        assert_eq!(r.cell(t, AttrId(1)), Some(&Value::Int(9)));
        r.set_timestamp(t, AttrId(1), Timestamp(42));
        assert_eq!(r.timestamps.get(t, AttrId(1)), Some(Timestamp(42)));
        assert!(!r.set_cell(TupleId(99), AttrId(0), Value::Null));
    }
}
