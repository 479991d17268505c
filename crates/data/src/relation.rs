//! Relations: a schema, a set of tuples, and (optionally) per-cell
//! timestamps making the relation *temporal* (paper §2.2).

use crate::classes::ClassIndex;
use crate::column::{ColumnCache, ColumnSet, JoinIndex, SnapshotCache};
use crate::error::DataError;
use crate::ids::{AttrId, Eid, TupleId};
use crate::schema::RelationSchema;
use crate::temporal::{CellTimestamps, Timestamp};
use crate::tuple::Tuple;
use crate::value::Value;
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
/// (encoded bytes and `==` are identical with or without it).
///
/// Rows and the cache are shared copy-on-write, so a clone costs a
/// reference count per tuple: the clone shares the current column
/// snapshot, and a write copies only the one tuple it changes. Inserts,
/// deletes and cell writes patch the snapshot (and its built join
/// indexes) instead of invalidating it — see [`crate::column`]'s
/// lifecycle. The entity class index ([`Relation::classes`]) is cached
/// beside the columns the same way, and eid writes patch it too.
#[derive(Debug, Clone)]
pub struct Relation {
    pub schema: RelationSchema,
    tuples: Vec<Option<Arc<Tuple>>>,
    live: usize,
    /// Partial timestamp function `T`.
    pub timestamps: CellTimestamps,
    columns: ColumnCache,
    classes: SnapshotCache<ClassIndex>,
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
        let tuples: Vec<Option<Arc<Tuple>>> = j.take("tuples")?;
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
            classes: SnapshotCache::default(),
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
            classes: SnapshotCache::default(),
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
        let t = Arc::new(Tuple::new(tid, eid, values));
        self.columns.patch(|cols| cols.push_row(&t));
        self.classes.patch(|classes| classes.push(tid, eid));
        self.tuples.push(Some(t));
        self.live += 1;
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
            if let Some(t) = slot.take() {
                self.live -= 1;
                self.columns.patch(|cols| cols.delete_row(tid.index()));
                self.classes.patch(|classes| classes.remove(tid, t.eid));
                return true;
            }
        }
        false
    }

    /// Get a live tuple.
    #[inline]
    pub fn get(&self, tid: TupleId) -> Option<&Tuple> {
        self.tuples.get(tid.index()).and_then(|t| t.as_deref())
    }

    /// Set a live tuple's entity id, moving the tuple between classes of
    /// the cached class index. The columnar image holds no eids, so it
    /// stays as it is. Returns `false`, writing nothing, when the tuple is
    /// dead.
    pub fn set_eid(&mut self, tid: TupleId, eid: Eid) -> bool {
        let Some(t) = self.tuples.get_mut(tid.index()).and_then(|t| t.as_mut()) else {
            return false;
        };
        let old = t.eid;
        if old != eid {
            Arc::make_mut(t).eid = eid;
            self.classes.patch(|classes| classes.move_to(tid, old, eid));
        }
        true
    }

    /// A cell value, if the tuple is live.
    pub fn cell(&self, tid: TupleId, attr: AttrId) -> Option<&Value> {
        self.get(tid).map(|t| t.get(attr))
    }

    /// Overwrite a cell (used when materializing fixes back into data).
    /// Patches the cached columnar image, so neither the chase's commit
    /// path nor a ΔD batch forces a rebuild. Returns `false`, writing
    /// nothing, when the tuple is dead or the attribute is out of range.
    pub fn set_cell(&mut self, tid: TupleId, attr: AttrId, v: Value) -> bool {
        let Some(t) = self.tuples.get_mut(tid.index()).and_then(|t| t.as_mut()) else {
            return false;
        };
        if attr.index() >= t.values.len() {
            return false;
        }
        self.columns
            .patch(|cols| cols.set_cell(tid.index(), attr, &v));
        *Arc::make_mut(t).get_mut(attr) = v;
        true
    }

    /// The columnar image of this relation, rebuilding it from the rows if
    /// stale. Cheap when cached: an `Arc` clone.
    pub fn columns(&self) -> Arc<ColumnSet> {
        self.columns.get_or_build(self)
    }

    /// The entity class index of this relation (eid → ascending live
    /// tuple ids), built from the rows on the first read and patched by
    /// every later insert, delete and eid write. Cheap when cached: an
    /// `Arc` clone.
    pub fn classes(&self) -> Arc<ClassIndex> {
        self.classes.get_or_build(self)
    }

    /// Record a cell timestamp `T(t[A])`.
    pub fn set_timestamp(&mut self, tid: TupleId, attr: AttrId, ts: Timestamp) {
        self.timestamps.set(tid, attr, ts);
    }

    /// Iterate live tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter().filter_map(|t| t.as_deref())
    }

    /// Iterate live tuple ids.
    pub fn tids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.tuples
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_some())
            .map(|(i, _)| TupleId(i as u32))
    }

    /// Build an equality index `value -> ascending tuple ids` over one
    /// attribute from the rows. Null cells are skipped (null never
    /// satisfies an equality predicate).
    ///
    /// This is the reference builder: production probes the snapshot's
    /// cached [`ColumnSet::join_index`], and the scalar evaluation path
    /// (`columnar == false`) builds this map per call instead, so the
    /// equivalence suites compare the cache against an independent build.
    pub fn index_on(&self, attr: AttrId) -> JoinIndex {
        let mut idx = JoinIndex::default();
        for t in self.iter() {
            let v = t.get(attr);
            if !v.is_null() {
                idx.entry(v.clone()).or_default().push(t.tid);
            }
        }
        idx
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
