//! The tuples a change touched (§4.1 incremental evaluation), one set for
//! incremental detection, the scan plan's delta passes and the chase.
//!
//! A [`DeltaSet`] is one bitset per relation over *tuple slots*
//! ([`crate::Relation::capacity`], so tombstones keep their index). A ΔD
//! fills one from its inserted, deleted and overwritten tuples
//! ([`crate::Delta::touched`]); a chase round's commit fills one from the
//! cells it wrote, the entity classes it merged, the classes that received
//! a validated value, or — coarsely — the whole relation when a temporal
//! order was extended (order edges act transitively, so tuple-level
//! tracking of their consequences would be unsound).

use crate::bitset::Bitset;
use crate::database::Database;
use crate::ids::{RelId, TupleId};

/// Per-relation sets of touched tuple slots.
///
/// Has a JSON codec so the chase's round-boundary checkpoints can persist
/// its per-rule pending deltas and the cumulative dirty set.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSet {
    rels: Vec<Bitset>,
}

rock_crystal::json_codec!(struct DeltaSet { rels });

impl DeltaSet {
    /// All-empty delta sized to `db`'s relation capacities. Capacities are
    /// stable for the lifetime of a chase (the chase writes cells, it never
    /// inserts tuples), so sets built from the same database can be
    /// unioned.
    pub fn empty(db: &Database) -> DeltaSet {
        let mut rels: Vec<Bitset> = Vec::new();
        for (rid, rel) in db.iter() {
            let i = rid.0 as usize;
            if rels.len() <= i {
                rels.resize_with(i + 1, || Bitset::new(0));
            }
            rels[i] = Bitset::new(rel.capacity());
        }
        DeltaSet { rels }
    }

    /// Mark one tuple as touched. Out-of-range ids are ignored (they cannot
    /// bind a variable anyway).
    pub fn mark(&mut self, rel: RelId, tid: TupleId) {
        if let Some(b) = self.rels.get_mut(rel.0 as usize) {
            if (tid.0 as usize) < b.len() {
                b.set(tid.0 as usize);
            }
        }
    }

    /// Mark every slot of a relation (the temporal-order coarsening).
    pub fn mark_all(&mut self, rel: RelId) {
        if let Some(b) = self.rels.get_mut(rel.0 as usize) {
            *b = Bitset::full(b.len());
        }
    }

    pub fn contains(&self, rel: RelId, tid: TupleId) -> bool {
        self.rels
            .get(rel.0 as usize)
            .map(|b| (tid.0 as usize) < b.len() && b.get(tid.0 as usize))
            .unwrap_or(false)
    }

    pub fn union_with(&mut self, other: &DeltaSet) {
        for (b, o) in self.rels.iter_mut().zip(&other.rels) {
            b.union_with(o);
        }
    }

    /// Drop every mark, keeping the sizing.
    pub fn clear(&mut self) {
        for b in &mut self.rels {
            *b = Bitset::new(b.len());
        }
    }

    /// Total marked tuples across relations.
    pub fn count(&self) -> u64 {
        self.rels.iter().map(|b| b.count_ones()).sum()
    }

    /// Marked tuples in one relation.
    pub fn rel_count(&self, rel: RelId) -> u64 {
        self.rels
            .get(rel.0 as usize)
            .map(|b| b.count_ones())
            .unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The marked slots of one relation (empty for an unknown relation).
    pub fn bits(&self, rel: RelId) -> Bitset {
        self.rels
            .get(rel.0 as usize)
            .cloned()
            .unwrap_or_else(|| Bitset::new(0))
    }

    /// The marked tuples of one relation, ascending (none for an unknown
    /// relation).
    pub fn tids(&self, rel: RelId) -> impl Iterator<Item = TupleId> + '_ {
        self.rels
            .get(rel.0 as usize)
            .into_iter()
            .flat_map(|b| b.ones().map(|i| TupleId(i as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, DatabaseSchema, Eid, RelationSchema, Value};

    fn db() -> Database {
        let schema = DatabaseSchema::new(vec![
            RelationSchema::of("A", &[("x", AttrType::Str)]),
            RelationSchema::of("B", &[("y", AttrType::Str)]),
        ]);
        let mut db = Database::new(&schema);
        for i in 0..4 {
            db.relation_mut(RelId(0))
                .insert(Eid(i), vec![Value::str(format!("a{i}"))])
                .unwrap();
        }
        db.relation_mut(RelId(1))
            .insert(Eid(0), vec![Value::str("b0")])
            .unwrap();
        db
    }

    #[test]
    fn mark_union_clear_round_trip() {
        let db = db();
        let mut d = DeltaSet::empty(&db);
        assert!(d.is_empty());
        d.mark(RelId(0), TupleId(1));
        d.mark(RelId(0), TupleId(3));
        d.mark(RelId(1), TupleId(0));
        // out-of-range marks are ignored
        d.mark(RelId(1), TupleId(99));
        d.mark(RelId(7), TupleId(0));
        assert!(d.contains(RelId(0), TupleId(1)));
        assert!(!d.contains(RelId(0), TupleId(0)));
        assert!(!d.contains(RelId(1), TupleId(99)));
        assert!(!d.contains(RelId(7), TupleId(0)));
        assert_eq!(d.count(), 3);
        assert_eq!(d.rel_count(RelId(0)), 2);
        let tids = |d: &DeltaSet, rel| d.tids(rel).collect::<Vec<_>>();
        assert_eq!(tids(&d, RelId(0)), vec![TupleId(1), TupleId(3)]);
        assert_eq!(tids(&d, RelId(7)), Vec::<TupleId>::new());

        let mut e = DeltaSet::empty(&db);
        e.mark(RelId(0), TupleId(0));
        e.union_with(&d);
        assert_eq!(e.count(), 4);

        e.clear();
        assert!(e.is_empty());
        assert_eq!(tids(&e, RelId(0)), Vec::<TupleId>::new());
    }

    #[test]
    fn mark_all_covers_whole_relation() {
        let db = db();
        let mut d = DeltaSet::empty(&db);
        d.mark_all(RelId(0));
        assert_eq!(d.rel_count(RelId(0)), 4);
        assert_eq!(d.rel_count(RelId(1)), 0);
        assert!(d.contains(RelId(0), TupleId(3)));
    }
}
