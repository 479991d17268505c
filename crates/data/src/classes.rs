//! Entity classes: each relation's live tuples grouped by entity id.
//!
//! [`ClassIndex`] maps every eid to its live tuples in ascending id order.
//! A relation caches it beside its column snapshot
//! ([`crate::Relation::classes`]): built from the rows on the first read,
//! then patched by every insert, delete and eid write under the same
//! copy-on-write protocol as the columns ([`crate::column::SnapshotCache`]).
//!
//! A class is a doubly linked list threaded through two per-slot arrays,
//! and one flat map holds each eid's first and last member. Cloning the
//! index copies two vectors and a map of plain values, with no allocation
//! per class, so the first write to a snapshot a clone shares costs a few
//! block copies. An insert appends in O(1), a delete unlinks in O(1), and
//! an eid write unlinks the tuple and links it at its ascending position
//! in the target class.

use crate::ids::{Eid, TupleId};
use crate::relation::Relation;
use rock_crystal::hash::FxHashMap;

/// End of a class list, and the link of a slot in no class.
const NONE: u32 = u32::MAX;

/// Every live tuple's entity class: eid → ascending tuple ids.
///
/// Patched and cold-built indexes of the same rows are equal (`==`): each
/// list is ascending, and a dead slot links nowhere.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassIndex {
    /// First and last live member of each eid that has one.
    ends: FxHashMap<Eid, (u32, u32)>,
    /// The next member of each slot's class; `NONE` at a class's last
    /// member and at dead slots.
    next: Vec<u32>,
    /// The previous member, likewise.
    prev: Vec<u32>,
}

/// The members of one class, ascending.
pub struct Members<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for Members<'_> {
    type Item = TupleId;

    fn next(&mut self) -> Option<TupleId> {
        if self.cur == NONE {
            return None;
        }
        let tid = TupleId(self.cur);
        self.cur = self.next[self.cur as usize];
        Some(tid)
    }
}

impl ClassIndex {
    /// Group a relation's live tuples by eid: one pass over the rows.
    pub fn from_relation(rel: &Relation) -> ClassIndex {
        let slots = rel.capacity();
        let mut idx = ClassIndex {
            ends: FxHashMap::default(),
            next: vec![NONE; slots],
            prev: vec![NONE; slots],
        };
        for t in rel.iter() {
            idx.link_last(t.tid.0, t.eid);
        }
        idx
    }

    /// The live tuples whose eid is `eid`, ascending.
    pub fn members(&self, eid: Eid) -> Members<'_> {
        Members {
            next: &self.next,
            cur: self.ends.get(&eid).map_or(NONE, |&(first, _)| first),
        }
    }

    /// Number of eids with a live tuple.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Add the slot an insert just appended. Always keeps the index.
    pub(crate) fn push(&mut self, tid: TupleId, eid: Eid) -> bool {
        debug_assert_eq!(tid.index(), self.next.len(), "inserts append a slot");
        self.next.push(NONE);
        self.prev.push(NONE);
        self.link_last(tid.0, eid);
        true
    }

    /// Drop a deleted tuple from its class. Always keeps the index.
    pub(crate) fn remove(&mut self, tid: TupleId, eid: Eid) -> bool {
        self.unlink(tid.0, eid);
        true
    }

    /// Move a live tuple from class `from` to class `to`. Always keeps the
    /// index.
    pub(crate) fn move_to(&mut self, tid: TupleId, from: Eid, to: Eid) -> bool {
        if from != to {
            self.unlink(tid.0, from);
            self.link_sorted(tid.0, to);
        }
        true
    }

    /// Append `tid`, larger than every member of `eid`'s class.
    fn link_last(&mut self, tid: u32, eid: Eid) {
        match self.ends.get_mut(&eid) {
            Some((_, last)) => {
                self.next[*last as usize] = tid;
                self.prev[tid as usize] = *last;
                *last = tid;
            }
            None => {
                self.ends.insert(eid, (tid, tid));
            }
        }
    }

    /// Link `tid` into `eid`'s class at its ascending position.
    fn link_sorted(&mut self, tid: u32, eid: Eid) {
        let Some(&(first, last)) = self.ends.get(&eid) else {
            self.ends.insert(eid, (tid, tid));
            return;
        };
        if tid > last {
            return self.link_last(tid, eid);
        }
        // some member is larger: link before the first such one
        let mut at = first;
        while at < tid {
            at = self.next[at as usize];
        }
        let before = self.prev[at as usize];
        self.prev[tid as usize] = before;
        self.next[tid as usize] = at;
        self.prev[at as usize] = tid;
        match before {
            NONE => {
                if let Some(ends) = self.ends.get_mut(&eid) {
                    ends.0 = tid;
                }
            }
            b => self.next[b as usize] = tid,
        }
    }

    /// Unlink `tid` from `eid`'s class; the class leaves with its last
    /// member.
    fn unlink(&mut self, tid: u32, eid: Eid) {
        let (before, after) = (self.prev[tid as usize], self.next[tid as usize]);
        self.prev[tid as usize] = NONE;
        self.next[tid as usize] = NONE;
        if before != NONE {
            self.next[before as usize] = after;
        }
        if after != NONE {
            self.prev[after as usize] = before;
        }
        let Some(ends) = self.ends.get_mut(&eid) else {
            return;
        };
        if before == NONE {
            ends.0 = after;
        }
        if after == NONE {
            ends.1 = before;
        }
        if ends.0 == NONE {
            self.ends.remove(&eid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, RelationSchema};
    use crate::value::Value;

    fn members(idx: &ClassIndex, eid: u32) -> Vec<u32> {
        idx.members(Eid(eid)).map(|t| t.0).collect()
    }

    #[test]
    fn patches_keep_each_class_ascending_and_equal_to_a_cold_build() {
        let mut r = Relation::new(RelationSchema::of("T", &[("x", AttrType::Int)]));
        for eid in [3, 1, 3, 2, 3, 1] {
            r.insert(Eid(eid), vec![Value::Int(0)]).unwrap();
        }
        let cold = |r: &Relation| ClassIndex::from_relation(r);
        assert_eq!(members(&r.classes(), 3), [0, 2, 4]);
        assert_eq!(members(&r.classes(), 9), Vec::<u32>::new());
        // an eid write links the tuple at its ascending position
        assert!(r.set_eid(TupleId(5), Eid(3)));
        assert_eq!(members(&r.classes(), 3), [0, 2, 4, 5]);
        assert!(r.set_eid(TupleId(1), Eid(3)));
        assert_eq!(members(&r.classes(), 3), [0, 1, 2, 4, 5]);
        assert!(r.set_eid(TupleId(0), Eid(2)));
        assert_eq!(members(&r.classes(), 2), [0, 3]);
        assert_eq!(*r.classes(), cold(&r));
        // a class leaves with its last member; deleting the head, the
        // tail and a middle member relinks the rest
        assert_eq!(r.classes().len(), 2, "eid 1 has no members left");
        for tid in [1, 5, 4] {
            assert!(r.delete(TupleId(tid)));
            assert_eq!(*r.classes(), cold(&r), "after deleting {tid}");
        }
        assert_eq!(members(&r.classes(), 3), [2]);
        r.insert(Eid(3), vec![Value::Int(0)]).unwrap();
        assert_eq!(members(&r.classes(), 3), [2, 6]);
        assert_eq!(*r.classes(), cold(&r));
    }
}
