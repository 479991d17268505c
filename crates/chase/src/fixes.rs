//! The fix store `U = (E=, E⪯)` and ground truth Γ (paper §4.1).
//!
//! * `[EID]=` — union–find over entity keys `(relation, eid)`; a merge
//!   validates that two entity ids denote the same real-world entity.
//! * `[EID.A]=` — validated attribute values keyed by (entity class,
//!   attribute); each attribute has at most one validated value
//!   ("Validity" (a)).
//! * `[A]⪯` — validated temporal orders (see [`crate::order`]).
//!
//! Ground truth Γ is the *initial* content of `U` (master data, manually
//! checked tuples, timestamp-induced orders); the chase accumulates more
//! validated data as it deduces fixes. Cells belonging to *trusted* tuples
//! can never be overwritten — certain fixes must respect the ground truth.

use crate::order::{OrderInsert, PartialOrderStore};
use rock_data::{AttrId, Eid, FxHashMap, FxHashSet, GlobalTid, RelId, TupleId, Value};

/// Entity key: which relation's eid space the entity id lives in. Merges
/// may cross relations (heterogeneous ER).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityKey {
    pub rel: RelId,
    pub eid: Eid,
}

rock_data::json_codec!(struct EntityKey { rel, eid });

impl EntityKey {
    pub fn new(rel: RelId, eid: Eid) -> Self {
        EntityKey { rel, eid }
    }
}

/// Outcome of trying to validate an attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueInsert {
    Added,
    Known,
    /// A different value is already validated for this entity attribute.
    Conflict(Value),
}

/// Outcome of trying to merge two entity classes.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeOutcome {
    Merged {
        /// Attribute conflicts discovered while unioning the value maps:
        /// (attr, value kept so far, competing value). The caller resolves
        /// them (§4.2(1)) and re-validates.
        conflicts: Vec<(RelId, AttrId, Value, Value)>,
    },
    Known,
    /// The two classes are validated to be *distinct* entities.
    Distinct,
}

/// The fix store.
#[derive(Debug, Clone, Default)]
pub struct FixStore {
    /// union–find parent pointers.
    parent: FxHashMap<EntityKey, EntityKey>,
    /// validated values: class root -> (rel, attr) -> value.
    values: FxHashMap<EntityKey, FxHashMap<(RelId, AttrId), Value>>,
    /// validated *distinctness* (consequences `t.eid != s.eid`): pairs of
    /// class roots, stored with roots ordered.
    distinct: FxHashSet<(EntityKey, EntityKey)>,
    /// per (rel, attr) temporal orders.
    orders: FxHashMap<(RelId, AttrId), PartialOrderStore>,
    /// tuples whose raw cells are ground truth and must not be overwritten.
    trusted: FxHashSet<GlobalTid>,
    /// count of validated value fixes that were *new* (for reporting).
    pub added_values: usize,
    pub merges: usize,
    pub added_orders: usize,
}

impl FixStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Find with path compression (iterative).
    pub fn find(&mut self, k: EntityKey) -> EntityKey {
        let mut root = k;
        while let Some(&p) = self.parent.get(&root) {
            if p == root {
                break;
            }
            root = p;
        }
        // compress
        let mut cur = k;
        while let Some(&p) = self.parent.get(&cur) {
            if p == root || p == cur {
                break;
            }
            self.parent.insert(cur, root);
            cur = p;
        }
        root
    }

    /// Read-only find (no compression) for & contexts.
    pub fn find_ref(&self, k: EntityKey) -> EntityKey {
        let mut root = k;
        while let Some(&p) = self.parent.get(&root) {
            if p == root {
                break;
            }
            root = p;
        }
        root
    }

    /// Are two entities validated as the same?
    pub fn same_entity(&self, a: EntityKey, b: EntityKey) -> bool {
        self.find_ref(a) == self.find_ref(b)
    }

    /// Mark a tuple as ground truth (its raw cells are trusted).
    pub fn trust_tuple(&mut self, t: GlobalTid) {
        self.trusted.insert(t);
    }

    pub fn is_trusted(&self, t: GlobalTid) -> bool {
        self.trusted.contains(&t)
    }

    pub fn trusted_count(&self) -> usize {
        self.trusted.len()
    }

    /// Validated value of an entity's attribute, if any.
    pub fn validated_value(&self, key: EntityKey, rel: RelId, attr: AttrId) -> Option<&Value> {
        let root = self.find_ref(key);
        self.values.get(&root).and_then(|m| m.get(&(rel, attr)))
    }

    /// Validate `[EID.A]= c`.
    pub fn set_value(
        &mut self,
        key: EntityKey,
        rel: RelId,
        attr: AttrId,
        value: Value,
    ) -> ValueInsert {
        let root = self.find(key);
        let map = self.values.entry(root).or_default();
        match map.get(&(rel, attr)) {
            Some(existing) if *existing == value => ValueInsert::Known,
            Some(existing) => ValueInsert::Conflict(existing.clone()),
            None => {
                map.insert((rel, attr), value);
                self.added_values += 1;
                ValueInsert::Added
            }
        }
    }

    /// Forcibly overwrite a validated value (conflict resolution commits
    /// its chosen winner through this).
    pub fn override_value(&mut self, key: EntityKey, rel: RelId, attr: AttrId, value: Value) {
        let root = self.find(key);
        self.values
            .entry(root)
            .or_default()
            .insert((rel, attr), value);
    }

    /// Validate that two entities are distinct (`t.eid != s.eid`).
    /// Returns false (conflict) when they are already merged.
    pub fn set_distinct(&mut self, a: EntityKey, b: EntityKey) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let pair = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.distinct.insert(pair);
        true
    }

    /// Are two entities validated distinct?
    pub fn is_distinct(&self, a: EntityKey, b: EntityKey) -> bool {
        let (ra, rb) = (self.find_ref(a), self.find_ref(b));
        let pair = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.distinct.contains(&pair)
    }

    /// Merge two entity classes (`t.eid = s.eid`).
    pub fn merge(&mut self, a: EntityKey, b: EntityKey) -> MergeOutcome {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return MergeOutcome::Known;
        }
        if self.is_distinct(ra, rb) {
            return MergeOutcome::Distinct;
        }
        // deterministic root choice: smaller key wins
        let (root, child) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent.insert(child, root);
        // rewrite distinct pairs involving child
        let rewritten: Vec<(EntityKey, EntityKey)> = self
            .distinct
            .iter()
            .filter(|(x, y)| *x == child || *y == child)
            .copied()
            .collect();
        for (x, y) in rewritten {
            self.distinct.remove(&(x, y));
            let nx = if x == child { root } else { x };
            let ny = if y == child { root } else { y };
            let pair = if nx < ny { (nx, ny) } else { (ny, nx) };
            self.distinct.insert(pair);
        }
        // union value maps, collecting conflicts
        let child_map = self.values.remove(&child).unwrap_or_default();
        let root_map = self.values.entry(root).or_default();
        let mut conflicts = Vec::new();
        for ((rel, attr), v) in child_map {
            match root_map.get(&(rel, attr)) {
                Some(existing) if *existing != v => {
                    conflicts.push((rel, attr, existing.clone(), v));
                }
                Some(_) => {}
                None => {
                    root_map.insert((rel, attr), v);
                }
            }
        }
        self.merges += 1;
        MergeOutcome::Merged { conflicts }
    }

    /// Validate a temporal order pair.
    pub fn add_order(
        &mut self,
        rel: RelId,
        attr: AttrId,
        t1: TupleId,
        t2: TupleId,
        strict: bool,
    ) -> OrderInsert {
        let r = self
            .orders
            .entry((rel, attr))
            .or_default()
            .insert(t1, t2, strict);
        if r == OrderInsert::Added {
            self.added_orders += 1;
        }
        r
    }

    /// The partial order of one attribute (empty default when untouched).
    pub fn order(&self, rel: RelId, attr: AttrId) -> Option<&PartialOrderStore> {
        self.orders.get(&(rel, attr))
    }

    /// Does `t1 ⪯A t2` / `t1 ≺A t2` hold in the validated orders?
    pub fn order_holds(
        &self,
        rel: RelId,
        attr: AttrId,
        t1: TupleId,
        t2: TupleId,
        strict: bool,
    ) -> bool {
        match self.orders.get(&(rel, attr)) {
            Some(p) => p.holds(t1, t2, strict),
            None => t1 == t2 && !strict,
        }
    }

    /// Validity check (§4.1): currently maintained incrementally — value
    /// conflicts and order conflicts are rejected at insert — so this
    /// asserts internal invariants (used by property tests).
    pub fn is_valid(&self) -> bool {
        // every distinct pair must reference distinct roots
        self.distinct
            .iter()
            .all(|(a, b)| self.find_ref(*a) != self.find_ref(*b))
    }

    /// Number of entity classes that have at least one member merged in.
    pub fn merge_count(&self) -> usize {
        self.merges
    }

    /// Flatten into a *deterministic* image with a JSON codec (all maps
    /// and sets become sorted pair lists — JSON cannot key objects by
    /// struct types, and the sort makes the checkpoint bytes stable).
    pub fn to_snapshot(&self) -> FixSnapshot {
        let mut parent: Vec<(EntityKey, EntityKey)> =
            self.parent.iter().map(|(k, v)| (*k, *v)).collect();
        parent.sort_unstable();
        let mut values: Vec<(EntityKey, Vec<((RelId, AttrId), Value)>)> = self
            .values
            .iter()
            .map(|(k, m)| {
                let mut inner: Vec<((RelId, AttrId), Value)> =
                    m.iter().map(|(ka, v)| (*ka, v.clone())).collect();
                inner.sort_unstable_by_key(|&(ka, _)| ka);
                (*k, inner)
            })
            .collect();
        values.sort_unstable_by_key(|&(k, _)| k);
        let mut distinct: Vec<(EntityKey, EntityKey)> = self.distinct.iter().copied().collect();
        distinct.sort_unstable();
        let mut orders: Vec<((RelId, AttrId), Vec<(TupleId, TupleId, bool)>)> = self
            .orders
            .iter()
            .map(|(k, p)| {
                let mut edges: Vec<(TupleId, TupleId, bool)> = p.iter_edges().collect();
                edges.sort_unstable();
                (*k, edges)
            })
            .collect();
        orders.sort_unstable_by_key(|&(k, _)| k);
        let mut trusted: Vec<GlobalTid> = self.trusted.iter().copied().collect();
        trusted.sort_unstable();
        FixSnapshot {
            parent,
            values,
            distinct,
            orders,
            trusted,
            added_values: self.added_values,
            merges: self.merges,
            added_orders: self.added_orders,
        }
    }

    /// Inverse of [`Self::to_snapshot`]: the rebuilt store is behaviorally
    /// identical (same union–find parents, validated values, distinctness
    /// pairs, direct order edges, trusted set, and counters).
    pub fn from_snapshot(s: &FixSnapshot) -> FixStore {
        let mut f = FixStore::new();
        for (k, v) in &s.parent {
            f.parent.insert(*k, *v);
        }
        for (k, inner) in &s.values {
            let m = f.values.entry(*k).or_default();
            for (ka, v) in inner {
                m.insert(*ka, v.clone());
            }
        }
        for p in &s.distinct {
            f.distinct.insert(*p);
        }
        for (ka, edges) in &s.orders {
            f.orders.insert(*ka, PartialOrderStore::from_edges(edges));
        }
        for t in &s.trusted {
            f.trusted.insert(*t);
        }
        f.added_values = s.added_values;
        f.merges = s.merges;
        f.added_orders = s.added_orders;
        f
    }
}

/// Deterministic image of a [`FixStore`] for round-boundary checkpoints
/// (see `crate::checkpoint`).
#[derive(Debug, Clone, PartialEq)]
pub struct FixSnapshot {
    parent: Vec<(EntityKey, EntityKey)>,
    values: Vec<(EntityKey, Vec<((RelId, AttrId), Value)>)>,
    distinct: Vec<(EntityKey, EntityKey)>,
    orders: Vec<((RelId, AttrId), Vec<(TupleId, TupleId, bool)>)>,
    trusted: Vec<GlobalTid>,
    added_values: usize,
    merges: usize,
    added_orders: usize,
}

rock_data::json_codec!(struct FixSnapshot {
    parent, values, distinct, orders, trusted, added_values, merges, added_orders,
});

/// [`rock_rees::eval::TemporalOracle`] backed by the fix store: the chase
/// evaluates `t ⪯A s` preconditions against *validated* orders only.
pub struct FixOrderOracle<'a> {
    pub fixes: &'a FixStore,
}

impl rock_rees::eval::TemporalOracle for FixOrderOracle<'_> {
    fn holds(&self, rel: RelId, attr: AttrId, t1: TupleId, t2: TupleId, strict: bool) -> bool {
        self.fixes.order_holds(rel, attr, t1, t2, strict)
    }
}

/// The chase's temporal oracle: validated orders in `U` plus the *lazy*
/// Γ⪯ — pairs implied by the initial cell timestamps (§4.1 initializes Γ⪯
/// "with the temporal orders in D with initial timestamps"; materializing
/// them is quadratic, comparing on demand is O(1)).
pub struct ChaseOrderOracle<'a> {
    pub fixes: &'a FixStore,
    pub db: &'a rock_data::Database,
}

impl rock_rees::eval::TemporalOracle for ChaseOrderOracle<'_> {
    fn holds(&self, rel: RelId, attr: AttrId, t1: TupleId, t2: TupleId, strict: bool) -> bool {
        if self.fixes.order_holds(rel, attr, t1, t2, strict) {
            return true;
        }
        let ts = &self.db.relation(rel).timestamps;
        match (ts.get(t1, attr), ts.get(t2, attr)) {
            (Some(a), Some(b)) => {
                if strict {
                    a < b
                } else {
                    a <= b
                }
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(e: u32) -> EntityKey {
        EntityKey::new(RelId(0), Eid(e))
    }

    #[test]
    fn union_find_basics() {
        let mut f = FixStore::new();
        assert!(!f.same_entity(k(1), k(2)));
        assert!(matches!(f.merge(k(1), k(2)), MergeOutcome::Merged { .. }));
        assert!(f.same_entity(k(1), k(2)));
        assert_eq!(f.merge(k(1), k(2)), MergeOutcome::Known);
        f.merge(k(2), k(3));
        assert!(f.same_entity(k(1), k(3)));
        assert_eq!(f.merge_count(), 2);
    }

    #[test]
    fn value_validation_and_conflict() {
        let mut f = FixStore::new();
        assert_eq!(
            f.set_value(k(1), RelId(0), AttrId(2), Value::str("x")),
            ValueInsert::Added
        );
        assert_eq!(
            f.set_value(k(1), RelId(0), AttrId(2), Value::str("x")),
            ValueInsert::Known
        );
        assert_eq!(
            f.set_value(k(1), RelId(0), AttrId(2), Value::str("y")),
            ValueInsert::Conflict(Value::str("x"))
        );
        assert_eq!(
            f.validated_value(k(1), RelId(0), AttrId(2)),
            Some(&Value::str("x"))
        );
        f.override_value(k(1), RelId(0), AttrId(2), Value::str("y"));
        assert_eq!(
            f.validated_value(k(1), RelId(0), AttrId(2)),
            Some(&Value::str("y"))
        );
    }

    #[test]
    fn merge_unions_values_and_reports_conflicts() {
        let mut f = FixStore::new();
        f.set_value(k(1), RelId(0), AttrId(0), Value::str("a"));
        f.set_value(k(2), RelId(0), AttrId(0), Value::str("b"));
        f.set_value(k(2), RelId(0), AttrId(1), Value::Int(5));
        match f.merge(k(1), k(2)) {
            MergeOutcome::Merged { conflicts } => {
                assert_eq!(conflicts.len(), 1);
                assert_eq!(conflicts[0].2, Value::str("a"));
                assert_eq!(conflicts[0].3, Value::str("b"));
            }
            o => panic!("unexpected {o:?}"),
        }
        // the non-conflicting value flowed into the merged class
        assert_eq!(
            f.validated_value(k(1), RelId(0), AttrId(1)),
            Some(&Value::Int(5))
        );
    }

    #[test]
    fn distinct_blocks_merge() {
        let mut f = FixStore::new();
        assert!(f.set_distinct(k(1), k(2)));
        assert_eq!(f.merge(k(1), k(2)), MergeOutcome::Distinct);
        assert!(f.is_distinct(k(1), k(2)));
        // merging an already-merged pair can't become distinct
        f.merge(k(3), k(4));
        assert!(!f.set_distinct(k(3), k(4)));
        assert!(f.is_valid());
    }

    #[test]
    fn distinctness_follows_merges() {
        let mut f = FixStore::new();
        f.set_distinct(k(1), k(2));
        f.merge(k(2), k(3));
        // k3 is in k2's class, so k1 vs k3 is also distinct
        assert!(f.is_distinct(k(1), k(3)));
        assert!(f.is_valid());
    }

    #[test]
    fn orders_and_oracle() {
        let mut f = FixStore::new();
        assert_eq!(
            f.add_order(RelId(0), AttrId(1), TupleId(0), TupleId(1), false),
            OrderInsert::Added
        );
        assert!(f.order_holds(RelId(0), AttrId(1), TupleId(0), TupleId(1), false));
        assert!(!f.order_holds(RelId(0), AttrId(1), TupleId(1), TupleId(0), false));
        // untouched attribute: only reflexive non-strict holds
        assert!(f.order_holds(RelId(0), AttrId(9), TupleId(3), TupleId(3), false));
        assert!(!f.order_holds(RelId(0), AttrId(9), TupleId(3), TupleId(4), false));
    }

    #[test]
    fn trusted_tuples() {
        let mut f = FixStore::new();
        let t = GlobalTid::new(RelId(0), TupleId(7));
        assert!(!f.is_trusted(t));
        f.trust_tuple(t);
        assert!(f.is_trusted(t));
        assert_eq!(f.trusted_count(), 1);
    }

    #[test]
    fn snapshot_round_trip_preserves_behavior() {
        let mut f = FixStore::new();
        f.merge(k(1), k(2));
        f.set_distinct(k(3), k(4));
        f.set_value(k(1), RelId(0), AttrId(2), Value::str("x"));
        f.add_order(RelId(0), AttrId(1), TupleId(0), TupleId(1), false);
        f.add_order(RelId(0), AttrId(1), TupleId(1), TupleId(2), true);
        f.trust_tuple(GlobalTid::new(RelId(0), TupleId(7)));
        let snap = f.to_snapshot();
        let g = FixStore::from_snapshot(&snap);
        assert!(g.same_entity(k(1), k(2)));
        assert!(g.is_distinct(k(3), k(4)));
        assert_eq!(
            g.validated_value(k(2), RelId(0), AttrId(2)),
            Some(&Value::str("x"))
        );
        assert!(g.order_holds(RelId(0), AttrId(1), TupleId(0), TupleId(2), true));
        assert!(g.is_trusted(GlobalTid::new(RelId(0), TupleId(7))));
        assert_eq!(g.merge_count(), 1);
        assert_eq!(g.added_orders, 2);
        // deterministic: re-snapshotting the rebuilt store is bit-identical
        assert_eq!(snap, g.to_snapshot());
    }

    #[test]
    fn cross_relation_merge() {
        let mut f = FixStore::new();
        let a = EntityKey::new(RelId(0), Eid(1));
        let b = EntityKey::new(RelId(1), Eid(1));
        assert!(!f.same_entity(a, b));
        f.merge(a, b);
        assert!(f.same_entity(a, b));
    }
}
