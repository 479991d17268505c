//! The commit phase of a chase round (paper §4.1 step (3), §4.2 conflict
//! resolution), shared verbatim by the production loop and the reference
//! chase: whatever produced a round's deduplicated proposals, they extend
//! `U` here, in four deterministic phases —
//!
//! * **A** distinctness (`t.eid != s.eid`),
//! * **B** entity merges, with the value conflicts a merge surfaces resolved
//!   and the united class's validated values materialized,
//! * **C** value fixes: cells connected by `EquateCells` form clusters, one
//!   resolution per cluster ([`ConflictPolicy`]),
//! * **D** temporal orders.
//!
//! The module also owns the two other steps every chase shares: seeding Γ
//! from the trusted tuples and materializing the final ER outcome.

use crate::chase::GateMode;
use crate::conflict::ConflictPolicy;
use crate::delta::DeltaSet;
use crate::fixes::{EntityKey, FixStore, MergeOutcome};
use crate::order::OrderInsert;
use crate::proposal::{Proposal, ProposalKey};
use crate::wal::{FixKind, RoundFix};
use rock_data::{
    AttrId, CellRef, Database, FxHashMap, FxHashSet, GlobalTid, RelId, TupleId, Value,
};
use rock_ml::ModelRegistry;

/// Valuation tuples supporting each deduplicated proposal of a round — the
/// WAL's provenance input; only built for durable runs.
pub(crate) type Support = FxHashMap<ProposalKey, Vec<GlobalTid>>;

/// What a chase has committed so far: the working database with all fixes
/// materialized, the fix store `U`, and the running totals.
pub(crate) struct Committed {
    pub db: Database,
    pub fixes: FixStore,
    pub changes: Vec<(CellRef, Value, Value)>,
    pub merged_pairs: Vec<(GlobalTid, GlobalTid)>,
    pub conflicts: usize,
    pub steps: usize,
}

impl Committed {
    /// Start a chase over `db`: trust Γ's tuples and, in Strict mode,
    /// validate every non-null trusted cell (Γ= of §4.1).
    ///
    /// Γ⪯ is initialized "with the temporal orders in D with initial
    /// timestamps" (§4.1). Materializing that order is quadratic in the
    /// timestamped cells, so it stays *lazy*: the chase's temporal oracle
    /// (`ChaseOrderOracle`) answers `t1 ⪯A t2` from the explicit validated
    /// pairs OR from the timestamps directly.
    pub fn seed(db: Database, mut fixes: FixStore, trusted: &[GlobalTid], gate: GateMode) -> Self {
        for t in trusted {
            fixes.trust_tuple(*t);
        }
        if gate == GateMode::Strict {
            for t in trusted {
                let Some(tu) = db.relation(t.rel).get(t.tid) else {
                    continue;
                };
                for (i, v) in tu.values.iter().enumerate() {
                    if !v.is_null() {
                        fixes.set_value(
                            EntityKey::new(t.rel, tu.eid),
                            t.rel,
                            AttrId(i as u16),
                            v.clone(),
                        );
                    }
                }
            }
        }
        Committed {
            db,
            fixes,
            changes: Vec::new(),
            merged_pairs: Vec::new(),
            conflicts: 0,
            steps: 0,
        }
    }
}

/// What one round's commit did, for the caller's delta bookkeeping,
/// next-round activation and WAL.
pub(crate) struct RoundCommit {
    /// `(relation, attribute)` pairs with a rewritten cell or a new order.
    pub changed_cells: FxHashSet<(RelId, AttrId)>,
    pub any_merge: bool,
    /// Tuples the commit touched: cells written, classes merged, classes
    /// that received a validated value, and — coarsely — whole relations
    /// whose temporal order was extended.
    pub delta: DeltaSet,
    /// The round's fix records in commit order (empty without `Support`).
    pub fixes: Vec<RoundFix>,
}

/// Tuples grouped by their original `(relation, eid)` key; the chase never
/// inserts tuples, so one index serves a whole run.
struct EntityIdx {
    members: FxHashMap<EntityKey, Vec<GlobalTid>>,
}

impl EntityIdx {
    fn build(db: &Database) -> Self {
        let mut members: FxHashMap<EntityKey, Vec<GlobalTid>> = FxHashMap::default();
        for (rid, rel) in db.iter() {
            for t in rel.iter() {
                members
                    .entry(EntityKey::new(rid, t.eid))
                    .or_default()
                    .push(GlobalTid::new(rid, t.tid));
            }
        }
        EntityIdx { members }
    }

    /// One O(E) pass grouping every member by its current class root — the
    /// commit phase does thousands of membership lookups per round, and
    /// per-lookup scans are quadratic.
    fn grouped(&self, fixes: &FixStore) -> FxHashMap<EntityKey, Vec<GlobalTid>> {
        let mut out: FxHashMap<EntityKey, Vec<GlobalTid>> = FxHashMap::default();
        for (k, v) in &self.members {
            out.entry(fixes.find_ref(*k))
                .or_default()
                .extend_from_slice(v);
        }
        for v in out.values_mut() {
            v.sort();
        }
        out
    }
}

/// The commit phase, bound to one run's policy and entity index.
pub(crate) struct Committer<'a> {
    registry: &'a ModelRegistry,
    policy: &'a ConflictPolicy,
    gate: GateMode,
    entity_idx: EntityIdx,
    empty_delta: DeltaSet,
}

impl<'a> Committer<'a> {
    pub fn new(
        registry: &'a ModelRegistry,
        policy: &'a ConflictPolicy,
        gate: GateMode,
        db: &Database,
    ) -> Self {
        Committer {
            registry,
            policy,
            gate,
            entity_idx: EntityIdx::build(db),
            empty_delta: DeltaSet::empty(db),
        }
    }

    /// Commit one round's proposals (sorted by [`Proposal::key`] and
    /// deduplicated by the caller). With `support`, every fix is also
    /// recorded for the WAL with its rule and supporting valuations.
    pub fn commit(
        &self,
        st: &mut Committed,
        proposals: &[Proposal],
        support: Option<&Support>,
    ) -> RoundCommit {
        let changes_start = st.changes.len();
        let mut round = Round {
            c: self,
            groups: self.entity_idx.grouped(&st.fixes),
            st,
            support,
            out: RoundCommit {
                changed_cells: FxHashSet::default(),
                any_merge: false,
                delta: self.empty_delta.clone(),
                fixes: Vec::new(),
            },
        };
        round.distinctness(proposals);
        round.merges(proposals);
        round.value_fixes(proposals);
        round.orders(proposals);
        let Round { st, mut out, .. } = round;
        for (cell, _, _) in &st.changes[changes_start..] {
            out.delta.mark(cell.rel, cell.tid);
        }
        out
    }

    /// Materialize the ER outcome into the repaired database: within each
    /// validated entity class, all member tuples of a relation get the
    /// class's smallest eid in that relation (the repaired data then
    /// *carries* the deduplication, and re-chasing it is a no-op for
    /// same-relation ER rules).
    pub fn materialize_entities(&self, st: &mut Committed) {
        for members in self.entity_idx.grouped(&st.fixes).values() {
            let mut min_per_rel: FxHashMap<RelId, rock_data::Eid> = FxHashMap::default();
            for m in members {
                if let Some(t) = st.db.relation(m.rel).get(m.tid) {
                    min_per_rel
                        .entry(m.rel)
                        .and_modify(|e| *e = (*e).min(t.eid))
                        .or_insert(t.eid);
                }
            }
            for m in members {
                let target = min_per_rel[&m.rel];
                if let Some(t) = st.db.relation_mut(m.rel).get_mut(m.tid) {
                    t.eid = target;
                }
            }
        }
    }
}

/// One round's commit in flight.
struct Round<'r, 'a> {
    c: &'r Committer<'a>,
    st: &'r mut Committed,
    /// Class members by current root; refreshed after every merge.
    groups: FxHashMap<EntityKey, Vec<GlobalTid>>,
    support: Option<&'r Support>,
    out: RoundCommit,
}

impl Round<'_, '_> {
    /// Record a committed fix for the WAL (no-op for non-durable runs).
    fn record(&mut self, kind: FixKind, rule: u32, p: &Proposal) {
        if let Some(support) = self.support {
            let sup = support.get(&p.key()).cloned().unwrap_or_default();
            self.out.fixes.push((kind, rule, sup));
        }
    }

    fn members_of(&self, root: EntityKey) -> Vec<GlobalTid> {
        self.groups.get(&root).cloned().unwrap_or_default()
    }

    /// Write `value` into `m[attr]` unless ground truth protects the cell
    /// (non-null cells of trusted tuples; filling a trusted tuple's null is
    /// fine). Returns the rewritten cell and its old value.
    fn write_cell(
        &mut self,
        m: GlobalTid,
        attr: AttrId,
        value: &Value,
    ) -> Option<(CellRef, Value)> {
        let old = self
            .st
            .db
            .cell(m.rel, m.tid, attr)
            .cloned()
            .unwrap_or(Value::Null);
        if (self.st.fixes.is_trusted(m) && !old.is_null()) || &old == value {
            return None;
        }
        self.st
            .db
            .relation_mut(m.rel)
            .set_cell(m.tid, attr, value.clone());
        let cell = CellRef::new(m.rel, m.tid, attr);
        self.st.changes.push((cell, old.clone(), value.clone()));
        self.out.changed_cells.insert((m.rel, attr));
        Some((cell, old))
    }

    /// Phase A: distinctness.
    fn distinctness(&mut self, proposals: &[Proposal]) {
        for p in proposals {
            let Proposal::Distinct { a, b, rule } = p else {
                continue;
            };
            let (Some(ka), Some(kb)) = (entity_key(&self.st.db, *a), entity_key(&self.st.db, *b))
            else {
                continue;
            };
            if !self.st.fixes.set_distinct(ka, kb) {
                self.st.conflicts += 1; // already merged: ER conflict
            } else {
                self.st.steps += 1;
                self.record(FixKind::Distinct { a: *a, b: *b }, *rule, p);
            }
        }
    }

    /// Phase B: merges.
    fn merges(&mut self, proposals: &[Proposal]) {
        for p in proposals {
            let Proposal::Merge { a, b, rule } = p else {
                continue;
            };
            let (Some(ka), Some(kb)) = (entity_key(&self.st.db, *a), entity_key(&self.st.db, *b))
            else {
                continue;
            };
            match self.st.fixes.merge(ka, kb) {
                MergeOutcome::Merged { conflicts: vcs } => {
                    self.st.steps += 1;
                    self.out.any_merge = true;
                    self.st.merged_pairs.push((*a, *b));
                    let merge_changes_start = self.st.changes.len();
                    self.record(FixKind::Merge { a: *a, b: *b }, *rule, p);
                    // membership changed: refresh the grouped view
                    self.groups = self.c.entity_idx.grouped(&self.st.fixes);
                    // the merge changes the entity oracle (and the
                    // validated-value visibility) for every member of the
                    // united class, even when no cell is rewritten — all of
                    // them join the delta
                    let root = self.st.fixes.find(ka);
                    for m in self.groups.get(&root).into_iter().flatten() {
                        self.out.delta.mark(m.rel, m.tid);
                    }
                    for (rel, attr, v1, v2) in vcs {
                        self.st.conflicts += 1;
                        self.resolve_class_value(ka, rel, attr, &[v1, v2]);
                    }
                    self.materialize_class(ka);
                    // cell writes the merge forced (conflict resolutions +
                    // class materialization) are fixes of the merge's rule;
                    // within-round parent chaining makes the Merge record
                    // their provenance parent
                    if self.support.is_some() {
                        let forced = self.st.changes[merge_changes_start..].to_vec();
                        for (cell, old, new) in forced {
                            self.record(FixKind::Cell { cell, old, new }, *rule, p);
                        }
                    }
                }
                MergeOutcome::Known => {}
                MergeOutcome::Distinct => self.st.conflicts += 1,
            }
        }
    }

    /// Resolve a multi-candidate value for one entity attribute and commit
    /// the winner to the fix store and the working database.
    fn resolve_class_value(
        &mut self,
        key: EntityKey,
        rel: RelId,
        attr: AttrId,
        candidates: &[Value],
    ) {
        let root = self.st.fixes.find(key);
        let members = self.members_of(root);
        // trusted value: a trusted member tuple's raw cell, if non-null
        let mut trusted_val: Option<Value> = None;
        let mut raw_votes: Vec<Value> = Vec::new();
        let mut evidence: Vec<Value> = Vec::new();
        for m in members.iter().filter(|m| m.rel == rel) {
            let Some(t) = self.st.db.relation(m.rel).get(m.tid) else {
                continue;
            };
            let v = t.get(attr);
            if !v.is_null() {
                raw_votes.push(v.clone());
                if self.st.fixes.is_trusted(*m) && trusted_val.is_none() {
                    trusted_val = Some(v.clone());
                }
            }
            if evidence.is_empty() {
                let mut ev = t.values.clone();
                ev[attr.index()] = Value::Null;
                evidence = ev;
            }
        }
        let Some((winner, _)) = self.c.policy.resolve_value(
            self.c.registry,
            trusted_val.as_ref(),
            &evidence,
            candidates,
            &raw_votes,
        ) else {
            return;
        };
        self.st.fixes.override_value(key, rel, attr, winner.clone());
        for m in members.into_iter().filter(|m| m.rel == rel) {
            self.write_cell(m, attr, &winner);
        }
    }

    /// After a merge, propagate every validated value of the class onto all
    /// member tuples.
    fn materialize_class(&mut self, key: EntityKey) {
        let root = self.st.fixes.find(key);
        let members = self.members_of(root);
        let mut vals: Vec<(RelId, AttrId, Value)> = Vec::new();
        for m in &members {
            let arity = self.st.db.relation(m.rel).schema.arity();
            for a in 0..arity {
                let attr = AttrId(a as u16);
                if let Some(v) = self.st.fixes.validated_value(root, m.rel, attr) {
                    vals.push((m.rel, attr, v.clone()));
                }
            }
        }
        vals.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then_with(|| a.2.cmp(&b.2)));
        vals.dedup();
        for (rel, attr, v) in vals {
            for m in members.iter().filter(|m| m.rel == rel) {
                self.write_cell(*m, attr, &v);
            }
        }
    }

    /// Phase C: value fixes. Cells connected by EquateCells form *clusters*
    /// (union–find over CellRef): the FD-repair semantics equate all
    /// connected cells, then one resolution picks the cluster's value
    /// (majority over the cluster's raw cells, Mc, ground truth — see
    /// ConflictPolicy). SetCell proposals pin an explicit candidate onto
    /// the cell's cluster.
    fn value_fixes(&mut self, proposals: &[Proposal]) {
        let mut clusters = CellClusters::default();
        // provenance attribution per member cell: smallest proposing rule
        // id + the union of supporting valuations
        let mut cell_prov: FxHashMap<CellRef, (u32, Vec<GlobalTid>)> = FxHashMap::default();
        let mut attribute = |cells: &[CellRef], rule: u32, p: &Proposal| {
            let Some(support) = self.support else { return };
            let sup = support.get(&p.key()).cloned().unwrap_or_default();
            for cell in cells {
                let e = cell_prov.entry(*cell).or_insert((rule, Vec::new()));
                e.0 = e.0.min(rule);
                e.1.extend(sup.iter().copied());
            }
        };
        for p in proposals {
            match p {
                Proposal::SetCell { cell, value, rule } => {
                    clusters.propose(*cell, value.clone());
                    attribute(&[*cell], *rule, p);
                }
                Proposal::EquateCells { a, b, rule } => {
                    clusters.union(*a, *b);
                    attribute(&[*a, *b], *rule, p);
                }
                _ => {}
            }
        }
        for (members, cands) in clusters.into_groups() {
            // cluster-level provenance: min rule over the member cells,
            // union of their supporting valuations
            let mut rule = u32::MAX;
            let mut sup: Vec<GlobalTid> = Vec::new();
            for (r, s) in members.iter().filter_map(|cell| cell_prov.get(cell)) {
                rule = rule.min(*r);
                sup.extend(s.iter().copied());
            }
            sup.sort_unstable();
            sup.dedup();
            let rule = if rule == u32::MAX { 0 } else { rule };
            self.resolve_cluster(&members, cands, rule, &sup);
        }
    }

    /// Resolve one Phase C cluster and materialize the winner; `rule` and
    /// `sup` are the cluster's WAL attribution.
    fn resolve_cluster(
        &mut self,
        members: &[CellRef],
        mut cands: Vec<Value>,
        rule: u32,
        sup: &[GlobalTid],
    ) {
        // candidates: proposed constants + current non-null member values
        // + any already-validated value of a member entity. A *single-cell*
        // cluster (a rule-asserted value with no equate group: extraction,
        // prediction, constant) does NOT take its own current value as a
        // candidate — the rule asserts what the cell should be and the
        // current value is the suspect (trusted cells stay protected in
        // `write_cell`).
        let equate_group = members.len() > 1;
        let mut raw_votes: Vec<Value> = Vec::new();
        let mut trusted_val: Option<Value> = None;
        let mut evidence: Vec<Value> = Vec::new();
        for cell in members {
            if let Some(v) = self.st.db.cell(cell.rel, cell.tid, cell.attr) {
                if !v.is_null() {
                    raw_votes.push(v.clone());
                    if equate_group {
                        cands.push(v.clone());
                    }
                    if trusted_val.is_none() && self.st.fixes.is_trusted(cell.tuple()) {
                        trusted_val = Some(v.clone());
                    }
                }
            }
            if let Some(k) = entity_key(&self.st.db, cell.tuple()) {
                if let Some(v) = self.st.fixes.validated_value(k, cell.rel, cell.attr) {
                    cands.push(v.clone());
                    // Strict mode: validated facts ARE ground truth
                    // (certain fixes may not contradict them).
                    if self.c.gate == GateMode::Strict && trusted_val.is_none() {
                        trusted_val = Some(v.clone());
                    }
                }
            }
            if evidence.is_empty() {
                if let Some(t) = self.st.db.relation(cell.rel).get(cell.tid) {
                    let mut ev = t.values.clone();
                    ev[cell.attr.index()] = Value::Null;
                    evidence = ev;
                }
            }
        }
        let distinct: FxHashSet<&Value> = cands.iter().filter(|v| !v.is_null()).collect();
        if distinct.len() > 1 {
            self.st.conflicts += 1;
        }
        // single-cell clusters carry no majority signal — the only raw
        // vote would be the suspect cell itself
        let votes: &[Value] = if equate_group { &raw_votes } else { &[] };
        let Some((winner, _)) = self.c.policy.resolve_value(
            self.c.registry,
            trusted_val.as_ref(),
            &evidence,
            &cands,
            votes,
        ) else {
            return;
        };
        self.st.steps += 1;
        // validate on every member's entity and materialize onto every
        // member tuple of that entity
        let mut roots_done: FxHashSet<(EntityKey, RelId, AttrId)> = FxHashSet::default();
        for cell in members {
            let Some(k) = entity_key(&self.st.db, cell.tuple()) else {
                continue;
            };
            let root = self.st.fixes.find(k);
            if !roots_done.insert((root, cell.rel, cell.attr)) {
                continue;
            }
            self.st
                .fixes
                .override_value(root, cell.rel, cell.attr, winner.clone());
            if self.support.is_some() {
                let kind = FixKind::Validate {
                    entity: root,
                    rel: cell.rel,
                    attr: cell.attr,
                    value: winner.clone(),
                };
                self.out.fixes.push((kind, rule, sup.to_vec()));
            }
            for m in self.members_of(root) {
                if m.rel != cell.rel {
                    continue;
                }
                // the validated value is visible to the Strict gate for
                // every member of the class in this relation, whether or
                // not its cell is rewritten
                self.out.delta.mark(m.rel, m.tid);
                if let Some((cref, old)) = self.write_cell(m, cell.attr, &winner) {
                    if self.support.is_some() {
                        let kind = FixKind::Cell {
                            cell: cref,
                            old,
                            new: winner.clone(),
                        };
                        self.out.fixes.push((kind, rule, sup.to_vec()));
                    }
                }
            }
        }
    }

    /// Phase D: temporal orders.
    fn orders(&mut self, proposals: &[Proposal]) {
        for p in proposals {
            let Proposal::Order {
                rel,
                attr,
                t1,
                t2,
                strict,
                rule,
            } = p
            else {
                continue;
            };
            match self.st.fixes.add_order(*rel, *attr, *t1, *t2, *strict) {
                OrderInsert::Added => {
                    self.st.steps += 1;
                    let kind = FixKind::Order {
                        rel: *rel,
                        attr: *attr,
                        t1: *t1,
                        t2: *t2,
                        strict: *strict,
                    };
                    self.record(kind, *rule, p);
                    self.out.changed_cells.insert((*rel, *attr));
                    // order edges act transitively through the DAG, so
                    // tuple-level delta tracking of their reach is unsound
                    // — coarsen to the whole relation
                    self.out.delta.mark_all(*rel);
                }
                OrderInsert::Known => {}
                OrderInsert::Conflict => {
                    self.st.conflicts += 1;
                    // TD conflict resolution (§4.2(2)): Mrank confidences
                    // decide; the validated direction is retained when it
                    // wins, otherwise the new pair is dropped (the store
                    // cannot retract derived closure edges, so a losing
                    // existing *direct* edge simply stays — deterministic
                    // either way).
                    let f1 = tuple_features(&self.st.db, *rel, *t1);
                    let f2 = tuple_features(&self.st.db, *rel, *t2);
                    let _ = self.c.policy.resolve_order(self.c.registry, &f1, &f2);
                }
            }
        }
    }
}

/// A Phase C cluster: its member cells and the rule-proposed candidates.
type CellGroup = (Vec<CellRef>, Vec<Value>);

/// Union–find over cells for Phase C value clustering, with proposed
/// constants attached to each cluster.
#[derive(Default)]
struct CellClusters {
    parent: FxHashMap<CellRef, CellRef>,
    proposed: FxHashMap<CellRef, Vec<Value>>,
}

impl CellClusters {
    fn find(&mut self, c: CellRef) -> CellRef {
        let mut root = c;
        while let Some(&p) = self.parent.get(&root) {
            if p == root {
                break;
            }
            root = p;
        }
        let mut cur = c;
        while let Some(&p) = self.parent.get(&cur) {
            if p == root || p == cur {
                break;
            }
            self.parent.insert(cur, root);
            cur = p;
        }
        self.parent.entry(root).or_insert(root);
        root
    }

    fn union(&mut self, a: CellRef, b: CellRef) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // deterministic: smaller root wins
            let (keep, drop) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent.insert(drop, keep);
        }
    }

    fn propose(&mut self, c: CellRef, v: Value) {
        self.find(c);
        self.proposed.entry(c).or_default().push(v);
    }

    /// Consume into `(member cells, proposed candidates)` groups, sorted
    /// deterministically by root cell.
    fn into_groups(mut self) -> Vec<CellGroup> {
        let cells: Vec<CellRef> = self.parent.keys().copied().collect();
        let mut groups: FxHashMap<CellRef, CellGroup> = FxHashMap::default();
        for c in cells {
            let root = self.find(c);
            groups.entry(root).or_default().0.push(c);
        }
        let proposed = std::mem::take(&mut self.proposed);
        for (c, vs) in proposed {
            let root = self.find(c);
            groups.entry(root).or_default().1.extend(vs);
        }
        let mut out: Vec<(CellRef, CellGroup)> = groups.into_iter().collect();
        out.sort_by_key(|(root, _)| *root);
        out.into_iter()
            .map(|(_, (mut members, mut cands))| {
                members.sort();
                members.dedup();
                cands.sort();
                cands.dedup();
                (members, cands)
            })
            .collect()
    }
}

fn entity_key(db: &Database, t: GlobalTid) -> Option<EntityKey> {
    db.relation(t.rel)
        .get(t.tid)
        .map(|tu| EntityKey::new(t.rel, tu.eid))
}

fn tuple_features(db: &Database, rel: RelId, tid: TupleId) -> Vec<Value> {
    db.relation(rel)
        .get(tid)
        .map(|t| t.values.clone())
        .unwrap_or_default()
}
