//! The commit phase of a chase round (paper §4.1 step (3), §4.2 conflict
//! resolution), shared verbatim by the production loop and the reference
//! chase: whatever produced a round's deduplicated proposals, they extend
//! `U` here, in four deterministic phases —
//!
//! * **A** distinctness (`t.eid != s.eid`),
//! * **B** entity merges, with the value conflicts a merge surfaces resolved
//!   and the united class's validated values materialized,
//! * **C** value fixes: cells connected by `EquateCells` and `EquateGroup`
//!   form clusters, one resolution per cluster ([`ConflictPolicy`]),
//! * **D** temporal orders.
//!
//! The module also owns the two other steps every chase shares: seeding Γ
//! from the trusted tuples and materializing the final ER outcome.

use crate::chase::GateMode;
use crate::conflict::ConflictPolicy;
use crate::fixes::{EntityKey, FixStore, MergeOutcome};
use crate::order::OrderInsert;
use crate::proposal::{Proposal, ProposalKey};
use crate::wal::{FixKind, RoundFix};
use rock_data::{
    AttrId, CellRef, Database, DeltaSet, FxHashMap, FxHashSet, GlobalTid, RelId, TupleId, Value,
};
use rock_ml::ModelRegistry;

/// Valuation tuples supporting each deduplicated proposal of a round — the
/// WAL's provenance input; only built for durable runs.
pub(crate) type Support = FxHashMap<ProposalKey, Vec<GlobalTid>>;

/// What a chase has committed so far: the working database with all fixes
/// materialized, the fix store `U`, the members of its merged classes, and
/// the running totals.
pub(crate) struct Committed {
    pub db: Database,
    pub fixes: FixStore,
    pub classes: MergedClasses,
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
            classes: MergedClasses::new(&db, &fixes),
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

/// The members of every entity class that unites more than one key, by
/// current `[EID]=` root, each list ascending. A class of one key is not
/// listed: its members are its relation's class index entry for its eid
/// ([`rock_data::Relation::classes`]), which the database keeps current.
///
/// The chase never inserts or deletes tuples and merges only in Phase B,
/// so the lists are built once, when a run (or a resumed one) starts,
/// from the fix store's merged keys — O(merged keys) — and each merge
/// [`MergedClasses::regroup`]s the two classes it unites.
#[derive(Debug, Default)]
pub(crate) struct MergedClasses(FxHashMap<EntityKey, Vec<GlobalTid>>);

impl MergedClasses {
    pub fn new(db: &Database, fixes: &FixStore) -> Self {
        let classes = fixes.merged_classes().into_iter().map(|(root, keys)| {
            let mut members: Vec<GlobalTid> =
                keys.into_iter().flat_map(|k| key_members(db, k)).collect();
            members.sort_unstable();
            (root, members)
        });
        MergedClasses(classes.collect())
    }

    /// Members of the class rooted at `root`, ascending.
    pub fn members(&self, db: &Database, root: EntityKey) -> Vec<GlobalTid> {
        match self.0.get(&root) {
            Some(members) => members.clone(),
            None => key_members(db, root),
        }
    }

    /// The members of the merged class rooted at `root`; `None` for a
    /// class of one key.
    pub fn merged(&self, root: EntityKey) -> Option<&[GlobalTid]> {
        self.0.get(&root).map(Vec::as_slice)
    }

    /// After one merge united the classes rooted at `old_roots` under
    /// `root`: their two member lists become one ascending list, and no
    /// other class moves.
    fn regroup(&mut self, db: &Database, old_roots: [EntityKey; 2], root: EntityKey) {
        let mut members: Vec<GlobalTid> = old_roots
            .iter()
            .flat_map(|k| self.0.remove(k).unwrap_or_else(|| key_members(db, *k)))
            .collect();
        members.sort_unstable();
        self.0.insert(root, members);
    }
}

/// The live tuples whose own entity key is `k`, ascending.
fn key_members(db: &Database, k: EntityKey) -> Vec<GlobalTid> {
    let classes = db.relation(k.rel).classes();
    let members = classes.members(k.eid);
    members.map(|tid| GlobalTid::new(k.rel, tid)).collect()
}

impl Committed {
    /// Materialize the ER outcome into the repaired database: within each
    /// validated entity class, all member tuples of a relation get the
    /// class's smallest eid in that relation (the repaired data then
    /// *carries* the deduplication, and re-chasing it is a no-op for
    /// same-relation ER rules). Only merged classes can hold two eids, so
    /// only those are visited, and only tuples whose eid changes are
    /// written.
    pub fn materialize_entities(&mut self) {
        let Committed { db, classes, .. } = self;
        for members in classes.0.values() {
            let mut min_per_rel: FxHashMap<RelId, rock_data::Eid> = FxHashMap::default();
            for m in members {
                if let Some(t) = db.relation(m.rel).get(m.tid) {
                    min_per_rel
                        .entry(m.rel)
                        .and_modify(|e| *e = (*e).min(t.eid))
                        .or_insert(t.eid);
                }
            }
            for m in members {
                let target = min_per_rel[&m.rel];
                let stale = db.relation(m.rel).get(m.tid);
                if stale.is_some_and(|t| t.eid != target) {
                    db.relation_mut(m.rel).set_eid(m.tid, target);
                }
            }
        }
    }
}

/// The commit phase of one run: its policy. The class members it reads
/// and regroups are the committed state's ([`Committed::classes`]).
pub(crate) struct Committer<'a> {
    registry: &'a ModelRegistry,
    policy: &'a ConflictPolicy,
    gate: GateMode,
    empty_delta: DeltaSet,
}

impl<'a> Committer<'a> {
    pub fn new(
        registry: &'a ModelRegistry,
        policy: &'a ConflictPolicy,
        gate: GateMode,
        st: &Committed,
    ) -> Self {
        Committer {
            registry,
            policy,
            gate,
            empty_delta: DeltaSet::empty(&st.db),
        }
    }

    /// Commit one round's proposals (sorted by [`Proposal::key`] and
    /// deduplicated by the caller). With `support`, every fix is also
    /// recorded for the WAL with its rule and supporting valuations.
    pub fn commit(
        &mut self,
        st: &mut Committed,
        proposals: &[Proposal],
        support: Option<&Support>,
    ) -> RoundCommit {
        let changes_start = st.changes.len();
        let mut round = Round {
            c: self,
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
}

/// One round's commit in flight.
struct Round<'r, 'a> {
    c: &'r Committer<'a>,
    st: &'r mut Committed,
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
        self.st.classes.members(&self.st.db, root)
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
            let old_roots = [self.st.fixes.find_ref(ka), self.st.fixes.find_ref(kb)];
            match self.st.fixes.merge(ka, kb) {
                MergeOutcome::Merged { conflicts: vcs } => {
                    self.st.steps += 1;
                    self.out.any_merge = true;
                    self.st.merged_pairs.push((*a, *b));
                    let merge_changes_start = self.st.changes.len();
                    self.record(FixKind::Merge { a: *a, b: *b }, *rule, p);
                    let root = self.st.fixes.find(ka);
                    let st = &mut *self.st;
                    st.classes.regroup(&st.db, old_roots, root);
                    // the merge changes the entity oracle (and the
                    // validated-value visibility) for every member of the
                    // united class, even when no cell is rewritten — all of
                    // them join the delta
                    for m in st.classes.merged(root).into_iter().flatten() {
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

    /// Phase C: value fixes. Cells connected by EquateCells and EquateGroup
    /// form *clusters* (union–find over CellRef; a group is the union of
    /// its pairs, so the clusters do not depend on which of the two an
    /// FD-shaped rule proposed): the FD-repair semantics equate all
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
                Proposal::EquateGroup { cells, rule } => {
                    for c in cells.iter().skip(1) {
                        clusters.union(cells[0], *c);
                    }
                    attribute(cells, *rule, p);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::rng::StdRng;
    use rock_data::{AttrType, DatabaseSchema, Eid, RelationSchema};

    /// Two relations of 40 tuples whose eids are shared by several
    /// tuples, so classes start with members.
    fn shared_eid_db(rng: &mut StdRng) -> Database {
        let schema = DatabaseSchema::new(vec![
            RelationSchema::of("A", &[("x", AttrType::Int)]),
            RelationSchema::of("B", &[("x", AttrType::Int)]),
        ]);
        let mut db = Database::new(&schema);
        for rel in [RelId(0), RelId(1)] {
            for i in 0..40 {
                let eid = Eid(rng.gen_range(0..12u32));
                db.relation_mut(rel)
                    .insert(eid, vec![Value::Int(i)])
                    .unwrap();
            }
        }
        db
    }

    /// Class members by current root, from one pass over every live tuple:
    /// what the merged lists and the class index together must answer.
    fn cold_classes(db: &Database, fixes: &FixStore) -> FxHashMap<EntityKey, Vec<GlobalTid>> {
        let mut out: FxHashMap<EntityKey, Vec<GlobalTid>> = FxHashMap::default();
        for (rid, rel) in db.iter() {
            for t in rel.iter() {
                out.entry(fixes.find_ref(EntityKey::new(rid, t.eid)))
                    .or_default()
                    .push(GlobalTid::new(rid, t.tid));
            }
        }
        out
    }

    /// Every key's class members, as `classes` answers them.
    fn assert_members_match(db: &Database, fixes: &FixStore, classes: &MergedClasses) {
        let cold = cold_classes(db, fixes);
        for rel in [RelId(0), RelId(1)] {
            for eid in 0..12 {
                let root = fixes.find_ref(EntityKey::new(rel, Eid(eid)));
                let want = cold.get(&root).cloned().unwrap_or_default();
                assert_eq!(classes.members(db, root), want, "class of {rel:?}/{eid}");
            }
        }
    }

    #[test]
    fn regrouping_after_each_merge_equals_a_full_regroup() {
        let mut rng = StdRng::seed_from_u64(7);
        let db = shared_eid_db(&mut rng);
        let mut fixes = FixStore::new();
        let mut classes = MergedClasses::new(&db, &fixes);
        let key = |rng: &mut StdRng| {
            EntityKey::new(RelId(rng.gen_range(0..2u16)), Eid(rng.gen_range(0..12u32)))
        };
        let mut merged = 0;
        for _ in 0..30 {
            let (ka, kb) = (key(&mut rng), key(&mut rng));
            let old_roots = [fixes.find_ref(ka), fixes.find_ref(kb)];
            if let MergeOutcome::Merged { .. } = fixes.merge(ka, kb) {
                merged += 1;
                let root = fixes.find(ka);
                classes.regroup(&db, old_roots, root);
            }
            assert_members_match(&db, &fixes, &classes);
            // a run seeded (or resumed) with these merges lists the same
            let rebuilt = MergedClasses::new(&db, &fixes);
            assert_eq!(rebuilt.0, classes.0, "after merging {ka:?} {kb:?}");
        }
        assert!(merged > 10, "the sequence merges classes: {merged}");
    }

    #[test]
    fn materializing_without_merges_keeps_every_column_snapshot() {
        let registry = ModelRegistry::new();
        let policy = ConflictPolicy::default();
        let db = shared_eid_db(&mut StdRng::seed_from_u64(11));
        let mut st = Committed::seed(db, FixStore::new(), &[], GateMode::Resolved);
        let mut committer = Committer::new(&registry, &policy, GateMode::Resolved, &st);
        let cell = CellRef::new(RelId(0), TupleId(3), AttrId(0));
        let set = Proposal::SetCell {
            cell,
            value: Value::Int(99),
            rule: 0,
        };
        let round = committer.commit(&mut st, &[set], None);
        assert!(!round.any_merge);
        let before = [RelId(0), RelId(1)].map(|r| st.db.relation(r).columns());
        st.materialize_entities();
        for (r, snapshot) in [RelId(0), RelId(1)].into_iter().zip(&before) {
            assert!(
                std::sync::Arc::ptr_eq(snapshot, &st.db.relation(r).columns()),
                "relation {r:?} rebuilt its columns"
            );
        }
        assert_eq!(
            st.db.cell(RelId(0), TupleId(3), AttrId(0)),
            Some(&Value::Int(99))
        );

        // a merge across the two relations: each member of the united
        // class takes its relation's smallest member eid
        let eid_of = |db: &Database, g: GlobalTid| db.relation(g.rel).get(g.tid).map(|t| t.eid);
        let (a, b) = (
            GlobalTid::new(RelId(0), TupleId(0)),
            GlobalTid::new(RelId(1), TupleId(0)),
        );
        let merge = Proposal::Merge { a, b, rule: 0 };
        assert!(committer.commit(&mut st, &[merge], None).any_merge);
        let root = entity_key(&st.db, a).map(|k| st.fixes.find_ref(k)).unwrap();
        let members = st.classes.members(&st.db, root);
        assert_eq!(members, cold_classes(&st.db, &st.fixes)[&root]);
        let smallest = |rel: RelId| {
            let eids = members.iter().filter(|m| m.rel == rel);
            eids.map(|m| eid_of(&st.db, *m)).min().flatten()
        };
        let want: Vec<_> = members.iter().map(|m| smallest(m.rel)).collect();
        st.materialize_entities();
        let got: Vec<_> = members.iter().map(|m| eid_of(&st.db, *m)).collect();
        assert_eq!(got, want);

        // a same-relation merge rewrites eids, and eid writes keep the
        // column snapshot: the columnar image holds no eids
        let c = (1..40)
            .map(|i| GlobalTid::new(RelId(0), TupleId(i)))
            .find(|&c| eid_of(&st.db, c) != eid_of(&st.db, a))
            .unwrap();
        let merge = Proposal::Merge { a, b: c, rule: 0 };
        assert!(committer.commit(&mut st, &[merge], None).any_merge);
        let before = st.db.relation(RelId(0)).columns();
        st.materialize_entities();
        assert_eq!(eid_of(&st.db, a), eid_of(&st.db, c));
        assert!(
            std::sync::Arc::ptr_eq(&before, &st.db.relation(RelId(0)).columns()),
            "an eid write rebuilt the columns"
        );
    }
}
