//! Valuations and satisfaction semantics (paper §2.1 "Semantics", extended
//! in §2.2/§2.3), plus a valuation enumerator with the predicate-ordering
//! optimizer of §5.3.
//!
//! A valuation `h` instantiates each tuple variable with a tuple of its
//! bound relation and each vertex variable with a KG vertex. `h ⊨ p` is
//! defined per predicate kind; `h ⊨ X` iff all conjuncts hold; `h ⊨ φ` iff
//! `h ⊨ X ⇒ h ⊨ p0`; `D ⊨ φ` iff all valuations satisfy φ. A *violation*
//! is a valuation with `h ⊨ X` but `h ⊭ p0` (§4.2).

use crate::predicate::Predicate;
use crate::rule::Rule;
use rock_data::{
    AttrId, Bitset, ClassIndex, ColumnSet, Database, Eid, FxHashMap, GlobalTid, JoinIndex,
    ProjectionKeys, RelId, TupleId, Value,
};
use rock_kg::{Graph, VertexId};
use rock_ml::{BlockFilter, ModelRegistry};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// A (partial) valuation of a rule's variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Valuation {
    /// Tuple bound to each tuple variable (aligned with `rule.tuple_vars`).
    pub tuples: Vec<GlobalTid>,
    /// Vertex bound to each vertex variable (aligned with
    /// `rule.vertex_vars`).
    pub vertices: Vec<Option<VertexId>>,
}

impl Valuation {
    pub fn new(tuples: Vec<GlobalTid>, n_vertex: usize) -> Self {
        Valuation {
            tuples,
            vertices: vec![None; n_vertex],
        }
    }
}

/// Everything predicate evaluation needs.
pub struct EvalContext<'a> {
    pub db: &'a Database,
    pub graph: Option<&'a Graph>,
    pub models: &'a ModelRegistry,
    /// Temporal-order oracle: answers `t1 ⪯A t2` / `t1 ≺A t2` queries from
    /// validated orders. During plain detection this is backed by cell
    /// timestamps; during the chase it is the fix store's `[A]⪯`.
    pub temporal: Option<&'a dyn TemporalOracle>,
    /// Entity-identity oracle backing `t.eid = s.eid`: the chase's
    /// `[EID]=` classes. Without one, a tuple's class is its own
    /// `(relation, eid)`. The enumerator joins `t.eid = s.eid` on these
    /// classes (see [`EvalContext::with_columnar`]).
    pub entities: Option<&'a dyn EntityOracle>,
    /// Route unary constant/two-attribute prefilters through the columnar
    /// kernels ([`rock_data::ColumnSet::eval_const_op`]), equality joins
    /// through the snapshot's cached [`rock_data::ColumnSet::join_index`],
    /// join ML pair predicates on their block filters' accepted pairs and
    /// `t.eid = s.eid` on entity classes, and build discovery's pair
    /// bitsets from join groups and projection keys. Always on in
    /// production; see [`EvalContext::with_columnar`].
    pub columnar: bool,
    /// Whether ML pair predicates read their models' block filters: off
    /// for rule measures only (see [`EvalContext::without_block_filters`]).
    block_filters: bool,
}

/// Oracle for validated temporal orders (implemented by the chase's fix
/// store and, for detection, by timestamp-induced orders). `Sync` so
/// evaluation can run on Crystal worker threads.
pub trait TemporalOracle: Sync {
    /// Is `t1 ⪯A t2` (strict=false) or `t1 ≺A t2` (strict=true) validated?
    fn holds(
        &self,
        rel: rock_data::RelId,
        attr: rock_data::AttrId,
        t1: TupleId,
        t2: TupleId,
        strict: bool,
    ) -> bool;
}

/// Oracle for entity identity: maps a `(relation, eid)` key to its class,
/// a representative key; two keys denote the same validated real-world
/// entity iff their classes are equal. The chase backs this with its
/// `[EID]=` union–find root. Without an oracle a key is its own class, so
/// tuples of *different* relations are never the same entity.
pub trait EntityOracle: Sync {
    fn class(&self, key: (RelId, Eid)) -> (RelId, Eid);

    /// Every member of `class`, ascending by (relation, tuple), when the
    /// class unites more than one key. `None` says its members are the
    /// tuples whose own key is `class`: its relation's class index entry
    /// for its eid ([`rock_data::Relation::classes`]). An oracle may list
    /// such a class too.
    fn merged_members(&self, class: (RelId, Eid)) -> Option<&[GlobalTid]>;
}

/// Timestamp-backed oracle: `t1 ⪯A t2` iff both cells are stamped and
/// `T(t1[A]) ≤ T(t2[A])` (§2.2).
pub struct TimestampOracle<'a> {
    pub db: &'a Database,
}

impl TemporalOracle for TimestampOracle<'_> {
    fn holds(
        &self,
        rel: rock_data::RelId,
        attr: rock_data::AttrId,
        t1: TupleId,
        t2: TupleId,
        strict: bool,
    ) -> bool {
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

impl<'a> EvalContext<'a> {
    pub fn new(db: &'a Database, models: &'a ModelRegistry) -> Self {
        EvalContext {
            db,
            graph: None,
            models,
            temporal: None,
            entities: None,
            columnar: true,
            block_filters: true,
        }
    }

    /// This context with ML pair predicates decided by their models,
    /// whatever block filter is installed. Rule measures read it: a filter
    /// answers `false` for every pair its blocking pass did not score, so
    /// it is sound only for the database and rules that pass ran over,
    /// and a rule's support and confidence must not depend on which
    /// blocking pass ran last.
    pub(crate) fn without_block_filters(&self) -> EvalContext<'a> {
        EvalContext {
            db: self.db,
            graph: self.graph,
            models: self.models,
            temporal: self.temporal,
            entities: self.entities,
            columnar: self.columnar,
            block_filters: false,
        }
    }

    pub fn with_graph(mut self, g: &'a Graph) -> Self {
        self.graph = Some(g);
        self
    }

    pub fn with_temporal(mut self, t: &'a dyn TemporalOracle) -> Self {
        self.temporal = Some(t);
        self
    }

    /// Decide `t.eid = s.eid` by `e`'s classes.
    pub fn with_entities(mut self, e: &'a dyn EntityOracle) -> Self {
        self.entities = Some(e);
        self
    }

    /// The entity class of `(rel, eid)`: the oracle's, or the key itself.
    fn class(&self, rel: RelId, eid: Eid) -> (RelId, Eid) {
        match self.entities {
            Some(o) => o.class((rel, eid)),
            None => (rel, eid),
        }
    }

    /// Reference hook, not a user option: `false` answers every prefilter
    /// by scalar per-tuple evaluation, builds each join index per call
    /// from the rows ([`rock_data::Relation::index_on`]), decides ML
    /// predicates and `t.eid = s.eid` at the leaf only and fills
    /// discovery's predicate bitsets one valuation at a time
    /// ([`crate::measures::predicate_sat_bits`]) — what the reference chase
    /// and the columnar ≡ scalar tests compare the kernels, the cached
    /// indexes, the ML and entity joins and the bitset kernels against.
    pub fn with_columnar(mut self, columnar: bool) -> Self {
        self.columnar = columnar;
        self
    }

    fn tuple(&self, h: &Valuation, var: usize) -> &'a rock_data::Tuple {
        let gt = h.tuples[var];
        self.db
            .relation(gt.rel)
            .get(gt.tid)
            .unwrap_or_else(|| panic!("valuation references dead tuple {:?}", gt))
    }

    fn tuple_values(&self, h: &Valuation, var: usize, attrs: &[rock_data::AttrId]) -> Vec<Value> {
        self.tuple(h, var).project(attrs)
    }

    fn cell(&self, h: &Valuation, var: usize, attr: rock_data::AttrId) -> Value {
        let gt = h.tuples[var];
        self.db
            .relation(gt.rel)
            .get(gt.tid)
            .unwrap_or_else(|| panic!("valuation references dead tuple {:?}", gt))
            .get(attr)
            .clone()
    }

    /// `h ⊨ p`. `None` when the predicate cannot be decided (e.g. a vertex
    /// variable is unbound or no graph is attached) — treated as *not
    /// satisfied* by callers, per the ground-truth-gated chase semantics.
    pub fn eval_predicate(&self, h: &Valuation, p: &Predicate) -> Option<bool> {
        use Predicate::*;
        Some(match p {
            Const {
                var,
                attr,
                op,
                value,
            } => op.eval(&self.cell(h, *var, *attr), value),
            Attr {
                lvar,
                lattr,
                op,
                rvar,
                rattr,
            } => op.eval(&self.cell(h, *lvar, *lattr), &self.cell(h, *rvar, *rattr)),
            Ml {
                model,
                lvar,
                lattrs,
                rvar,
                rattrs,
            } => {
                let a = self.tuple_values(h, *lvar, lattrs);
                let b = self.tuple_values(h, *rvar, rattrs);
                if self.block_filters {
                    self.models.predict_pair(model.resolved(), &a, &b)
                } else {
                    self.models.infer_pair(model.resolved(), &a, &b)
                }
            }
            Temporal {
                lvar,
                rvar,
                attr,
                strict,
            } => {
                let oracle = self.temporal?;
                let (l, r) = (h.tuples[*lvar], h.tuples[*rvar]);
                oracle.holds(l.rel, *attr, l.tid, r.tid, *strict)
            }
            MlRank {
                model,
                lvar,
                rvar,
                attr,
                strict,
            } => {
                let a = &self.tuple(h, *lvar).values;
                let b = &self.tuple(h, *rvar).values;
                let conf = self.models.rank_confidence(model.resolved(), a, b);
                let _ = attr;
                // Margins keep ties (σ(0) = 0.5, e.g. identical tuples)
                // from asserting an order in either direction.
                if *strict {
                    conf > 0.6
                } else {
                    conf >= 0.55
                }
            }
            Her { model, tvar, xvar } => {
                let x = h.vertices[*xvar]?;
                let g = self.graph?;
                let m = self.models.her(model.resolved())?;
                // name attrs = first attr; context = rest (convention set by
                // the workloads; see rock-workloads::kg).
                let gt = h.tuples[*tvar];
                let rel = self.db.relation(gt.rel);
                let t = rel.get(gt.tid)?;
                let name = vec![t.get(rock_data::AttrId(1)).clone()];
                let ctx: Vec<Value> = t.values.iter().skip(2).cloned().collect();
                m.matches(g, x, &name, &ctx)
            }
            PathMatch { xvar, path, .. } => {
                let x = h.vertices[*xvar]?;
                path.has_match(self.graph?, x)
            }
            ValExtract {
                tvar,
                attr,
                xvar,
                path,
            } => {
                let x = h.vertices[*xvar]?;
                let extracted = path.val(self.graph?, x)?;
                self.cell(h, *tvar, *attr).sql_eq(&extracted)
            }
            CorrConst {
                model,
                var,
                evidence,
                target,
                value,
                delta,
            } => {
                let ev = self.tuple_values(h, *var, evidence);
                let _ = target;
                self.models
                    .correlation_strength(model.resolved(), &ev, value)
                    >= *delta
            }
            CorrAttr {
                model,
                var,
                evidence,
                target,
                delta,
            } => {
                let ev = self.tuple_values(h, *var, evidence);
                let cur = self.cell(h, *var, *target);
                if cur.is_null() {
                    return Some(false);
                }
                self.models
                    .correlation_strength(model.resolved(), &ev, &cur)
                    >= *delta
            }
            Predict {
                model,
                var,
                evidence,
                target,
            } => {
                let ev = self.tuple_values(h, *var, evidence);
                match self.models.predict_value(model.resolved(), &ev) {
                    Some(pred) => self.cell(h, *var, *target).sql_eq(&pred),
                    None => false,
                }
            }
            IsNull { var, attr } => self.cell(h, *var, *attr).is_null(),
            EidCmp { lvar, rvar, eq } => {
                let l = h.tuples[*lvar];
                let r = h.tuples[*rvar];
                let le = self.db.relation(l.rel).get(l.tid)?.eid;
                let re = self.db.relation(r.rel).get(r.tid)?.eid;
                let same = self.class(l.rel, le) == self.class(r.rel, re);
                if *eq {
                    same
                } else {
                    !same
                }
            }
        })
    }
}

/// Enumerate valuations of `rule` over the database, with cheap predicates
/// evaluated early and equality predicates used as hash joins (§5.3's local
/// query optimizer). Calls `on_valuation` for every valuation satisfying
/// the precondition; return `false` from the callback to stop early.
pub fn enumerate_valuations<F>(rule: &Rule, ctx: &EvalContext<'_>, on_valuation: F)
where
    F: FnMut(&Valuation) -> bool,
{
    let sets: Vec<CandidateSet> = (0..rule.tuple_vars.len())
        .map(|v| CandidateSet::of(rule, ctx, v))
        .collect();
    enumerate_candidates(
        rule,
        ctx,
        sets.iter().map(CandidateSet::all).collect(),
        on_valuation,
    );
}

/// One rule variable's live tuples that pass its unary prefilters, as an
/// ascending list and as a slot mask. A scan plan builds each once per
/// (rule, variable) and every work unit borrows it.
pub struct CandidateSet {
    tids: Vec<TupleId>,
    mask: Bitset,
}

impl CandidateSet {
    /// The live tuples of `rule`'s variable `v` that pass its unary
    /// prefilters.
    pub fn of(rule: &Rule, ctx: &EvalContext<'_>, v: usize) -> CandidateSet {
        let (mut mask, scalar) = unary_prefilter_mask(rule, ctx, v);
        let mut tids: Vec<TupleId> = mask.ones().map(|i| TupleId(i as u32)).collect();
        if !scalar.is_empty() {
            let (rel, nvars) = (rule.rel_of(v), rule.tuple_vars.len());
            tids.retain(|tid| {
                let h = single_var_valuation(rule, v, GlobalTid::new(rel, *tid), nvars);
                scalar
                    .iter()
                    .all(|p| ctx.eval_predicate(&h, p) == Some(true))
            });
            mask = Bitset::new(mask.len());
            for t in &tids {
                mask.set(t.index());
            }
        }
        CandidateSet { tids, mask }
    }

    /// This set without the ascending `skip` tuples.
    pub fn without(&self, skip: &[TupleId]) -> CandidateSet {
        let mut out = CandidateSet {
            tids: self.tids.clone(),
            mask: self.mask.clone(),
        };
        out.tids.retain(outside(skip));
        let slots = out.mask.len();
        for t in skip.iter().filter(|t| t.index() < slots) {
            out.mask.unset(t.index());
        }
        out
    }

    /// Every tuple of the set.
    pub fn all(&self) -> Candidates<'_> {
        self.range(0..self.mask.len() as u32)
    }

    /// The set's tuples in the slot range `slots`.
    pub fn range(&self, slots: Range<u32>) -> Candidates<'_> {
        let lo = self.tids.partition_point(|t| t.0 < slots.start);
        let hi = self.tids.partition_point(|t| t.0 < slots.end);
        Candidates {
            tids: Cow::Borrowed(&self.tids[lo..hi]),
            member: Some((&self.mask, slots.start as usize..slots.end as usize)),
        }
    }

    /// The ascending `list`'s tuples that are in the set.
    pub fn restrict(&self, list: &[TupleId]) -> Candidates<'static> {
        let mask = &self.mask;
        let held = |t: &&TupleId| t.index() < mask.len() && mask.get(t.index());
        Candidates::listed(list.iter().filter(held).copied().collect())
    }
}

/// The tuples one variable may bind in one enumeration: an ascending list
/// and the membership test join probes filter their hits with.
pub struct Candidates<'s> {
    tids: Cow<'s, [TupleId]>,
    /// A shared set's mask and the slot range the list covers; `None`
    /// tests the list itself.
    member: Option<(&'s Bitset, Range<usize>)>,
}

impl Candidates<'_> {
    /// An ascending list, tested by search: for short lists of pinned
    /// tuples, which are not worth a mask.
    fn listed(tids: Vec<TupleId>) -> Candidates<'static> {
        Candidates {
            tids: Cow::Owned(tids),
            member: None,
        }
    }

    fn contains(&self, t: TupleId) -> bool {
        match &self.member {
            Some((mask, slots)) => slots.contains(&t.index()) && mask.get(t.index()),
            None => self.tids.binary_search(&t).is_ok(),
        }
    }
}

/// A filter for an ascending tid sequence that keeps the tuples the
/// ascending `skip` list does not hold, in one merge pass.
pub(crate) fn outside(skip: &[TupleId]) -> impl FnMut(&TupleId) -> bool + '_ {
    let mut skip = skip.iter().peekable();
    move |t| {
        while skip.next_if(|s| *s < t).is_some() {}
        skip.peek() != Some(&t)
    }
}

/// Cheap single-variable predicate prefilter shared by all enumeration
/// entry points — ML predicates wait for memo/blocking, and
/// vertex-dependent predicates (match/val) wait for vertex binding.
///
/// With `ctx.columnar` set, constant / two-attribute / null predicates are
/// answered by the vectorized kernels: one satisfaction [`rock_data::Bitset`]
/// per predicate, ANDed into the snapshot's live bitmap (a `TupleId`
/// indexes the columnar slots directly — ids are stable across deletions
/// on both sides). Predicates the kernels cannot answer fall back to the
/// per-tuple scalar path; the two paths agree exactly because they share
/// [`rock_data::PredOp::eval`].
///
/// Returns the slots of `v`'s live tuples that pass every unary predicate
/// the kernels answer, and the unary predicates left to the per-tuple
/// path (all of them on the scalar reference path).
fn unary_prefilter_mask<'r>(
    rule: &'r Rule,
    ctx: &EvalContext<'_>,
    v: usize,
) -> (Bitset, Vec<&'r Predicate>) {
    let rel = ctx.db.relation(rule.rel_of(v));
    let unary = rule
        .precondition
        .iter()
        .filter(|p| p.tuple_vars() == [v] && !p.is_ml() && p.vertex_vars().is_empty());
    if !ctx.columnar {
        let mut live = Bitset::new(rel.capacity());
        for t in rel.tids() {
            live.set(t.index());
        }
        return (live, unary.collect());
    }
    let cols = rel.columns();
    let mut mask = cols.live().clone();
    let mut scalar = Vec::new();
    for p in unary {
        match columnar_prefilter_mask(&cols, p) {
            Some(m) => mask.intersect_with(&m),
            None => scalar.push(p),
        }
    }
    (mask, scalar)
}

/// Kernel-answerable unary predicates: `t.A ⊕ c`, `t.A ⊕ t.B`, `null(t.A)`.
/// Returns `None` for anything else (the caller falls back to scalar eval).
pub(crate) fn columnar_prefilter_mask(
    cols: &rock_data::ColumnSet,
    p: &Predicate,
) -> Option<rock_data::Bitset> {
    match p {
        Predicate::Const {
            attr, op, value, ..
        } => Some(cols.eval_const_op(*attr, op.kernel(), value)),
        // tuple_vars() == [v] already implies lvar == rvar here
        Predicate::Attr {
            lattr, op, rattr, ..
        } => Some(cols.eval_col_op_col(*lattr, op.kernel(), *rattr)),
        Predicate::IsNull { attr, .. } => Some(cols.null_mask(*attr)),
        _ => None,
    }
}

/// The equality predicates between two variables, with the hash side of
/// each joined `(variable, attribute)`, the entity joins with the class
/// index of each entity-joined variable, and the ML joins. An index spans
/// every live tuple of the relation; probes keep only the hits that are
/// candidates.
struct Joins<'s> {
    preds: Vec<(usize, AttrId, usize, AttrId)>,
    indexes: FxHashMap<(usize, AttrId), Cow<'s, JoinIndex>>,
    /// `t.eid = s.eid` between two variables: once one side is bound, the
    /// other narrows to its relation's tuples in the bound tuple's class —
    /// the oracle's merged members, or the relation's [`ClassIndex`].
    eids: Vec<(usize, usize)>,
    classes: FxHashMap<usize, Arc<ClassIndex>>,
    ml: Vec<MlJoin>,
}

/// An ML pair predicate `M(t[Ā], s[B̄])` over two variables whose model
/// has a block filter, joined on the filter's accepted key pairs. Every
/// pair the filter does not accept is answered `false` by
/// `predict_pair`, so once one side is bound, the other side's
/// candidates narrow to the tuples whose current key is accepted with the
/// bound key. The leaf still evaluates the predicate.
struct MlJoin {
    /// The left and the right variable.
    vars: [usize; 2],
    /// Each side's projection keys, over the snapshot the joins read.
    keys: [Arc<ProjectionKeys>; 2],
    filter: Arc<BlockFilter>,
}

impl MlJoin {
    /// The ML joins of `rule`: none on the scalar reference path, nor
    /// where block filters are not read.
    fn of(rule: &Rule, ctx: &EvalContext<'_>) -> Vec<MlJoin> {
        if !ctx.columnar || !ctx.block_filters {
            return Vec::new();
        }
        rule.precondition
            .iter()
            .filter_map(|p| {
                let Predicate::Ml {
                    model,
                    lvar,
                    lattrs,
                    rvar,
                    rattrs,
                } = p
                else {
                    return None;
                };
                if lvar == rvar {
                    return None;
                }
                let filter = ctx.models.block_filter(model.id?)?;
                let keys = |v: usize, attrs: &[AttrId]| {
                    ctx.db
                        .relation(rule.rel_of(v))
                        .columns()
                        .projection_keys(attrs)
                };
                Some(MlJoin {
                    vars: [*lvar, *rvar],
                    keys: [keys(*lvar, lattrs), keys(*rvar, rattrs)],
                    filter,
                })
            })
            .collect()
    }
}

/// The shared enumeration core: greedy variable ordering, hash-join
/// narrowing on equality predicates, on `t.eid = s.eid` and on ML
/// predicates with a block filter, and recursive binding with full
/// verification at the leaves. `candidates` holds each tuple variable's.
pub fn enumerate_candidates<F>(
    rule: &Rule,
    ctx: &EvalContext<'_>,
    candidates: Vec<Candidates<'_>>,
    mut on_valuation: F,
) where
    F: FnMut(&Valuation) -> bool,
{
    let nvars = rule.tuple_vars.len();
    // 2. variable order: smallest candidate list first (greedy).
    let mut order: Vec<usize> = (0..nvars).collect();
    order.sort_by_key(|&v| candidates[v].tids.len());

    // 3. binary equality predicates for hash-join binding.
    let preds: Vec<(usize, AttrId, usize, AttrId)> = rule
        .precondition
        .iter()
        .filter_map(|p| match p {
            Predicate::Attr {
                lvar,
                lattr,
                op: crate::op::CmpOp::Eq,
                rvar,
                rattr,
            } if lvar != rvar => Some((*lvar, *lattr, *rvar, *rattr)),
            _ => None,
        })
        .collect();

    // entity joins: the scalar reference path decides them at the leaf
    let eids: Vec<(usize, usize)> = rule
        .precondition
        .iter()
        .filter_map(|p| match p {
            Predicate::EidCmp {
                lvar,
                rvar,
                eq: true,
            } if ctx.columnar && lvar != rvar => Some((*lvar, *rvar)),
            _ => None,
        })
        .collect();
    let classes = eids
        .iter()
        .flat_map(|&(lv, rv)| [lv, rv])
        .map(|v| (v, ctx.db.relation(rule.rel_of(v)).classes()))
        .collect();

    let ml = MlJoin::of(rule, ctx);

    // The hash sides: the snapshot's cached indexes in production, built
    // at most once per snapshot and shared by every caller; a per-call
    // build from the rows on the scalar reference path.
    let mut snapshots: Vec<Option<Arc<ColumnSet>>> = vec![None; nvars];
    let joined = || {
        preds
            .iter()
            .flat_map(|&(lv, la, rv, ra)| [(lv, la), (rv, ra)])
    };
    if ctx.columnar {
        for (v, _) in joined() {
            snapshots[v].get_or_insert_with(|| ctx.db.relation(rule.rel_of(v)).columns());
        }
    }
    let mut indexes: FxHashMap<(usize, AttrId), Cow<'_, JoinIndex>> = FxHashMap::default();
    for (v, a) in joined() {
        indexes
            .entry((v, a))
            .or_insert_with(|| match &snapshots[v] {
                Some(cols) => Cow::Borrowed(cols.join_index(a)),
                None => Cow::Owned(ctx.db.relation(rule.rel_of(v)).index_on(a)),
            });
    }
    let joins = Joins {
        preds,
        indexes,
        eids,
        classes,
        ml,
    };

    // 4. ordered precondition for final verification (cheap first).
    let mut ordered_preds: Vec<&Predicate> = rule.precondition.iter().collect();
    ordered_preds.sort_by_key(|p| p.cost_rank());

    // 5. recursive binding.
    let mut h = Valuation::new(
        vec![GlobalTid::new(rock_data::RelId(0), TupleId(0)); nvars],
        rule.vertex_vars.len(),
    );
    let mut bound = vec![false; nvars];
    bind_next(
        rule,
        ctx,
        &order,
        0,
        &candidates,
        &joins,
        &ordered_preds,
        &mut h,
        &mut bound,
        &mut on_valuation,
    );
}

fn single_var_valuation(rule: &Rule, v: usize, gt: GlobalTid, nvars: usize) -> Valuation {
    let mut tuples = vec![GlobalTid::new(rock_data::RelId(0), TupleId(0)); nvars];
    tuples[v] = gt;
    Valuation::new(tuples, rule.vertex_vars.len())
}

#[allow(clippy::too_many_arguments)]
fn bind_next<F>(
    rule: &Rule,
    ctx: &EvalContext<'_>,
    order: &[usize],
    depth: usize,
    candidates: &[Candidates<'_>],
    joins: &Joins<'_>,
    ordered_preds: &[&Predicate],
    h: &mut Valuation,
    bound: &mut [bool],
    on_valuation: &mut F,
) -> bool
where
    F: FnMut(&Valuation) -> bool,
{
    if depth == order.len() {
        // bind vertex variables via HER alignment, then verify everything.
        if !bind_vertices(rule, ctx, h) {
            return true; // no vertex binding: precondition unsatisfied, keep going
        }
        let ok = ordered_preds
            .iter()
            .all(|p| ctx.eval_predicate(h, p) == Some(true));
        if ok {
            return on_valuation(h);
        }
        return true;
    }
    let v = order[depth];
    // Try to narrow candidates via an equality predicate to a bound var.
    let mut narrowed: Option<Vec<TupleId>> = None;
    for &(lv, la, rv, ra) in &joins.preds {
        let (this_attr, other, other_attr) = if lv == v && bound[rv] {
            (la, rv, ra)
        } else if rv == v && bound[lv] {
            (ra, lv, la)
        } else {
            continue;
        };
        let other_val = {
            let gt = h.tuples[other];
            ctx.db
                .relation(gt.rel)
                .get(gt.tid)
                .map(|t| t.get(other_attr).clone())
        };
        let Some(val) = other_val else { continue };
        if val.is_null() {
            return true; // equality with null can never hold
        }
        let hits = joins.indexes[&(v, this_attr)]
            .get(&val)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        narrow(&mut narrowed, hits, &candidates[v]);
    }
    for &(lv, rv) in &joins.eids {
        let other = if lv == v && bound[rv] {
            rv
        } else if rv == v && bound[lv] {
            lv
        } else {
            continue;
        };
        let gt = h.tuples[other];
        let Some(t) = ctx.db.relation(gt.rel).get(gt.tid) else {
            continue;
        };
        let class = ctx.class(gt.rel, t.eid);
        let rel = rule.rel_of(v);
        let cands = &candidates[v];
        match ctx.entities.and_then(|o| o.merged_members(class)) {
            Some(members) => {
                let lo = members.partition_point(|m| m.rel < rel);
                let hi = members.partition_point(|m| m.rel <= rel);
                let hits = members[lo..hi].iter().map(|m| m.tid);
                narrow_ascending(&mut narrowed, hits, cands);
            }
            None if class.0 == rel => {
                narrow_ascending(&mut narrowed, joins.classes[&v].members(class.1), cands);
            }
            None => narrow_ascending(&mut narrowed, std::iter::empty(), cands),
        }
    }
    for j in &joins.ml {
        // `side` is v's side of the pair, `1 - side` the bound one
        let side = match j.vars {
            [l, r] if l == v && bound[r] => 0,
            [l, r] if r == v && bound[l] => 1,
            _ => continue,
        };
        let bound_key = j.keys[1 - side].key(h.tuples[j.vars[1 - side]].tid);
        let keys = &j.keys[side];
        let accepts = |t: &TupleId| match side {
            0 => j.filter.accepts(keys.key(*t), bound_key),
            _ => j.filter.accepts(bound_key, keys.key(*t)),
        };
        match &mut narrowed {
            // an equality join bounded the list: probe each hit's pair
            Some(cur) => cur.retain(accepts),
            // the accepted partner keys' tuples; partner keys are
            // distinct, so their tuple lists are disjoint
            None => {
                let cands = &candidates[v];
                let mut hits: Vec<TupleId> = j
                    .filter
                    .partners(bound_key, side == 1)
                    .iter()
                    .flat_map(|k| keys.tids(*k))
                    .copied()
                    .filter(|t| cands.contains(*t))
                    .collect();
                hits.sort_unstable();
                narrowed = Some(hits);
            }
        }
    }
    let list = narrowed.as_deref().unwrap_or(&candidates[v].tids);
    for &tid in list {
        h.tuples[v] = GlobalTid::new(rule.rel_of(v), tid);
        bound[v] = true;
        let cont = bind_next(
            rule,
            ctx,
            order,
            depth + 1,
            candidates,
            joins,
            ordered_preds,
            h,
            bound,
            on_valuation,
        );
        bound[v] = false;
        if !cont {
            return false;
        }
    }
    true
}

/// Narrow a variable's list to the ascending join `hits`: the hits that
/// are candidates, or the current list's members that are hits.
fn narrow(narrowed: &mut Option<Vec<TupleId>>, hits: &[TupleId], candidates: &Candidates<'_>) {
    match narrowed {
        None => {
            *narrowed = Some(
                hits.iter()
                    .copied()
                    .filter(|t| candidates.contains(*t))
                    .collect(),
            );
        }
        // `cur` holds candidates only, and both lists ascend
        Some(cur) => cur.retain(|t| hits.binary_search(t).is_ok()),
    }
}

/// [`narrow`] to hits that arrive as an ascending sequence: an entity
/// class's members, short enough to merge against.
fn narrow_ascending(
    narrowed: &mut Option<Vec<TupleId>>,
    hits: impl Iterator<Item = TupleId>,
    candidates: &Candidates<'_>,
) {
    match narrowed {
        None => *narrowed = Some(hits.filter(|t| candidates.contains(*t)).collect()),
        Some(cur) => {
            let mut hits = hits.peekable();
            cur.retain(|t| {
                while hits.next_if(|h| h < t).is_some() {}
                hits.peek() == Some(t)
            });
        }
    }
}

/// Bind vertex variables. Every vertex variable must be constrained by at
/// least one `HER` predicate (the paper's extraction rules always pair
/// `vertex(x, G)` with `HER(t, x)`); we bind `x` to the best-aligned vertex
/// for the corresponding tuple. Returns false when some variable cannot be
/// bound.
fn bind_vertices(rule: &Rule, ctx: &EvalContext<'_>, h: &mut Valuation) -> bool {
    if rule.vertex_vars.is_empty() {
        return true;
    }
    let Some(g) = ctx.graph else { return false };
    for xvar in 0..rule.vertex_vars.len() {
        let her = rule.precondition.iter().find_map(|p| match p {
            Predicate::Her {
                model,
                tvar,
                xvar: xv,
            } if *xv == xvar => Some((model, *tvar)),
            _ => None,
        });
        let Some((model, tvar)) = her else {
            return false;
        };
        let Some(m) = ctx.models.her(model.resolved()) else {
            return false;
        };
        let gt = h.tuples[tvar];
        let rel = ctx.db.relation(gt.rel);
        let Some(t) = rel.get(gt.tid) else {
            return false;
        };
        let name = vec![t.get(rock_data::AttrId(1)).clone()];
        let ctx_vals: Vec<Value> = t.values.iter().skip(2).cloned().collect();
        match m.align(g, &name, &ctx_vals) {
            Some((v, _)) => h.vertices[xvar] = Some(v),
            None => return false,
        }
    }
    true
}

/// All violations of `rule` in the database: valuations with `h ⊨ X` but
/// `h ⊭ p0` (§4.2). Trivial valuations binding two variables of the same
/// relation to the same tuple are skipped for inequality-flavoured
/// consequences only when they would be vacuous (`t` and `t` always agree).
pub fn find_violations(rule: &Rule, ctx: &EvalContext<'_>) -> Vec<Valuation> {
    let mut out = Vec::new();
    enumerate_valuations(rule, ctx, |h| {
        if distinct_ok(rule, h) && ctx.eval_predicate(h, &rule.consequence) != Some(true) {
            out.push(h.clone());
        }
        true
    });
    out
}

/// Skip degenerate valuations that bind two *distinct variables over the
/// same relation* to the *same tuple* — those are vacuous for every rule in
/// the paper (φ over (t, s) compares a tuple with itself).
pub fn distinct_ok(rule: &Rule, h: &Valuation) -> bool {
    for i in 0..h.tuples.len() {
        for j in (i + 1)..h.tuples.len() {
            if rule.rel_of(i) == rule.rel_of(j) && h.tuples[i] == h.tuples[j] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CmpOp;
    use crate::predicate::ModelRef;
    use rock_data::{AttrId, AttrType, DatabaseSchema, RelId, RelationSchema};
    use rock_ml::pair::NgramPairModel;
    use std::sync::Arc;

    /// All satisfying valuations (X ∧ p0).
    fn find_satisfying(rule: &Rule, ctx: &EvalContext<'_>) -> Vec<Valuation> {
        let mut out = Vec::new();
        enumerate_valuations(rule, ctx, |h| {
            if distinct_ok(rule, h) && ctx.eval_predicate(h, &rule.consequence) == Some(true) {
                out.push(h.clone());
            }
            true
        });
        out
    }

    fn trans_db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "Trans",
            &[
                ("pid", AttrType::Str),
                ("com", AttrType::Str),
                ("mfg", AttrType::Str),
            ],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        r.insert_row(vec![
            Value::str("p1"),
            Value::str("IPhone 14"),
            Value::str("Apple"),
        ])
        .unwrap();
        r.insert_row(vec![
            Value::str("p2"),
            Value::str("IPhone 14"),
            Value::str("Apple"),
        ])
        .unwrap();
        r.insert_row(vec![
            Value::str("p3"),
            Value::str("Mate X2"),
            Value::str("Huawei"),
        ])
        .unwrap();
        // violation of φ2: same commodity, different manufactory
        r.insert_row(vec![
            Value::str("p4"),
            Value::str("Mate X2"),
            Value::str("Apple"),
        ])
        .unwrap();
        db
    }

    fn phi2() -> Rule {
        Rule::new(
            "phi2",
            vec![("t".into(), RelId(0)), ("s".into(), RelId(0))],
            vec![],
            vec![Predicate::Attr {
                lvar: 0,
                lattr: AttrId(1),
                op: CmpOp::Eq,
                rvar: 1,
                rattr: AttrId(1),
            }],
            Predicate::Attr {
                lvar: 0,
                lattr: AttrId(2),
                op: CmpOp::Eq,
                rvar: 1,
                rattr: AttrId(2),
            },
        )
    }

    #[test]
    fn finds_phi2_violations() {
        let db = trans_db();
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        let viol = find_violations(&phi2(), &ctx);
        // (t2, t3) and (t3, t2): Mate X2 sold by Huawei and Apple
        assert_eq!(viol.len(), 2);
        for v in &viol {
            let tids: Vec<u32> = v.tuples.iter().map(|g| g.tid.0).collect();
            assert!(tids.contains(&2) && tids.contains(&3));
        }
    }

    #[test]
    fn finds_satisfying_valuations() {
        let db = trans_db();
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        let sats = find_satisfying(&phi2(), &ctx);
        // (t0, t1) and (t1, t0): IPhone 14 / Apple consistent
        assert_eq!(sats.len(), 2);
    }

    #[test]
    fn self_join_same_tuple_skipped() {
        let db = trans_db();
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        let mut count = 0;
        enumerate_valuations(&phi2(), &ctx, |h| {
            if distinct_ok(&phi2(), h) {
                count += 1;
            }
            true
        });
        // 2 matching pairs in each direction (iphone pair + mate pair)
        assert_eq!(count, 4);
    }

    #[test]
    fn ml_predicate_in_precondition() {
        // φ1-style: MER(t.com, s.com) && t.pid != s.pid -> eid eq (just
        // check precondition enumeration works with ML + registry).
        let db = trans_db();
        let reg = ModelRegistry::new();
        reg.register_pair("MER", Arc::new(NgramPairModel::with_threshold(0.8)));
        let mut rule = Rule::new(
            "phi1",
            vec![("t".into(), RelId(0)), ("s".into(), RelId(0))],
            vec![],
            vec![Predicate::Ml {
                model: ModelRef::named("MER"),
                lvar: 0,
                lattrs: vec![AttrId(1)],
                rvar: 1,
                rattrs: vec![AttrId(1)],
            }],
            Predicate::EidCmp {
                lvar: 0,
                rvar: 1,
                eq: true,
            },
        );
        rule.resolve(&reg).unwrap();
        let ctx = EvalContext::new(&db, &reg);
        let viol = find_violations(&rule, &ctx);
        // identical commodity text pairs have distinct EIDs: 4 violations
        // (iphone pair ×2 directions, mate pair ×2).
        assert_eq!(viol.len(), 4);
    }

    #[test]
    fn constant_predicate_prefilters() {
        let db = trans_db();
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        let rule = Rule::new(
            "const",
            vec![("t".into(), RelId(0))],
            vec![],
            vec![Predicate::Const {
                var: 0,
                attr: AttrId(2),
                op: CmpOp::Eq,
                value: Value::str("Huawei"),
            }],
            Predicate::Const {
                var: 0,
                attr: AttrId(1),
                op: CmpOp::Eq,
                value: Value::str("Mate X2"),
            },
        );
        assert!(find_violations(&rule, &ctx).is_empty());
        assert_eq!(find_satisfying(&rule, &ctx).len(), 1);
    }

    #[test]
    fn temporal_predicate_uses_oracle() {
        let mut db = trans_db();
        let r = db.relation_mut(RelId(0));
        r.set_timestamp(TupleId(0), AttrId(2), rock_data::Timestamp(10));
        r.set_timestamp(TupleId(1), AttrId(2), rock_data::Timestamp(20));
        let reg = ModelRegistry::new();
        let oracle = TimestampOracle { db: &db };
        let ctx = EvalContext::new(&db, &reg).with_temporal(&oracle);
        let rule = Rule::new(
            "td",
            vec![("t".into(), RelId(0)), ("s".into(), RelId(0))],
            vec![],
            vec![Predicate::Temporal {
                lvar: 0,
                rvar: 1,
                attr: AttrId(2),
                strict: true,
            }],
            Predicate::EidCmp {
                lvar: 0,
                rvar: 1,
                eq: true,
            },
        );
        let mut found = Vec::new();
        enumerate_valuations(&rule, &ctx, |h| {
            found.push(h.clone());
            true
        });
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].tuples[0].tid, TupleId(0));
        assert_eq!(found[0].tuples[1].tid, TupleId(1));
    }

    use rock_data::TupleId;

    #[test]
    fn four_variable_cross_table_rule() {
        // φ10 (paper Example 4): Trans(t) ∧ Trans(t') ∧ Store(s) ∧
        // Store(s') ∧ t.sid = s.sid ∧ t'.sid = s'.sid ∧
        // Mlimited(t[com], t'[com]) → s.type = s'.type
        use rock_ml::pair::NgramPairModel;
        let schema = DatabaseSchema::new(vec![
            RelationSchema::of("Trans", &[("sid", AttrType::Str), ("com", AttrType::Str)]),
            RelationSchema::of("Store", &[("sid", AttrType::Str), ("type", AttrType::Str)]),
        ]);
        let mut db = Database::new(&schema);
        {
            let tr = db.relation_mut(RelId(0));
            tr.insert_row(vec![Value::str("s1"), Value::str("Mate X2 (Limited Sold)")])
                .unwrap();
            tr.insert_row(vec![Value::str("s2"), Value::str("Mate X2 (Limited Sold)")])
                .unwrap();
            tr.insert_row(vec![Value::str("s1"), Value::str("ordinary socks")])
                .unwrap();
        }
        {
            let st = db.relation_mut(RelId(1));
            st.insert_row(vec![Value::str("s1"), Value::str("Electron.")])
                .unwrap();
            st.insert_row(vec![Value::str("s2"), Value::str("Sports")])
                .unwrap(); // type conflict
        }
        let reg = ModelRegistry::new();
        reg.register_pair("Mlimited", Arc::new(NgramPairModel::with_threshold(0.9)));
        let mut rule = crate::parse_rule(
            "rule phi10: Trans(t) && Trans(u) && Store(s) && Store(v) && t.sid = s.sid && u.sid = v.sid && ml:Mlimited(t[com], u[com]) -> s.type = v.type",
            &schema,
        )
        .unwrap();
        rule.resolve(&reg).unwrap();
        let ctx = EvalContext::new(&db, &reg);
        let violations = find_violations(&rule, &ctx);
        // the limited commodity sold at s1 and s2 exposes the type conflict
        // (both orientations of the two Trans rows)
        assert_eq!(violations.len(), 2, "{violations:?}");
        for v in &violations {
            let stores: Vec<u32> = v.tuples[2..].iter().map(|g| g.tid.0).collect();
            assert!(stores.contains(&0) && stores.contains(&1));
        }
    }

    /// Payment / Company / Branch with small value domains, so joins hit:
    /// null join keys, cells whose type disagrees with the column, and
    /// tombstones.
    fn seeded_join_db(seed: u64) -> Database {
        use rock_data::rng::StdRng;
        let schema = DatabaseSchema::new(vec![
            RelationSchema::of(
                "Payment",
                &[
                    ("aid", AttrType::Str),
                    ("amount", AttrType::Int),
                    ("fee", AttrType::Float),
                    ("total", AttrType::Int),
                ],
            ),
            RelationSchema::of(
                "Company",
                &[("city", AttrType::Str), ("area_code", AttrType::Str)],
            ),
            RelationSchema::of(
                "Branch",
                &[("city", AttrType::Str), ("area_code", AttrType::Str)],
            ),
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new(&schema);
        for i in 0..48 {
            let roll = rng.gen_range(0..16u32);
            let aid = match (i, rng.gen_range(0..8u32)) {
                (0, _) | (_, 0) => Value::Null,
                (_, k) => Value::str(format!("a{}", k % 3)),
            };
            let amount = match roll {
                0 | 1 => Value::Null,
                2 => Value::str("n/a"),
                _ => Value::Int(rng.gen_range(0..3i64)),
            };
            let fee = match roll {
                3 => Value::Null,
                4 => Value::Int(1),
                _ => Value::Float(if rng.gen_range(0..2u32) == 0 {
                    0.5
                } else {
                    1.0
                }),
            };
            let total = Value::Int(rng.gen_range(0..4i64));
            db.relation_mut(RelId(0))
                .insert_row(vec![aid, amount, fee, total])
                .unwrap();
        }
        for (rel, n) in [(RelId(1), 16), (RelId(2), 6)] {
            for i in 0..n {
                let city = match (i, rng.gen_range(0..6u32)) {
                    (0, _) | (_, 0) => Value::Null,
                    (_, k) => Value::str(format!("c{}", k % 3)),
                };
                let code = Value::str(format!("0{}", rng.gen_range(0..3u32)));
                db.relation_mut(rel).insert_row(vec![city, code]).unwrap();
            }
        }
        for tid in (3..48).step_by(7) {
            db.relation_mut(RelId(0)).delete(TupleId(tid));
        }
        db.relation_mut(RelId(1)).delete(TupleId(5));
        db
    }

    /// Every valuation the enumerator calls back with, in call order, with
    /// variable `pinned.0` (if any) restricted to the tuples `pinned.1`.
    fn visit_sequence(
        rule: &Rule,
        db: &Database,
        columnar: bool,
        pinned: Option<(usize, &[TupleId])>,
    ) -> Vec<Vec<GlobalTid>> {
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(db, &reg).with_columnar(columnar);
        let sets: Vec<CandidateSet> = (0..rule.tuple_vars.len())
            .map(|v| CandidateSet::of(rule, &ctx, v))
            .collect();
        let candidates = (0..sets.len())
            .map(|v| match pinned {
                Some((var, list)) if var == v => sets[v].restrict(list),
                _ => sets[v].all(),
            })
            .collect();
        let mut seen = Vec::new();
        enumerate_candidates(rule, &ctx, candidates, |h| {
            seen.push(h.tuples.clone());
            true
        });
        seen
    }

    #[test]
    fn columnar_and_scalar_joins_visit_valuations_in_one_order() {
        let rules = [
            "rule tpa_null: Payment(t) && Payment(s) && t.aid = s.aid && t.amount = s.amount && t.fee = s.fee -> t.total = s.total",
            "rule cic_area: Company(t) && Branch(b) && t.city = b.city -> t.area_code = b.area_code",
        ];
        for seed in 0..8 {
            let db = seeded_join_db(seed);
            for text in rules {
                let rule = crate::parse_rule(text, &db.schema()).unwrap();
                let full = visit_sequence(&rule, &db, true, None);
                assert!(!full.is_empty(), "seed {seed}: {text}");
                assert_eq!(
                    full,
                    visit_sequence(&rule, &db, false, None),
                    "seed {seed}: {text}"
                );
                // pin each variable to every other tid, live or dead: the
                // same order, and exactly the full run's valuations that
                // bind a pinned tuple
                for var in 0..2 {
                    let rel = db.relation(rule.rel_of(var));
                    let pinned: Vec<TupleId> =
                        (0..rel.capacity() as u32).step_by(2).map(TupleId).collect();
                    let pin = Some((var, pinned.as_slice()));
                    let restricted = visit_sequence(&rule, &db, true, pin);
                    assert_eq!(
                        restricted,
                        visit_sequence(&rule, &db, false, pin),
                        "seed {seed} var {var}: {text}"
                    );
                    let mut expected: Vec<_> = full
                        .iter()
                        .filter(|h| pinned.contains(&h[var].tid))
                        .cloned()
                        .collect();
                    let mut got = restricted;
                    expected.sort();
                    got.sort();
                    assert_eq!(got, expected, "seed {seed} var {var}: {text}");
                    assert!(got.len() < full.len(), "seed {seed}: a strict subset");
                }
            }
        }
    }

    #[test]
    fn correlation_and_predict_predicates() {
        use rock_ml::correlation::{CorrelationModel, ValuePredictor};
        // city -> area_code correlation from clean rows
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "Store",
            &[("city", AttrType::Str), ("area_code", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        {
            let r = db.relation_mut(RelId(0));
            r.insert_row(vec![Value::str("Beijing"), Value::str("010")])
                .unwrap();
            r.insert_row(vec![Value::str("Beijing"), Value::str("999")])
                .unwrap(); // wrong
            r.insert_row(vec![Value::str("Beijing"), Value::Null])
                .unwrap(); // missing
        }
        let rows = vec![
            (vec![Value::str("Beijing")], Value::str("010")),
            (vec![Value::str("Beijing")], Value::str("010")),
            (vec![Value::str("Shanghai")], Value::str("021")),
        ];
        let reg = ModelRegistry::new();
        let mc = reg.register_correlation("Mc", Arc::new(CorrelationModel::train(&rows)));
        let md = reg.register_predictor(
            "Md",
            Arc::new(ValuePredictor::new(CorrelationModel::train(&rows), 0.3)),
        );
        let ctx = EvalContext::new(&db, &reg);
        let mk = |var: usize, p: Predicate| -> (Rule, Valuation) {
            let mut rule = Rule::new("r", vec![("t".into(), RelId(0))], vec![], vec![], p);
            rule.resolve(&reg).unwrap();
            let h = Valuation::new(
                vec![rock_data::GlobalTid::new(RelId(0), TupleId(var as u32))],
                0,
            );
            (rule, h)
        };
        // CorrConst: Mc(t[city], t.area_code='010') >= 0.5 holds
        let mut corr = Predicate::CorrConst {
            model: ModelRef::named("Mc"),
            var: 0,
            evidence: vec![AttrId(0)],
            target: AttrId(1),
            value: Value::str("010"),
            delta: 0.5,
        };
        let (rule, h) = mk(0, corr.clone());
        assert_eq!(ctx.eval_predicate(&h, &rule.consequence), Some(true));
        // a far-fetched constant fails the threshold
        if let Predicate::CorrConst { value, .. } = &mut corr {
            *value = Value::str("000");
        }
        let (rule, h) = mk(0, corr);
        assert_eq!(ctx.eval_predicate(&h, &rule.consequence), Some(false));
        // CorrAttr on the correct row passes, on the corrupted row fails
        let corr_attr = |row: usize| {
            let (rule, h) = mk(
                row,
                Predicate::CorrAttr {
                    model: ModelRef::named("Mc"),
                    var: 0,
                    evidence: vec![AttrId(0)],
                    target: AttrId(1),
                    delta: 0.5,
                },
            );
            ctx.eval_predicate(&h, &rule.consequence)
        };
        assert_eq!(corr_attr(0), Some(true));
        assert_eq!(corr_attr(1), Some(false));
        assert_eq!(corr_attr(2), Some(false), "null target never correlates");
        // Predict: t.area_code = Md(t[city]) — true where it matches
        let pred = |row: usize| {
            let (rule, h) = mk(
                row,
                Predicate::Predict {
                    model: ModelRef::named("Md"),
                    var: 0,
                    evidence: vec![AttrId(0)],
                    target: AttrId(1),
                },
            );
            ctx.eval_predicate(&h, &rule.consequence)
        };
        assert_eq!(pred(0), Some(true));
        assert_eq!(pred(1), Some(false));
        assert_eq!(
            pred(2),
            Some(false),
            "null cell != prediction — the MI trigger"
        );
        let _ = (mc, md);
    }
}
