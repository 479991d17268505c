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
use rock_data::{Database, FxHashMap, GlobalTid, TupleId, Value};
use rock_kg::{Graph, VertexId};
use rock_ml::ModelRegistry;

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
    /// Entity-identity oracle backing `t.eid = s.eid` (the chase's
    /// `[EID]=` classes). Raw eid comparison when absent.
    pub entities: Option<&'a dyn EntityOracle>,
    /// Route unary constant/two-attribute prefilters through the columnar
    /// kernels ([`rock_data::ColumnSet::eval_const_op`]). Always on in
    /// production; see [`EvalContext::with_columnar`].
    pub columnar: bool,
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

/// Oracle for entity identity: answers whether two `(relation, eid)` keys
/// denote the same validated real-world entity. The chase backs this with
/// its `[EID]=` union–find; without an oracle, raw eids are compared (two
/// tuples of *different* relations are never the same entity by default).
pub trait EntityOracle: Sync {
    fn same(
        &self,
        a: (rock_data::RelId, rock_data::Eid),
        b: (rock_data::RelId, rock_data::Eid),
    ) -> bool;
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

    pub fn with_entities(mut self, e: &'a dyn EntityOracle) -> Self {
        self.entities = Some(e);
        self
    }

    /// Reference hook, not a user option: `false` answers every prefilter
    /// by scalar per-tuple evaluation — what the reference chase and the
    /// columnar ≡ scalar tests compare the kernels against.
    pub fn with_columnar(mut self, columnar: bool) -> Self {
        self.columnar = columnar;
        self
    }

    fn tuple_values(
        &self,
        rule: &Rule,
        h: &Valuation,
        var: usize,
        attrs: &[rock_data::AttrId],
    ) -> Vec<Value> {
        let gt = h.tuples[var];
        let rel = self.db.relation(gt.rel);
        let t = rel
            .get(gt.tid)
            .unwrap_or_else(|| panic!("valuation references dead tuple {:?}", gt));
        let _ = rule;
        t.project(attrs)
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
    pub fn eval_predicate(&self, rule: &Rule, h: &Valuation, p: &Predicate) -> Option<bool> {
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
                let a = self.tuple_values(rule, h, *lvar, lattrs);
                let b = self.tuple_values(rule, h, *rvar, rattrs);
                self.models.predict_pair(model.resolved(), &a, &b)
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
                let all: Vec<rock_data::AttrId> = {
                    let rel = self.db.relation(h.tuples[*lvar].rel);
                    (0..rel.schema.arity())
                        .map(rock_data::AttrId::from)
                        .collect()
                };
                let a = self.tuple_values(rule, h, *lvar, &all);
                let b = self.tuple_values(rule, h, *rvar, &all);
                let conf = self.models.rank_confidence(model.resolved(), &a, &b);
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
                let ev = self.tuple_values(rule, h, *var, evidence);
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
                let ev = self.tuple_values(rule, h, *var, evidence);
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
                let ev = self.tuple_values(rule, h, *var, evidence);
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
                let same = match self.entities {
                    Some(o) => o.same((l.rel, le), (r.rel, re)),
                    None => l.rel == r.rel && le == re,
                };
                if *eq {
                    same
                } else {
                    !same
                }
            }
        })
    }

    /// `h ⊨ X` for the precondition.
    pub fn satisfies_precondition(&self, rule: &Rule, h: &Valuation) -> bool {
        rule.precondition
            .iter()
            .all(|p| self.eval_predicate(rule, h, p) == Some(true))
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
    enumerate_valuations_restricted(rule, ctx, None, on_valuation)
}

/// Like [`enumerate_valuations`], but requiring one variable to bind only
/// tuples from an explicit id set — the incremental-detection pass
/// restricts a variable to the tuples touched by ΔD ([41]).
pub fn enumerate_valuations_in_set<F>(
    rule: &Rule,
    ctx: &EvalContext<'_>,
    var: usize,
    tids: &rock_data::FxHashSet<TupleId>,
    mut on_valuation: F,
) where
    F: FnMut(&Valuation) -> bool,
{
    // Reuse the range-based path by temporarily filtering candidates via a
    // wrapper closure: enumerate unrestricted but skip valuations whose
    // `var` binding is outside the set. To keep the candidate list small
    // (the point of incrementality), pre-check inside the callback AND
    // seed a narrow range when the set is contiguous-ish.
    let (min, max) = match (tids.iter().min(), tids.iter().max()) {
        (Some(a), Some(b)) => (a.0, b.0 + 1),
        _ => return,
    };
    enumerate_valuations_restricted(rule, ctx, Some((var, min..max)), |h| {
        if !tids.contains(&h.tuples[var].tid) {
            return true;
        }
        on_valuation(h)
    });
}

/// Like [`enumerate_valuations`], but optionally restricting one variable's
/// candidate tuples to a tid range `[start, end)` — the HyperCube-style
/// work-unit partitioning of §5.3 slices on the first variable.
pub fn enumerate_valuations_restricted<F>(
    rule: &Rule,
    ctx: &EvalContext<'_>,
    restrict: Option<(usize, std::ops::Range<u32>)>,
    on_valuation: F,
) where
    F: FnMut(&Valuation) -> bool,
{
    let nvars = rule.tuple_vars.len();
    // unary candidate lists
    let mut candidates: Vec<Vec<TupleId>> = Vec::with_capacity(nvars);
    for v in 0..nvars {
        let rel = ctx.db.relation(rule.rel_of(v));
        let mut tids: Vec<TupleId> = rel.tids().collect();
        if let Some((rv, range)) = &restrict {
            if *rv == v {
                tids.retain(|t| range.contains(&t.0));
            }
        }
        apply_unary_prefilters(rule, ctx, v, &mut tids);
        candidates.push(tids);
    }
    enumerate_from_candidates(rule, ctx, candidates, on_valuation);
}

/// Like [`enumerate_valuations`], but with explicit per-variable candidate
/// lists for any subset of the tuple variables — the semi-naive chase pins
/// one variable to the delta set and (for ML pair rules) prunes the other
/// to the pinned tuples' block-mates. Variables absent from `overrides`
/// enumerate the full relation. Overridden lists are filtered to live
/// tuples and re-run through the cheap unary prefilters, so callers may
/// pass raw tid lists.
pub fn enumerate_valuations_with_candidates<F>(
    rule: &Rule,
    ctx: &EvalContext<'_>,
    overrides: &FxHashMap<usize, Vec<TupleId>>,
    on_valuation: F,
) where
    F: FnMut(&Valuation) -> bool,
{
    let nvars = rule.tuple_vars.len();
    let mut candidates: Vec<Vec<TupleId>> = Vec::with_capacity(nvars);
    for v in 0..nvars {
        let rel = ctx.db.relation(rule.rel_of(v));
        let mut tids: Vec<TupleId> = match overrides.get(&v) {
            Some(list) => list
                .iter()
                .copied()
                .filter(|t| rel.get(*t).is_some())
                .collect(),
            None => rel.tids().collect(),
        };
        apply_unary_prefilters(rule, ctx, v, &mut tids);
        candidates.push(tids);
    }
    enumerate_from_candidates(rule, ctx, candidates, on_valuation);
}

/// Cheap single-variable predicate prefilter shared by all enumeration
/// entry points — ML predicates wait for memo/blocking, and
/// vertex-dependent predicates (match/val) wait for vertex binding.
///
/// With `ctx.columnar` set, constant / two-attribute / null predicates are
/// answered by the vectorized kernels: one satisfaction [`rock_data::Bitset`]
/// per predicate, ANDed together, then one retain pass over the candidate
/// list (a `TupleId` indexes the columnar slots directly — ids are stable
/// across deletions on both sides). Predicates the kernels cannot answer
/// fall back to the per-tuple scalar path; the two paths agree exactly
/// because they share [`rock_data::PredOp::eval`].
fn apply_unary_prefilters(rule: &Rule, ctx: &EvalContext<'_>, v: usize, tids: &mut Vec<TupleId>) {
    let nvars = rule.tuple_vars.len();
    let cols = if ctx.columnar {
        Some(ctx.db.relation(rule.rel_of(v)).columns())
    } else {
        None
    };
    let mut mask: Option<rock_data::Bitset> = None;
    for p in &rule.precondition {
        if p.tuple_vars() == [v] && !p.is_ml() && p.vertex_vars().is_empty() {
            if let Some(cols) = &cols {
                if let Some(m) = columnar_prefilter_mask(cols, p) {
                    match &mut mask {
                        Some(acc) => acc.intersect_with(&m),
                        None => mask = Some(m),
                    }
                    continue;
                }
            }
            tids.retain(|tid| {
                let h = single_var_valuation(rule, v, GlobalTid::new(rule.rel_of(v), *tid), nvars);
                ctx.eval_predicate(rule, &h, p) == Some(true)
            });
        }
    }
    if let Some(mask) = mask {
        tids.retain(|tid| mask.get(tid.index()));
    }
}

/// Kernel-answerable unary predicates: `t.A ⊕ c`, `t.A ⊕ t.B`, `null(t.A)`.
/// Returns `None` for anything else (the caller falls back to scalar eval).
fn columnar_prefilter_mask(
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

/// The shared enumeration core: greedy variable ordering, hash-join
/// narrowing on equality predicates, and recursive binding with full
/// verification at the leaves.
fn enumerate_from_candidates<F>(
    rule: &Rule,
    ctx: &EvalContext<'_>,
    candidates: Vec<Vec<TupleId>>,
    mut on_valuation: F,
) where
    F: FnMut(&Valuation) -> bool,
{
    let nvars = rule.tuple_vars.len();
    // 2. variable order: smallest candidate list first (greedy).
    let mut order: Vec<usize> = (0..nvars).collect();
    order.sort_by_key(|&v| candidates[v].len());

    // 3. binary equality predicates for hash-join binding.
    let eq_preds: Vec<(usize, rock_data::AttrId, usize, rock_data::AttrId)> = rule
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

    // Pre-build indexes for join attributes (lazily per (var, attr)).
    let mut indexes: FxHashMap<(usize, rock_data::AttrId), FxHashMap<Value, Vec<TupleId>>> =
        FxHashMap::default();
    for &(lv, la, rv, ra) in &eq_preds {
        for (v, a) in [(lv, la), (rv, ra)] {
            indexes.entry((v, a)).or_insert_with(|| {
                let rel = ctx.db.relation(rule.rel_of(v));
                let mut idx: FxHashMap<Value, Vec<TupleId>> = FxHashMap::default();
                let cand: rock_data::FxHashSet<TupleId> = candidates[v].iter().copied().collect();
                for (val, tids) in rel.index_on(a) {
                    let filtered: Vec<TupleId> =
                        tids.into_iter().filter(|t| cand.contains(t)).collect();
                    if !filtered.is_empty() {
                        idx.insert(val, filtered);
                    }
                }
                idx
            });
        }
    }

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
        &indexes,
        &eq_preds,
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
    candidates: &[Vec<TupleId>],
    indexes: &FxHashMap<(usize, rock_data::AttrId), FxHashMap<Value, Vec<TupleId>>>,
    eq_preds: &[(usize, rock_data::AttrId, usize, rock_data::AttrId)],
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
            .all(|p| ctx.eval_predicate(rule, h, p) == Some(true));
        if ok {
            return on_valuation(h);
        }
        return true;
    }
    let v = order[depth];
    // Try to narrow candidates via an equality predicate to a bound var.
    let mut narrowed: Option<Vec<TupleId>> = None;
    for &(lv, la, rv, ra) in eq_preds {
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
        let idx = &indexes[&(v, this_attr)];
        let hits = idx.get(&val).map(|v| v.as_slice()).unwrap_or(&[]);
        match &mut narrowed {
            None => narrowed = Some(hits.to_vec()),
            Some(cur) => cur.retain(|t| hits.contains(t)),
        }
    }
    let list = narrowed.as_deref().unwrap_or(&candidates[v]);
    for &tid in list {
        h.tuples[v] = GlobalTid::new(rule.rel_of(v), tid);
        bound[v] = true;
        let cont = bind_next(
            rule,
            ctx,
            order,
            depth + 1,
            candidates,
            indexes,
            eq_preds,
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
        if distinct_ok(rule, h) && ctx.eval_predicate(rule, h, &rule.consequence) != Some(true) {
            out.push(h.clone());
        }
        true
    });
    out
}

/// All satisfying valuations (X ∧ p0) — used by support computation and the
/// chase's fix deduction.
pub fn find_satisfying(rule: &Rule, ctx: &EvalContext<'_>) -> Vec<Valuation> {
    let mut out = Vec::new();
    enumerate_valuations(rule, ctx, |h| {
        if distinct_ok(rule, h) && ctx.eval_predicate(rule, h, &rule.consequence) == Some(true) {
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
        assert_eq!(ctx.eval_predicate(&rule, &h, &rule.consequence), Some(true));
        // a far-fetched constant fails the threshold
        if let Predicate::CorrConst { value, .. } = &mut corr {
            *value = Value::str("000");
        }
        let (rule, h) = mk(0, corr);
        assert_eq!(
            ctx.eval_predicate(&rule, &h, &rule.consequence),
            Some(false)
        );
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
            ctx.eval_predicate(&rule, &h, &rule.consequence)
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
            ctx.eval_predicate(&rule, &h, &rule.consequence)
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
