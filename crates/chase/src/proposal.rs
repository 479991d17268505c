//! Fix proposals and the valuation leaf shared by every evaluator.
//!
//! A valuation whose precondition holds and whose consequence does not yet
//! hold emits a [`Proposal`]; [`visit_valuation`] is that step (distinctness,
//! the Strict gate, the consequence check, [`propose`]). The production
//! evaluator (`crate::evaluate`) and the reference chase
//! (`crate::reference`) differ only in *which* valuations they visit.

use crate::chase::{ChaseEngine, GateMode};
use crate::commit::Committed;
use crate::fixes::{ChaseOrderOracle, EntityKey, FixStore};
use rock_data::{AttrId, CellRef, GlobalTid, RelId, TupleId, Value};
use rock_rees::eval::{distinct_ok, EntityOracle, EvalContext, Valuation};
use rock_rees::{Predicate, Rule};

/// One emitted proposal together with the tuples its valuation bound.
pub(crate) type Emission = (Vec<GlobalTid>, Proposal);

/// A deduced fix proposal (one chase step's consequence).
#[derive(Debug, Clone, PartialEq)]
pub enum Proposal {
    /// Validate `t[A] = value`.
    SetCell {
        cell: CellRef,
        value: Value,
        rule: u32,
    },
    /// Validate `a[A] = b[B]` without knowing which side is correct.
    EquateCells { a: CellRef, b: CellRef, rule: u32 },
    /// Validate `t.eid = s.eid`.
    Merge {
        a: GlobalTid,
        b: GlobalTid,
        rule: u32,
    },
    /// Validate `t.eid != s.eid`.
    Distinct {
        a: GlobalTid,
        b: GlobalTid,
        rule: u32,
    },
    /// Validate `t1 ⪯A t2` / `t1 ≺A t2`.
    Order {
        rel: RelId,
        attr: AttrId,
        t1: TupleId,
        t2: TupleId,
        strict: bool,
        rule: u32,
    },
}

rock_data::json_codec!(tagged Proposal {
    SetCell { cell, value, rule },
    EquateCells { a, b, rule },
    Merge { a, b, rule },
    Distinct { a, b, rule },
    Order { rel, attr, t1, t2, strict, rule },
});

/// Canonical proposal sort key (also the WAL support-map key).
pub(crate) type ProposalKey = (u8, u64, u64, String);

impl Proposal {
    /// Canonical sort key for deterministic commit order.
    pub(crate) fn key(&self) -> ProposalKey {
        fn cell_key(c: &CellRef) -> u64 {
            ((c.rel.0 as u64) << 48) | ((c.tid.0 as u64) << 16) | c.attr.0 as u64
        }
        fn tid_key(t: &GlobalTid) -> u64 {
            ((t.rel.0 as u64) << 32) | t.tid.0 as u64
        }
        match self {
            Proposal::Distinct { a, b, rule } => (0, tid_key(a), tid_key(b), rule.to_string()),
            Proposal::Merge { a, b, rule } => (1, tid_key(a), tid_key(b), rule.to_string()),
            Proposal::SetCell { cell, value, rule } => {
                (2, cell_key(cell), 0, format!("{rule}/{value:?}"))
            }
            Proposal::EquateCells { a, b, rule } => (2, cell_key(a), cell_key(b), rule.to_string()),
            Proposal::Order {
                rel,
                attr,
                t1,
                t2,
                strict,
                rule,
            } => (
                3,
                ((rel.0 as u64) << 32) | attr.0 as u64,
                ((t1.0 as u64) << 33) | ((t2.0 as u64) << 1) | u64::from(*strict),
                rule.to_string(),
            ),
        }
    }
}

struct FixEntityOracle<'a> {
    fixes: &'a FixStore,
}

impl EntityOracle for FixEntityOracle<'_> {
    fn same(&self, a: (RelId, rock_data::Eid), b: (RelId, rock_data::Eid)) -> bool {
        self.fixes
            .same_entity(EntityKey::new(a.0, a.1), EntityKey::new(b.0, b.1))
    }
}

/// Run `f` with the chase's evaluation context over the committed state:
/// the resolved view, validated orders and `[EID]=` classes. `columnar`
/// selects the vectorized unary prefilters (production) or scalar
/// evaluation (the reference).
pub(crate) fn with_context<R>(
    engine: &ChaseEngine<'_>,
    st: &Committed,
    columnar: bool,
    f: impl FnOnce(&EvalContext<'_>) -> R,
) -> R {
    let oracle = ChaseOrderOracle {
        fixes: &st.fixes,
        db: &st.db,
    };
    let entity_oracle = FixEntityOracle { fixes: &st.fixes };
    let mut ctx = EvalContext::new(&st.db, engine.registry)
        .with_temporal(&oracle)
        .with_entities(&entity_oracle)
        .with_columnar(columnar);
    if let Some(g) = engine.graph {
        ctx = ctx.with_graph(g);
    }
    f(&ctx)
}

/// Shared leaf of every evaluator: distinctness, the Strict gate, the
/// consequence check, and the proposal emission with the valuation's bound
/// tuples recorded.
pub(crate) fn visit_valuation(
    rule: &Rule,
    ri: u32,
    h: &Valuation,
    ctx: &EvalContext<'_>,
    gate: GateMode,
    fixes: &FixStore,
    out: &mut Vec<Emission>,
) {
    if !distinct_ok(rule, h) {
        return;
    }
    if gate == GateMode::Strict && !precondition_validated(rule, h, ctx, fixes) {
        return;
    }
    // A satisfied consequence proposes nothing — except in Strict mode,
    // where the fix is still recorded in U: satisfied consequences are
    // validated facts, and accumulation of ground truth (§4.1) depends on
    // them.
    if gate != GateMode::Strict && ctx.eval_predicate(rule, h, &rule.consequence) == Some(true) {
        return;
    }
    if let Some(p) = propose(rule, ri, h, ctx) {
        out.push((h.tuples.clone(), p));
    }
}

/// Strict-gate check: every precondition cell read by the rule must belong
/// to a trusted tuple or be validated in `U`.
fn precondition_validated(
    rule: &Rule,
    h: &Valuation,
    ctx: &EvalContext<'_>,
    fixes: &FixStore,
) -> bool {
    for p in &rule.precondition {
        // `null(t.A)` is the MI trigger: a null cell has no value to
        // validate — exempt (the rest of the precondition still gates).
        if matches!(p, Predicate::IsNull { .. }) {
            continue;
        }
        for v in p.tuple_vars() {
            let gt = h.tuples[v];
            if fixes.is_trusted(gt) {
                continue;
            }
            let Some(tu) = ctx.db.relation(gt.rel).get(gt.tid) else {
                return false;
            };
            let key = EntityKey::new(gt.rel, tu.eid);
            for a in p.reads_of(v) {
                if fixes.validated_value(key, gt.rel, a).is_none() {
                    return false;
                }
            }
        }
    }
    true
}

/// Turn a satisfied-precondition, unsatisfied-consequence valuation into a
/// fix proposal. Returns `None` for consequences that cannot generate fixes
/// (inequality comparisons, bare ML assertions) — those are detection-only.
fn propose(rule: &Rule, ri: u32, h: &Valuation, ctx: &EvalContext<'_>) -> Option<Proposal> {
    use rock_rees::CmpOp;
    match &rule.consequence {
        Predicate::Const {
            var,
            attr,
            op: CmpOp::Eq,
            value,
        } => {
            let gt = h.tuples[*var];
            Some(Proposal::SetCell {
                cell: CellRef::new(gt.rel, gt.tid, *attr),
                value: value.clone(),
                rule: ri,
            })
        }
        Predicate::Attr {
            lvar,
            lattr,
            op: CmpOp::Eq,
            rvar,
            rattr,
        } => {
            let (l, r) = (h.tuples[*lvar], h.tuples[*rvar]);
            Some(Proposal::EquateCells {
                a: CellRef::new(l.rel, l.tid, *lattr),
                b: CellRef::new(r.rel, r.tid, *rattr),
                rule: ri,
            })
        }
        Predicate::EidCmp { lvar, rvar, eq } => {
            let (l, r) = (h.tuples[*lvar], h.tuples[*rvar]);
            if *eq {
                Some(Proposal::Merge {
                    a: l,
                    b: r,
                    rule: ri,
                })
            } else {
                Some(Proposal::Distinct {
                    a: l,
                    b: r,
                    rule: ri,
                })
            }
        }
        Predicate::Temporal {
            lvar,
            rvar,
            attr,
            strict,
        } => {
            let (l, r) = (h.tuples[*lvar], h.tuples[*rvar]);
            Some(Proposal::Order {
                rel: l.rel,
                attr: *attr,
                t1: l.tid,
                t2: r.tid,
                strict: *strict,
                rule: ri,
            })
        }
        Predicate::ValExtract {
            tvar,
            attr,
            xvar,
            path,
        } => {
            let x = h.vertices[*xvar]?;
            let value = path.val(ctx.graph?, x)?;
            let gt = h.tuples[*tvar];
            Some(Proposal::SetCell {
                cell: CellRef::new(gt.rel, gt.tid, *attr),
                value,
                rule: ri,
            })
        }
        Predicate::Predict {
            model,
            var,
            evidence,
            target,
        } => {
            let gt = h.tuples[*var];
            let t = ctx.db.relation(gt.rel).get(gt.tid)?;
            let ev = t.project(evidence);
            let value = ctx.models.predict_value(model.resolved(), &ev)?;
            Some(Proposal::SetCell {
                cell: CellRef::new(gt.rel, gt.tid, *target),
                value,
                rule: ri,
            })
        }
        // Inequalities and bare ML consequences assert properties but
        // cannot be turned into a single certain fix.
        _ => None,
    }
}
