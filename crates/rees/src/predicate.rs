//! The predicate AST (paper §2.1–2.3).
//!
//! Tuple variables are indices into a rule's variable list; vertex variables
//! index the rule's vertex-variable list. Model references carry the model
//! *name* (as written in the DSL) plus a resolved [`rock_ml::ModelId`]
//! filled in by [`crate::rule::Rule::resolve`].

use crate::op::CmpOp;
use rock_data::{AttrId, Value};
use rock_kg::LabelPath;
use rock_ml::ModelId;
use std::fmt;

/// Index of a tuple variable within a rule.
pub type VarId = usize;
/// Index of a vertex variable within a rule.
pub type VertexVarId = usize;

/// A reference to a registered ML model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRef {
    pub name: String,
    /// Filled by `Rule::resolve` against a `ModelRegistry`.
    pub id: Option<ModelId>,
}

impl ModelRef {
    pub fn named(name: impl Into<String>) -> Self {
        ModelRef {
            name: name.into(),
            id: None,
        }
    }

    /// The resolved id; panics with a clear message when unresolved (a rule
    /// must be `resolve`d before evaluation).
    pub fn resolved(&self) -> ModelId {
        self.id
            .unwrap_or_else(|| panic!("ML model '{}' not resolved against a registry", self.name))
    }
}

/// One predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `t.A ⊕ c`
    Const {
        var: VarId,
        attr: AttrId,
        op: CmpOp,
        value: Value,
    },
    /// `t.A ⊕ s.B`
    Attr {
        lvar: VarId,
        lattr: AttrId,
        op: CmpOp,
        rvar: VarId,
        rattr: AttrId,
    },
    /// `M(t[Ā], s[B̄])` — Boolean ML predicate (§2.1(e)).
    Ml {
        model: ModelRef,
        lvar: VarId,
        lattrs: Vec<AttrId>,
        rvar: VarId,
        rattrs: Vec<AttrId>,
    },
    /// `t ⪯A s` (strict=false) or `t ≺A s` (strict=true) (§2.2).
    Temporal {
        lvar: VarId,
        rvar: VarId,
        attr: AttrId,
        strict: bool,
    },
    /// `Mrank(t1, t2, ⊗A)` (§2.2).
    MlRank {
        model: ModelRef,
        lvar: VarId,
        rvar: VarId,
        attr: AttrId,
        strict: bool,
    },
    /// `HER(t, x)` (§2.3). The vertex variable is bound by this predicate.
    Her {
        model: ModelRef,
        tvar: VarId,
        xvar: VertexVarId,
    },
    /// `match(t.A, x.ρ)` (§2.3).
    PathMatch {
        tvar: VarId,
        attr: AttrId,
        xvar: VertexVarId,
        path: LabelPath,
    },
    /// `t[A] = val(x.ρ)` (§2.3).
    ValExtract {
        tvar: VarId,
        attr: AttrId,
        xvar: VertexVarId,
        path: LabelPath,
    },
    /// `Mc(t[Ā], t.B = c) ≥ δ` (§2.3) — correlation with a constant.
    CorrConst {
        model: ModelRef,
        var: VarId,
        evidence: Vec<AttrId>,
        target: AttrId,
        value: Value,
        delta: f64,
    },
    /// `Mc(t[Ā], t.B) ≥ δ` (§2.3) — correlation with the current value.
    CorrAttr {
        model: ModelRef,
        var: VarId,
        evidence: Vec<AttrId>,
        target: AttrId,
        delta: f64,
    },
    /// `t.B = Md(t[Ā])` (§2.3) — ML value prediction.
    Predict {
        model: ModelRef,
        var: VarId,
        evidence: Vec<AttrId>,
        target: AttrId,
    },
    /// `null(t.A)` — syntactic abbreviation (Example 3).
    IsNull { var: VarId, attr: AttrId },
    /// `t.eid ⊕ s.eid` with ⊕ ∈ {=, ≠} — the ER consequences (§4.2).
    EidCmp { lvar: VarId, rvar: VarId, eq: bool },
}

impl Predicate {
    /// Tuple variables mentioned.
    pub fn tuple_vars(&self) -> Vec<VarId> {
        use Predicate::*;
        match self {
            Const { var, .. }
            | CorrConst { var, .. }
            | CorrAttr { var, .. }
            | Predict { var, .. }
            | IsNull { var, .. } => vec![*var],
            Attr { lvar, rvar, .. }
            | Ml { lvar, rvar, .. }
            | Temporal { lvar, rvar, .. }
            | MlRank { lvar, rvar, .. }
            | EidCmp { lvar, rvar, .. } => {
                if lvar == rvar {
                    vec![*lvar]
                } else {
                    vec![*lvar, *rvar]
                }
            }
            Her { tvar, .. } | PathMatch { tvar, .. } | ValExtract { tvar, .. } => vec![*tvar],
        }
    }

    /// Vertex variables mentioned.
    pub fn vertex_vars(&self) -> Vec<VertexVarId> {
        use Predicate::*;
        match self {
            Her { xvar, .. } | PathMatch { xvar, .. } | ValExtract { xvar, .. } => vec![*xvar],
            _ => Vec::new(),
        }
    }

    /// Does this predicate reference an ML model (used by the RocknoML
    /// ablation and the evaluation-order optimizer)?
    pub fn is_ml(&self) -> bool {
        matches!(
            self,
            Predicate::Ml { .. }
                | Predicate::MlRank { .. }
                | Predicate::Her { .. }
                | Predicate::CorrConst { .. }
                | Predicate::CorrAttr { .. }
                | Predicate::Predict { .. }
        )
    }

    /// Attributes of a given variable this predicate *reads* (drives the
    /// chase's lazy-activation index).
    pub fn reads_of(&self, v: VarId) -> Vec<AttrId> {
        use Predicate::*;
        let mut out = Vec::new();
        match self {
            Const { var, attr, .. } | IsNull { var, attr } if *var == v => out.push(*attr),
            Attr {
                lvar,
                lattr,
                rvar,
                rattr,
                ..
            } => {
                if *lvar == v {
                    out.push(*lattr);
                }
                if *rvar == v {
                    out.push(*rattr);
                }
            }
            Ml {
                lvar,
                lattrs,
                rvar,
                rattrs,
                ..
            } => {
                if *lvar == v {
                    out.extend_from_slice(lattrs);
                }
                if *rvar == v {
                    out.extend_from_slice(rattrs);
                }
            }
            CorrConst {
                var,
                evidence,
                target,
                ..
            }
            | CorrAttr {
                var,
                evidence,
                target,
                ..
            } if *var == v => {
                out.extend_from_slice(evidence);
                out.push(*target);
            }
            Predict { var, evidence, .. } if *var == v => out.extend_from_slice(evidence),
            PathMatch { tvar, attr, .. } | ValExtract { tvar, attr, .. } if *tvar == v => {
                out.push(*attr)
            }
            _ => {}
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Rough evaluation cost rank for predicate ordering (§5.3: "A query
    /// optimizer decides the execution order of predicates in the
    /// precondition"). Lower = evaluate earlier.
    pub fn cost_rank(&self) -> u8 {
        use Predicate::*;
        match self {
            IsNull { .. } | Const { .. } => 0,
            EidCmp { .. } => 1,
            Attr { .. } => 2,
            Temporal { .. } => 3,
            CorrConst { .. } | CorrAttr { .. } => 4,
            Ml { .. } | MlRank { .. } | Predict { .. } => 5,
            Her { .. } | PathMatch { .. } | ValExtract { .. } => 6,
        }
    }
}

/// Pretty-printer context: variable and attribute names come from the rule,
/// so `Display` lives there; this is the raw debug-ish form used in errors.
impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Predicate::*;
        match self {
            Const {
                var,
                attr,
                op,
                value,
            } => write!(f, "?{var}.{attr} {op} '{value}'"),
            Attr {
                lvar,
                lattr,
                op,
                rvar,
                rattr,
            } => {
                write!(f, "?{lvar}.{lattr} {op} ?{rvar}.{rattr}")
            }
            Ml {
                model, lvar, rvar, ..
            } => write!(f, "{}(?{lvar}[..], ?{rvar}[..])", model.name),
            Temporal {
                lvar,
                rvar,
                attr,
                strict,
            } => {
                write!(
                    f,
                    "?{lvar} {}[{attr}] ?{rvar}",
                    if *strict { "<" } else { "<=" }
                )
            }
            MlRank {
                model,
                lvar,
                rvar,
                attr,
                strict,
            } => write!(
                f,
                "{}(?{lvar}, ?{rvar}, {}[{attr}])",
                model.name,
                if *strict { "<" } else { "<=" }
            ),
            Her { model, tvar, xvar } => write!(f, "{}(?{tvar}, ?x{xvar})", model.name),
            PathMatch {
                tvar,
                attr,
                xvar,
                path,
            } => {
                write!(f, "match(?{tvar}.{attr}, ?x{xvar}.{path})")
            }
            ValExtract {
                tvar,
                attr,
                xvar,
                path,
            } => {
                write!(f, "?{tvar}.{attr} = val(?x{xvar}.{path})")
            }
            CorrConst {
                model,
                var,
                target,
                value,
                delta,
                ..
            } => {
                write!(
                    f,
                    "{}(?{var}[..], {target}='{value}') >= {delta}",
                    model.name
                )
            }
            CorrAttr {
                model,
                var,
                target,
                delta,
                ..
            } => {
                write!(f, "{}(?{var}[..], {target}) >= {delta}", model.name)
            }
            Predict {
                model, var, target, ..
            } => {
                write!(f, "?{var}.{target} = {}(?{var}[..])", model.name)
            }
            IsNull { var, attr } => write!(f, "null(?{var}.{attr})"),
            EidCmp { lvar, rvar, eq } => {
                write!(
                    f,
                    "?{lvar}.eid {} ?{rvar}.eid",
                    if *eq { "=" } else { "!=" }
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_vars_dedup() {
        let p = Predicate::Attr {
            lvar: 0,
            lattr: AttrId(1),
            op: CmpOp::Eq,
            rvar: 0,
            rattr: AttrId(2),
        };
        assert_eq!(p.tuple_vars(), vec![0]);
        let q = Predicate::EidCmp {
            lvar: 0,
            rvar: 1,
            eq: true,
        };
        assert_eq!(q.tuple_vars(), vec![0, 1]);
    }

    #[test]
    fn is_ml_classification() {
        assert!(Predicate::Ml {
            model: ModelRef::named("M"),
            lvar: 0,
            lattrs: vec![],
            rvar: 1,
            rattrs: vec![],
        }
        .is_ml());
        assert!(!Predicate::IsNull {
            var: 0,
            attr: AttrId(0)
        }
        .is_ml());
        assert!(!Predicate::Temporal {
            lvar: 0,
            rvar: 1,
            attr: AttrId(0),
            strict: false
        }
        .is_ml());
    }

    #[test]
    fn reads_of_collects_attrs() {
        let p = Predicate::Ml {
            model: ModelRef::named("M"),
            lvar: 0,
            lattrs: vec![AttrId(2), AttrId(1)],
            rvar: 1,
            rattrs: vec![AttrId(3)],
        };
        assert_eq!(p.reads_of(0), vec![AttrId(1), AttrId(2)]);
        assert_eq!(p.reads_of(1), vec![AttrId(3)]);
        assert!(p.reads_of(2).is_empty());
    }

    #[test]
    fn cost_rank_orders_ml_last() {
        let cheap = Predicate::Const {
            var: 0,
            attr: AttrId(0),
            op: CmpOp::Eq,
            value: Value::Int(1),
        };
        let expensive = Predicate::Her {
            model: ModelRef::named("H"),
            tvar: 0,
            xvar: 0,
        };
        assert!(cheap.cost_rank() < expensive.cost_rank());
    }

    #[test]
    #[should_panic(expected = "not resolved")]
    fn unresolved_model_panics() {
        ModelRef::named("M").resolved();
    }
}
