//! REE++ rules `φ : X → p0` and rule sets Σ.

use crate::diag::{DiagCode, Diagnostic, RuleSpans};
use crate::predicate::{ModelRef, Predicate, VarId, VertexVarId};
use rock_data::{AttrType, DatabaseSchema, RelId, Value};
use rock_ml::ModelRegistry;
use std::fmt;

/// An REE++ rule.
///
/// All tuple variables must be bound by relation atoms (`tuple_vars`), and
/// all vertex variables by `vertex(x, G)` atoms (`vertex_vars`) — the
/// well-formedness condition of §2. The precondition is a conjunction; the
/// consequence a single predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    /// `(variable name, bound relation)` — the relation atoms `R(t)`.
    pub tuple_vars: Vec<(String, RelId)>,
    /// Vertex variable names — the `vertex(x, G)` atoms.
    pub vertex_vars: Vec<String>,
    pub precondition: Vec<Predicate>,
    pub consequence: Predicate,
    /// Support measured at discovery time (fraction of possible valuations
    /// satisfying X ∧ p0); 0 when hand-written.
    pub support: f64,
    /// Confidence measured at discovery time; 1.0 when hand-written.
    pub confidence: f64,
    /// Source spans when parsed from DSL text; empty for programmatic
    /// rules. Compares equal to everything — see [`RuleSpans`].
    pub spans: RuleSpans,
}

impl Rule {
    pub fn new(
        name: impl Into<String>,
        tuple_vars: Vec<(String, RelId)>,
        vertex_vars: Vec<String>,
        precondition: Vec<Predicate>,
        consequence: Predicate,
    ) -> Self {
        Rule {
            name: name.into(),
            tuple_vars,
            vertex_vars,
            precondition,
            consequence,
            support: 0.0,
            confidence: 1.0,
            spans: RuleSpans::default(),
        }
    }

    /// Variable id by name.
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.tuple_vars.iter().position(|(n, _)| n == name)
    }

    /// Vertex variable id by name.
    pub fn vertex_var(&self, name: &str) -> Option<VertexVarId> {
        self.vertex_vars.iter().position(|n| n == name)
    }

    /// Relation a tuple variable is bound to.
    pub fn rel_of(&self, var: VarId) -> RelId {
        self.tuple_vars[var].1
    }

    /// All predicates (precondition ∪ {consequence}).
    pub fn all_predicates(&self) -> impl Iterator<Item = &Predicate> {
        self.precondition
            .iter()
            .chain(std::iter::once(&self.consequence))
    }

    /// Does the rule use any ML predicate? (RocknoML drops such rules.)
    pub fn uses_ml(&self) -> bool {
        self.all_predicates().any(|p| p.is_ml())
    }

    /// Mutable model references (for resolution).
    fn model_refs_mut(&mut self) -> Vec<&mut ModelRef> {
        let mut out = Vec::new();
        for p in self
            .precondition
            .iter_mut()
            .chain(std::iter::once(&mut self.consequence))
        {
            use Predicate::*;
            match p {
                Ml { model, .. }
                | MlRank { model, .. }
                | Her { model, .. }
                | CorrConst { model, .. }
                | CorrAttr { model, .. }
                | Predict { model, .. } => out.push(model),
                _ => {}
            }
        }
        out
    }

    /// Resolve every model reference against a registry. Errors on unknown
    /// model names — a rule with a dangling model must not silently no-op.
    pub fn resolve(&mut self, registry: &ModelRegistry) -> Result<(), String> {
        for m in self.model_refs_mut() {
            match registry.id(&m.name) {
                Some(id) => m.id = Some(id),
                None => return Err(format!("rule references unknown ML model '{}'", m.name)),
            }
        }
        Ok(())
    }

    /// Typed well-formedness pass (paper §2 conditions plus type and ML
    /// sanity checks): every diagnostic the rule's structure warrants, in
    /// predicate order. The first four codes (`E001`–`E004`) are the
    /// classic [`Rule::validate`] checks; `E005`–`E007` extend them with
    /// constant-domain and ML-predicate sanity and only surface through
    /// `rock-analyze` so parsing stays as permissive as before.
    pub fn well_formedness(&self, schema: &DatabaseSchema) -> Vec<Diagnostic> {
        let nvars = self.tuple_vars.len();
        let nverts = self.vertex_vars.len();
        let mut out = Vec::new();
        let npre = self.precondition.len();
        for (i, p) in self.all_predicates().enumerate() {
            let span = if i < npre {
                self.spans.precondition(i)
            } else {
                self.spans.consequence
            };
            let mut bound_ok = true;
            for v in p.tuple_vars() {
                if v >= nvars {
                    bound_ok = false;
                    out.push(Diagnostic::new(
                        DiagCode::UnboundTupleVar,
                        &self.name,
                        span,
                        format!("unbound tuple variable ?{v} in {p}"),
                    ));
                }
            }
            for x in p.vertex_vars() {
                if x >= nverts {
                    bound_ok = false;
                    out.push(Diagnostic::new(
                        DiagCode::UnboundVertexVar,
                        &self.name,
                        span,
                        format!("unbound vertex variable ?x{x} in {p}"),
                    ));
                }
            }
            // The remaining checks index tuple_vars; skip them when a
            // variable is unbound so they can't panic on bad indices.
            if !bound_ok {
                continue;
            }
            // attribute ids must exist in the bound relation's schema
            for v in p.tuple_vars() {
                let rel = schema.relation(self.rel_of(v));
                for a in p.reads_of(v) {
                    if a.index() >= rel.arity() {
                        out.push(Diagnostic::new(
                            DiagCode::AttrOutOfRange,
                            &self.name,
                            span,
                            format!("attribute {a} out of range for relation {}", rel.name),
                        ));
                    }
                }
            }
            // Temporal predicates require both sides in the same relation.
            if let Predicate::Temporal { lvar, rvar, .. } | Predicate::MlRank { lvar, rvar, .. } = p
            {
                if self.rel_of(*lvar) != self.rel_of(*rvar) {
                    out.push(Diagnostic::new(
                        DiagCode::CrossRelTemporal,
                        &self.name,
                        span,
                        format!("temporal predicate across different relations in {p}"),
                    ));
                }
            }
            self.check_const_domain(schema, p, span, &mut out);
            self.check_ml_sanity(p, span, &mut out);
        }
        out
    }

    /// E005: a constant that can never satisfy its attribute's type. The
    /// parser coerces constants with [`Value::parse_as`], so an unparseable
    /// literal arrives as `Null` — and under SQL semantics no comparison
    /// with `Null` ever holds, making the predicate unsatisfiable.
    fn check_const_domain(
        &self,
        schema: &DatabaseSchema,
        p: &Predicate,
        span: crate::diag::Span,
        out: &mut Vec<Diagnostic>,
    ) {
        let (var, attr, value) = match p {
            Predicate::Const {
                var, attr, value, ..
            }
            | Predicate::CorrConst {
                var,
                target: attr,
                value,
                ..
            } => (*var, *attr, value),
            _ => return,
        };
        let rel = schema.relation(self.rel_of(var));
        if attr.index() >= rel.arity() {
            return; // already reported as E003
        }
        let ty = rel.attr(attr).ty;
        let vty = match value {
            Value::Null => {
                out.push(Diagnostic::new(
                    DiagCode::ConstTypeMismatch,
                    &self.name,
                    span,
                    format!(
                        "constant in {p} is null (unparseable for {} attribute {}) \
                         and can never compare true",
                        ty,
                        rel.attr_name(attr)
                    ),
                ));
                return;
            }
            Value::Int(_) => AttrType::Int,
            Value::Float(_) => AttrType::Float,
            Value::Str(_) => AttrType::Str,
            Value::Bool(_) => AttrType::Bool,
            Value::Date(_) => AttrType::Date,
        };
        if !vty.compatible(ty) {
            out.push(Diagnostic::new(
                DiagCode::ConstTypeMismatch,
                &self.name,
                span,
                format!(
                    "constant type {} can never satisfy {} attribute {} in {p}",
                    vty,
                    ty,
                    rel.attr_name(attr)
                ),
            ));
        }
    }

    /// E006/E007: ML predicates need a non-empty evidence list, and
    /// correlation thresholds must fall in `(0, 1]`.
    fn check_ml_sanity(&self, p: &Predicate, span: crate::diag::Span, out: &mut Vec<Diagnostic>) {
        let empty = |attrs: &[rock_data::AttrId]| attrs.is_empty();
        let arity_bad = match p {
            Predicate::Ml { lattrs, rattrs, .. } => empty(lattrs) || empty(rattrs),
            Predicate::CorrConst { evidence, .. }
            | Predicate::CorrAttr { evidence, .. }
            | Predicate::Predict { evidence, .. } => empty(evidence),
            _ => false,
        };
        if arity_bad {
            out.push(Diagnostic::new(
                DiagCode::EmptyMlAttrs,
                &self.name,
                span,
                format!("ML predicate {p} has an empty attribute list"),
            ));
        }
        if let Predicate::CorrConst { delta, .. } | Predicate::CorrAttr { delta, .. } = p {
            if !(*delta > 0.0 && *delta <= 1.0) {
                out.push(Diagnostic::new(
                    DiagCode::BadThreshold,
                    &self.name,
                    span,
                    format!("correlation threshold {delta} outside (0, 1] in {p}"),
                ));
            }
        }
    }

    /// Well-formedness: every variable used by a predicate is bound, and
    /// the consequence only uses bound variables (paper §2: "all tuple
    /// variables in φ are bounded in X").
    ///
    /// Back-compat wrapper over [`Rule::well_formedness`]: reports the
    /// first classic error (`E001`–`E004`) as a string, exactly the checks
    /// the parser has always enforced. The extended codes (`E005`+) are
    /// analyzer-only and do not fail validation here.
    pub fn validate(&self, schema: &DatabaseSchema) -> Result<(), String> {
        match self.well_formedness(schema).into_iter().find(|d| {
            matches!(
                d.code,
                DiagCode::UnboundTupleVar
                    | DiagCode::UnboundVertexVar
                    | DiagCode::AttrOutOfRange
                    | DiagCode::CrossRelTemporal
            )
        }) {
            Some(d) => Err(format!("{}: {}", self.name, d.message)),
            None => Ok(()),
        }
    }

    /// Render in the DSL syntax (parse/print round-trips; see `parser`).
    pub fn display<'a>(&'a self, schema: &'a DatabaseSchema) -> RuleDisplay<'a> {
        RuleDisplay { rule: self, schema }
    }
}

/// Pretty-printer bound to a schema (attribute ids → names).
pub struct RuleDisplay<'a> {
    rule: &'a Rule,
    schema: &'a DatabaseSchema,
}

impl fmt::Display for RuleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.rule;
        write!(f, "rule {}: ", r.name)?;
        let mut first = true;
        for (name, rel) in &r.tuple_vars {
            if !first {
                write!(f, " && ")?;
            }
            write!(f, "{}({})", self.schema.relation(*rel).name, name)?;
            first = false;
        }
        for x in &r.vertex_vars {
            if !first {
                write!(f, " && ")?;
            }
            write!(f, "vertex({x})")?;
            first = false;
        }
        for p in &r.precondition {
            if !first {
                write!(f, " && ")?;
            }
            self.fmt_pred(f, p)?;
            first = false;
        }
        write!(f, " -> ")?;
        self.fmt_pred(f, &r.consequence)
    }
}

impl RuleDisplay<'_> {
    fn var_name(&self, v: VarId) -> &str {
        &self.rule.tuple_vars[v].0
    }

    fn vertex_name(&self, x: VertexVarId) -> &str {
        &self.rule.vertex_vars[x]
    }

    fn attr_name(&self, v: VarId, a: rock_data::AttrId) -> &str {
        self.schema.relation(self.rule.rel_of(v)).attr_name(a)
    }

    fn attr_list(&self, v: VarId, attrs: &[rock_data::AttrId]) -> String {
        attrs
            .iter()
            .map(|a| self.attr_name(v, *a).to_owned())
            .collect::<Vec<_>>()
            .join(",")
    }

    fn fmt_pred(&self, f: &mut fmt::Formatter<'_>, p: &Predicate) -> fmt::Result {
        use Predicate::*;
        match p {
            Const {
                var,
                attr,
                op,
                value,
            } => write!(
                f,
                "{}.{} {} '{}'",
                self.var_name(*var),
                self.attr_name(*var, *attr),
                op,
                value
            ),
            Attr {
                lvar,
                lattr,
                op,
                rvar,
                rattr,
            } => write!(
                f,
                "{}.{} {} {}.{}",
                self.var_name(*lvar),
                self.attr_name(*lvar, *lattr),
                op,
                self.var_name(*rvar),
                self.attr_name(*rvar, *rattr)
            ),
            Ml {
                model,
                lvar,
                lattrs,
                rvar,
                rattrs,
            } => write!(
                f,
                "ml:{}({}[{}], {}[{}])",
                model.name,
                self.var_name(*lvar),
                self.attr_list(*lvar, lattrs),
                self.var_name(*rvar),
                self.attr_list(*rvar, rattrs)
            ),
            Temporal {
                lvar,
                rvar,
                attr,
                strict,
            } => write!(
                f,
                "{} {}[{}] {}",
                self.var_name(*lvar),
                if *strict { "<" } else { "<=" },
                self.attr_name(*lvar, *attr),
                self.var_name(*rvar)
            ),
            MlRank {
                model,
                lvar,
                rvar,
                attr,
                strict,
            } => write!(
                f,
                "rank:{}({}, {}, {}[{}])",
                model.name,
                self.var_name(*lvar),
                self.var_name(*rvar),
                if *strict { "<" } else { "<=" },
                self.attr_name(*lvar, *attr)
            ),
            Her { model, tvar, xvar } => write!(
                f,
                "her:{}({}, {})",
                model.name,
                self.var_name(*tvar),
                self.vertex_name(*xvar)
            ),
            PathMatch {
                tvar,
                attr,
                xvar,
                path,
            } => write!(
                f,
                "match({}.{}, {}.{})",
                self.var_name(*tvar),
                self.attr_name(*tvar, *attr),
                self.vertex_name(*xvar),
                path
            ),
            ValExtract {
                tvar,
                attr,
                xvar,
                path,
            } => write!(
                f,
                "{}.{} = val({}.{})",
                self.var_name(*tvar),
                self.attr_name(*tvar, *attr),
                self.vertex_name(*xvar),
                path
            ),
            CorrConst {
                model,
                var,
                evidence,
                target,
                value,
                delta,
            } => write!(
                f,
                "corr:{}({}[{}], {}.{}='{}') >= {}",
                model.name,
                self.var_name(*var),
                self.attr_list(*var, evidence),
                self.var_name(*var),
                self.attr_name(*var, *target),
                value,
                delta
            ),
            CorrAttr {
                model,
                var,
                evidence,
                target,
                delta,
            } => write!(
                f,
                "corr:{}({}[{}], {}.{}) >= {}",
                model.name,
                self.var_name(*var),
                self.attr_list(*var, evidence),
                self.var_name(*var),
                self.attr_name(*var, *target),
                delta
            ),
            Predict {
                model,
                var,
                evidence,
                target,
            } => write!(
                f,
                "{}.{} = predict:{}({}[{}])",
                self.var_name(*var),
                self.attr_name(*var, *target),
                model.name,
                self.var_name(*var),
                self.attr_list(*var, evidence)
            ),
            IsNull { var, attr } => write!(
                f,
                "null({}.{})",
                self.var_name(*var),
                self.attr_name(*var, *attr)
            ),
            EidCmp { lvar, rvar, eq } => write!(
                f,
                "{}.eid {} {}.eid",
                self.var_name(*lvar),
                if *eq { "=" } else { "!=" },
                self.var_name(*rvar)
            ),
        }
    }
}

/// A set Σ of REE++s.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    pub rules: Vec<Rule>,
}

impl RuleSet {
    pub fn new(rules: Vec<Rule>) -> Self {
        RuleSet { rules }
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    pub fn push(&mut self, r: Rule) {
        self.rules.push(r);
    }

    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter()
    }

    pub fn get(&self, name: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// Resolve all model references.
    pub fn resolve(&mut self, registry: &ModelRegistry) -> Result<(), String> {
        for r in &mut self.rules {
            r.resolve(registry)?;
        }
        Ok(())
    }

    /// The RocknoML ablation: drop every rule that uses an ML predicate.
    pub fn without_ml(&self) -> RuleSet {
        RuleSet::new(
            self.rules
                .iter()
                .filter(|r| !r.uses_ml())
                .cloned()
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CmpOp;
    use rock_data::{AttrId, AttrType, RelationSchema};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new(vec![RelationSchema::of(
            "Trans",
            &[("com", AttrType::Str), ("mfg", AttrType::Str)],
        )])
    }

    /// φ2: Trans(t) ∧ Trans(s) ∧ t.com = s.com → t.mfg = s.mfg
    fn phi2() -> Rule {
        Rule::new(
            "phi2",
            vec![("t".into(), RelId(0)), ("s".into(), RelId(0))],
            vec![],
            vec![Predicate::Attr {
                lvar: 0,
                lattr: AttrId(0),
                op: CmpOp::Eq,
                rvar: 1,
                rattr: AttrId(0),
            }],
            Predicate::Attr {
                lvar: 0,
                lattr: AttrId(1),
                op: CmpOp::Eq,
                rvar: 1,
                rattr: AttrId(1),
            },
        )
    }

    use rock_data::RelId;

    #[test]
    fn var_lookup_and_validation() {
        let r = phi2();
        assert_eq!(r.var("t"), Some(0));
        assert_eq!(r.var("s"), Some(1));
        assert_eq!(r.var("x"), None);
        assert!(r.validate(&schema()).is_ok());
    }

    #[test]
    fn validation_rejects_unbound_var() {
        let mut r = phi2();
        r.consequence = Predicate::EidCmp {
            lvar: 0,
            rvar: 5,
            eq: true,
        };
        assert!(r.validate(&schema()).unwrap_err().contains("unbound"));
    }

    #[test]
    fn validation_rejects_bad_attr() {
        let mut r = phi2();
        r.precondition.push(Predicate::IsNull {
            var: 0,
            attr: AttrId(9),
        });
        assert!(r.validate(&schema()).unwrap_err().contains("out of range"));
    }

    #[test]
    fn display_is_dsl_syntax() {
        let s = schema();
        let r = phi2();
        assert_eq!(
            r.display(&s).to_string(),
            "rule phi2: Trans(t) && Trans(s) && t.com = s.com -> t.mfg = s.mfg"
        );
    }

    #[test]
    fn without_ml_filters() {
        let mut set = RuleSet::new(vec![phi2()]);
        let mut ml_rule = phi2();
        ml_rule.name = "ml".into();
        ml_rule.precondition.push(Predicate::Ml {
            model: ModelRef::named("MER"),
            lvar: 0,
            lattrs: vec![AttrId(0)],
            rvar: 1,
            rattrs: vec![AttrId(0)],
        });
        set.push(ml_rule);
        assert_eq!(set.len(), 2);
        assert_eq!(set.without_ml().len(), 1);
        assert!(set.get("ml").unwrap().uses_ml());
    }

    #[test]
    fn well_formedness_reports_typed_codes() {
        let s = schema();
        assert!(phi2().well_formedness(&s).is_empty());

        let mut r = phi2();
        r.consequence = Predicate::EidCmp {
            lvar: 0,
            rvar: 5,
            eq: true,
        };
        let ds = r.well_formedness(&s);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::UnboundTupleVar);
        assert_eq!(ds[0].severity, crate::diag::Severity::Error);

        let mut r = phi2();
        r.precondition.push(Predicate::Const {
            var: 0,
            attr: rock_data::AttrId(0),
            op: crate::op::CmpOp::Eq,
            value: Value::Int(7),
        });
        let ds = r.well_formedness(&s);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::ConstTypeMismatch);
        // extended codes don't fail the classic wrapper
        assert!(r.validate(&s).is_ok());
    }

    #[test]
    fn well_formedness_flags_ml_sanity() {
        let s = schema();
        let mut r = phi2();
        r.precondition.push(Predicate::Ml {
            model: ModelRef::named("M"),
            lvar: 0,
            lattrs: vec![],
            rvar: 1,
            rattrs: vec![AttrId(0)],
        });
        let ds = r.well_formedness(&s);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::EmptyMlAttrs);

        let mut r = phi2();
        r.precondition.push(Predicate::CorrConst {
            model: ModelRef::named("Mc"),
            var: 0,
            evidence: vec![AttrId(0)],
            target: AttrId(1),
            value: Value::str("x"),
            delta: 1.5,
        });
        let ds = r.well_formedness(&s);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::BadThreshold);
    }

    #[test]
    fn resolve_unknown_model_errors() {
        let reg = ModelRegistry::new();
        let mut r = phi2();
        r.precondition.push(Predicate::Ml {
            model: ModelRef::named("nope"),
            lvar: 0,
            lattrs: vec![],
            rvar: 1,
            rattrs: vec![],
        });
        assert!(r.resolve(&reg).unwrap_err().contains("unknown ML model"));
    }
}
