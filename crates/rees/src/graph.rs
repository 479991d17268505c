//! Pass 3 — the rule-dependency graph and inter-rule diagnostics.
//!
//! Edges run from a rule's *consequence action* to every rule whose
//! *precondition reads* it can change: value writes (`SetCell` /
//! `EquateCells` targets) feed value reads, order writes (temporal
//! consequences) feed temporal reads, and merge consequences feed every
//! rule touching a mergeable relation (a merge can rewrite any validated
//! attribute of the united class, so it is ⊤ over those relations).
//!
//! The graph doubles as the chase's activation filter (every chase builds
//! it with [`RuleGraph::derive`] and filters its activation through it):
//!
//! * [`RuleGraph::dead`] — rules that provably never extend the fix
//!   store: unsatisfiable or malformed preconditions, and reflexive
//!   merge consequences (`t.eid = t.eid` is a union–find no-op). The
//!   chase drops them from activation entirely. This is deliberately a
//!   *subset* of the rules `W201` warns about: a rule whose equality
//!   consequence restates its precondition still *validates* cells
//!   (which strict gating can observe), so it is dead weight but not
//!   skip-safe.
//! * [`RuleGraph::follows_writes`] — rules whose written cells another
//!   rule (or a merge) can also write. Their proposals participate in
//!   conflict clusters with other writers, so they must stay active
//!   whenever the store changed; everything else re-activates only when
//!   its own reads or relations saw a delta.
//! * [`RuleGraph::rels`] — relations each rule binds, intersected with
//!   the round's tuple-level delta.

use crate::{CmpOp, DiagCode, Diagnostic, Predicate, Rule, RuleSet, Severity};
use rock_data::{AttrId, DatabaseSchema, RelId};

/// The rule-dependency graph over a ruleset (see module docs).
#[derive(Debug, Clone, Default)]
pub struct RuleGraph {
    pub nrules: usize,
    /// Relations each rule binds (sorted, deduped).
    pub rels: Vec<Vec<RelId>>,
    /// `(relation, attribute)` cells each rule's consequence can write.
    pub cell_writes: Vec<Vec<(RelId, AttrId)>>,
    /// Rules whose consequence merges entities (`t.eid = s.eid`).
    pub merge_rule: Vec<bool>,
    /// Skip-safe rules: provably never extend the fix store.
    pub dead: Vec<bool>,
    /// `subsumed_by[i] = Some(j)` — rule `i` can never fire without rule
    /// `j` firing on the same valuation with the same consequence.
    pub subsumed_by: Vec<Option<usize>>,
    /// Rules that must re-activate whenever any round committed a write
    /// (their proposals cluster with other writers of the same cells).
    pub follows_writes: Vec<bool>,
    /// Action → read edges `(writer, reader)`, writer ≠ reader.
    pub edges: Vec<(usize, usize)>,
}

impl RuleGraph {
    /// The graph the chase activates through: malformed rules
    /// (error-severity well-formedness) and locally unsatisfiable ones are
    /// masked exactly as `rock-analyze`'s first two passes mask them, so
    /// the chase and the analyzer agree on which rules are live.
    pub fn derive(rules: &RuleSet, schema: &DatabaseSchema) -> RuleGraph {
        let has_error = |ds: Vec<Diagnostic>| ds.iter().any(|d| d.severity == Severity::Error);
        let malformed: Vec<bool> = rules
            .iter()
            .map(|r| has_error(r.well_formedness(schema)))
            .collect();
        let unsat: Vec<bool> = rules
            .iter()
            .zip(&malformed)
            .map(|(r, &bad)| !bad && has_error(crate::sat::check_rule(r)))
            .collect();
        RuleGraph::build_masked(rules, schema, &malformed, &unsat)
    }

    /// Build with per-rule masks from the earlier passes: `malformed`
    /// rules are excluded from every computation (their variable indices
    /// cannot be trusted), `unsat` rules join the dead set.
    pub fn build_masked(
        rules: &RuleSet,
        _schema: &DatabaseSchema,
        malformed: &[bool],
        unsat: &[bool],
    ) -> RuleGraph {
        let n = rules.len();
        let rs: Vec<&Rule> = rules.iter().collect();

        let mut rels = vec![Vec::new(); n];
        let mut cell_writes = vec![Vec::new(); n];
        let mut merge_rule = vec![false; n];
        let mut dead = vec![false; n];
        for i in 0..n {
            dead[i] = malformed[i] || unsat[i];
            if malformed[i] {
                continue;
            }
            let r = rs[i];
            let mut rr: Vec<RelId> = r.tuple_vars.iter().map(|(_, rel)| *rel).collect();
            rr.sort_unstable();
            rr.dedup();
            rels[i] = rr;
            cell_writes[i] = consequence_cell_writes(r);
            merge_rule[i] = matches!(r.consequence, Predicate::EidCmp { eq: true, .. });
            if reflexive_merge(&r.consequence) || inert_merge(r) {
                dead[i] = true;
            }
        }

        // Relations any merge consequence can touch: a merge validated on
        // (R, S) can rewrite validated attributes of either side's class.
        let mut merge_rels: Vec<RelId> = Vec::new();
        for i in 0..n {
            if merge_rule[i] && !dead[i] {
                if let Predicate::EidCmp { lvar, rvar, .. } = rs[i].consequence {
                    merge_rels.push(rs[i].rel_of(lvar));
                    merge_rels.push(rs[i].rel_of(rvar));
                }
            }
        }
        merge_rels.sort_unstable();
        merge_rels.dedup();

        let mut follows_writes = vec![false; n];
        for i in 0..n {
            if dead[i] || cell_writes[i].is_empty() {
                continue;
            }
            follows_writes[i] = (0..n).any(|j| {
                j != i
                    && !dead[j]
                    && (cell_writes[j].iter().any(|c| cell_writes[i].contains(c))
                        || (merge_rule[j]
                            && cell_writes[i]
                                .iter()
                                .any(|(r, _)| merge_rels.binary_search(r).is_ok())))
            });
        }

        let mut subsumed_by = vec![None; n];
        for i in 0..n {
            if dead[i] || malformed[i] || unsat[i] {
                continue;
            }
            for j in 0..n {
                if i == j || dead[j] || malformed[j] || unsat[j] {
                    continue;
                }
                if covers(rs[j], rs[i]) && (!covers(rs[i], rs[j]) || j < i) {
                    subsumed_by[i] = Some(j);
                    break;
                }
            }
        }

        let reads = per_live_rule(&rs, &dead, value_reads);
        let order_r = per_live_rule(&rs, &dead, order_reads);
        let order_w = per_live_rule(&rs, &dead, order_writes);
        let mut edges = Vec::new();
        for i in 0..n {
            if dead[i] {
                continue;
            }
            for j in 0..n {
                if i == j || dead[j] {
                    continue;
                }
                let value_edge = cell_writes[i].iter().any(|c| reads[j].contains(c));
                let order_edge = order_w[i].iter().any(|c| order_r[j].contains(c));
                let merge_edge =
                    merge_rule[i] && rels[i].iter().any(|r| rels[j].binary_search(r).is_ok());
                if value_edge || order_edge || merge_edge {
                    edges.push((i, j));
                }
            }
        }

        RuleGraph {
            nrules: n,
            rels,
            cell_writes,
            merge_rule,
            dead,
            subsumed_by,
            follows_writes,
            edges,
        }
    }

    /// The inter-rule diagnostics (`W201`/`W202`). Confluence hazards
    /// (`W203`) moved to the certify pass, which upgrades the pairwise
    /// overlap check to critical-pair co-satisfiability.
    pub fn diagnose(&self, rules: &RuleSet, _schema: &DatabaseSchema) -> Vec<Diagnostic> {
        let rs: Vec<&Rule> = rules.iter().collect();
        let mut out = Vec::new();
        // W201 — dead weight: the consequence cannot add information.
        for (i, r) in rs.iter().enumerate() {
            if self.rels[i].is_empty() && self.cell_writes[i].is_empty() && self.dead[i] {
                continue; // malformed/unsat: already reported with errors
            }
            let span = r.spans.consequence;
            if r.precondition.contains(&r.consequence) {
                out.push(Diagnostic::new(
                    DiagCode::DeadRule,
                    &r.name,
                    span,
                    "consequence already appears in the precondition — the rule can \
                     only restate what it matched"
                        .to_owned(),
                ));
            } else if trivial_consequence(&r.consequence) {
                out.push(Diagnostic::new(
                    DiagCode::DeadRule,
                    &r.name,
                    span,
                    format!("consequence {} is trivially satisfied", r.consequence),
                ));
            }
        }
        // W202 — subsumption.
        for (i, r) in rs.iter().enumerate() {
            if let Some(j) = self.subsumed_by[i] {
                out.push(
                    Diagnostic::new(
                        DiagCode::SubsumedRule,
                        &r.name,
                        r.spans.rule,
                        format!(
                            "rule '{}' has the same consequence under a weaker \
                             precondition — '{}' never fires alone",
                            rs[j].name, r.name
                        ),
                    )
                    .with_note(format!("subsumed by rule '{}'", rs[j].name)),
                );
            }
        }
        out
    }
}

/// `cells(r)` of every rule not `dead`, derived once; empty for dead rules
/// (a malformed rule's variable indices cannot be trusted).
pub(crate) fn per_live_rule(
    rs: &[&Rule],
    dead: &[bool],
    cells: fn(&Rule) -> Vec<(RelId, AttrId)>,
) -> Vec<Vec<(RelId, AttrId)>> {
    rs.iter()
        .zip(dead)
        .map(|(r, &d)| if d { Vec::new() } else { cells(r) })
        .collect()
}

/// Cells a consequence writes when it fires (mirrors the chase's
/// `propose()`: only these consequence shapes produce cell proposals).
pub fn consequence_cell_writes(r: &Rule) -> Vec<(RelId, AttrId)> {
    let mut out = match &r.consequence {
        Predicate::Const {
            var,
            attr,
            op: CmpOp::Eq,
            ..
        } => vec![(r.rel_of(*var), *attr)],
        Predicate::Attr {
            lvar,
            lattr,
            op: CmpOp::Eq,
            rvar,
            rattr,
        } => vec![(r.rel_of(*lvar), *lattr), (r.rel_of(*rvar), *rattr)],
        Predicate::ValExtract { tvar, attr, .. } => vec![(r.rel_of(*tvar), *attr)],
        Predicate::Predict { var, target, .. } => vec![(r.rel_of(*var), *target)],
        _ => Vec::new(),
    };
    out.sort_unstable();
    out.dedup();
    out
}

/// `(relation, attribute)` cells the precondition reads as values.
pub fn value_reads(r: &Rule) -> Vec<(RelId, AttrId)> {
    let mut out = Vec::new();
    for p in &r.precondition {
        for v in p.tuple_vars() {
            let rel = r.rel_of(v);
            for a in p.reads_of(v) {
                out.push((rel, a));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Attributes whose validated *order* the precondition consults.
pub fn order_reads(r: &Rule) -> Vec<(RelId, AttrId)> {
    let mut out = Vec::new();
    for p in &r.precondition {
        if let Predicate::Temporal { lvar, attr, .. } | Predicate::MlRank { lvar, attr, .. } = p {
            out.push((r.rel_of(*lvar), *attr));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Attributes whose validated order the consequence extends.
pub fn order_writes(r: &Rule) -> Vec<(RelId, AttrId)> {
    match &r.consequence {
        Predicate::Temporal { lvar, attr, .. } => vec![(r.rel_of(*lvar), *attr)],
        _ => Vec::new(),
    }
}

/// Cells whose *current values* the consequence reads to produce its
/// write — the data-flow sources of a fix. An `Attr`-equality consequence
/// copies between its two cells (either side can be the repair source
/// under §3.2's accuracy ordering), a `Predict` consequence reads the
/// evidence attributes it conditions on; constant and KG-extraction
/// consequences synthesize their value from outside the database.
pub fn consequence_value_sources(r: &Rule) -> Vec<(RelId, AttrId)> {
    let mut out = match &r.consequence {
        Predicate::Attr {
            lvar,
            lattr,
            op: CmpOp::Eq,
            rvar,
            rattr,
        } => vec![(r.rel_of(*lvar), *lattr), (r.rel_of(*rvar), *rattr)],
        Predicate::Predict { var, evidence, .. } => {
            evidence.iter().map(|a| (r.rel_of(*var), *a)).collect()
        }
        _ => Vec::new(),
    };
    out.sort_unstable();
    out.dedup();
    out
}

/// `t.eid = t.eid` — a union–find no-op, always skip-safe.
fn reflexive_merge(p: &Predicate) -> bool {
    matches!(p, Predicate::EidCmp { lvar, rvar, eq: true } if lvar == rvar)
}

/// `… && t.eid = s.eid … -> t.eid = s.eid` — merging a class with itself.
/// The precondition is evaluated over the *current* entity classes, so
/// whenever it holds the merge is already committed.
fn inert_merge(r: &Rule) -> bool {
    matches!(r.consequence, Predicate::EidCmp { eq: true, .. })
        && r.precondition.contains(&r.consequence)
}

/// Consequences satisfied by every tuple (`W201`, not skip-safe in
/// general — equality consequences still validate cells).
fn trivial_consequence(p: &Predicate) -> bool {
    match p {
        Predicate::Attr {
            lvar,
            lattr,
            op,
            rvar,
            rattr,
        } => lvar == rvar && lattr == rattr && matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge),
        Predicate::EidCmp { lvar, rvar, eq } => *eq && lvar == rvar,
        Predicate::Temporal {
            lvar,
            rvar,
            strict: false,
            ..
        } => lvar == rvar,
        _ => false,
    }
}

/// Does `weak` fire on every valuation `strong` fires on, with the same
/// consequence? Requires aligned variable signatures so predicate indices
/// mean the same thing in both rules.
fn covers(weak: &Rule, strong: &Rule) -> bool {
    if weak.name == strong.name {
        return false;
    }
    let same_rels = (weak.tuple_vars.iter().map(|(_, rel)| rel))
        .eq(strong.tuple_vars.iter().map(|(_, rel)| rel));
    if !same_rels
        || weak.vertex_vars.len() != strong.vertex_vars.len()
        || weak.consequence != strong.consequence
    {
        return false;
    }
    weak.precondition
        .iter()
        .all(|p| strong.precondition.contains(p))
}

/// The consequence `t.A = 'c'`, as `((var, attr), value)`.
pub fn const_eq_consequence(r: &Rule) -> Option<((usize, AttrId), &rock_data::Value)> {
    match &r.consequence {
        Predicate::Const {
            var,
            attr,
            op: CmpOp::Eq,
            value,
        } => Some(((*var, *attr), value)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_rules;
    use rock_data::{AttrType, RelationSchema};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new(vec![
            RelationSchema::of(
                "T",
                &[
                    ("city", AttrType::Str),
                    ("code", AttrType::Str),
                    ("pop", AttrType::Int),
                ],
            ),
            RelationSchema::of("U", &[("k", AttrType::Str), ("v", AttrType::Str)]),
        ])
    }

    fn graph(text: &str) -> (RuleGraph, RuleSet, DatabaseSchema) {
        let s = schema();
        let rules = RuleSet::new(parse_rules(text, &s).expect("rules parse"));
        let g = RuleGraph::derive(&rules, &s);
        (g, rules, s)
    }

    #[test]
    fn reflexive_merge_is_dead_and_flagged() {
        let (g, rules, s) = graph(
            "rule d: T(t) && t.city = 'x' -> t.eid = t.eid\n\
                   rule ok: T(t) && T(u) && t.city = u.city -> t.code = u.code\n",
        );
        assert_eq!(g.dead, vec![true, false]);
        let ds = g.diagnose(&rules, &s);
        assert!(ds
            .iter()
            .any(|d| d.code == DiagCode::DeadRule && d.rule == "d"));
    }

    #[test]
    fn restated_consequence_is_w201_but_not_skip_safe() {
        let (g, rules, s) = graph("rule d: T(t) && T(u) && t.code = u.code -> t.code = u.code\n");
        assert_eq!(
            g.dead,
            vec![false],
            "equality consequences still validate cells"
        );
        let ds = g.diagnose(&rules, &s);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::DeadRule);
    }

    #[test]
    fn subsumption_flags_the_stronger_rule() {
        let (g, rules, s) = graph(
            "rule weak: T(t) && T(u) && t.city = u.city -> t.code = u.code\n\
             rule strong: T(t) && T(u) && t.city = u.city && t.pop = u.pop -> t.code = u.code\n",
        );
        assert_eq!(g.subsumed_by, vec![None, Some(0)]);
        let ds = g.diagnose(&rules, &s);
        let w202: Vec<_> = ds
            .iter()
            .filter(|d| d.code == DiagCode::SubsumedRule)
            .collect();
        assert_eq!(w202.len(), 1);
        assert_eq!(w202[0].rule, "strong");
    }

    #[test]
    fn consequence_sources_cover_copies_and_predictions() {
        let (_, rules, _) = graph(
            "rule fd: T(t) && T(u) && t.city = u.city -> t.code = u.code\n\
             rule cfd: T(t) && t.city = 'beijing' -> t.code = '010'\n",
        );
        let fd = rules.iter().next().expect("two rules");
        let srcs = consequence_value_sources(fd);
        assert_eq!(srcs.len(), 1, "both sides are the same (rel, attr) cell");
        let cfd = rules.iter().nth(1).expect("two rules");
        assert!(consequence_value_sources(cfd).is_empty());
    }

    #[test]
    fn edges_follow_writes_into_reads() {
        let (g, _, _) = graph(
            "rule fd: T(t) && T(u) && t.city = u.city -> t.code = u.code\n\
             rule use_code: T(t) && t.code = '010' -> t.pop = 1\n\
             rule unrelated: U(t) && U(u) && t.k = u.k -> t.v = u.v\n",
        );
        assert!(
            g.edges.contains(&(0, 1)),
            "fd writes code, use_code reads it"
        );
        assert!(g.edges.iter().all(|&(i, j)| i != 2 && j != 2));
        // fd and use_code both write T cells? fd writes code, use_code pop —
        // disjoint, and no merge rules: nothing must follow writes.
        assert_eq!(g.follows_writes, vec![false, false, false]);
    }

    #[test]
    fn merge_makes_writers_follow() {
        let (g, _, _) = graph(
            "rule er: T(t) && T(u) && t.city = u.city -> t.eid = u.eid\n\
             rule fd: T(t) && T(u) && t.city = u.city -> t.code = u.code\n\
             rule other: U(t) && U(u) && t.k = u.k -> t.v = u.v\n",
        );
        assert!(g.merge_rule[0]);
        assert!(g.follows_writes[1], "a T merge can rewrite fd's cells");
        assert!(!g.follows_writes[2], "U is not mergeable here");
    }
}
