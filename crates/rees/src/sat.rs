//! Pass 2 — local satisfiability of a rule's precondition.
//!
//! Purely syntactic abstract interpretation of the conjunction: constants
//! are compared with the engine's own SQL semantics (`CmpOp::eval`,
//! `Value::sql_cmp`), attribute–attribute comparisons are abstracted to
//! the set of orderings they admit, and reflexive predicates are
//! special-cased. A precondition flagged here can never hold on *any*
//! database, so the rule never fires — error severity (`E101`–`E103`) —
//! while trivially-true predicates are dead weight but harmless (`W104`).
//!
//! All checks are pairwise: `t.a > 5 && t.a < 3` is caught, the
//! three-way-only contradictions a full constraint solver would find are
//! deliberately out of scope (they do not occur in discovered rules,
//! whose preconditions are conjunctions of at most a handful of mined
//! predicates).

use crate::{CmpOp, DiagCode, Diagnostic, Predicate, Rule};
use rock_data::Value;
use std::cmp::Ordering;

/// Orderings a comparison admits, as a bitmask over {Less, Equal, Greater}.
const LESS: u8 = 1;
const EQUAL: u8 = 2;
const GREATER: u8 = 4;

fn admitted(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => EQUAL,
        CmpOp::Neq => LESS | GREATER,
        CmpOp::Lt => LESS,
        CmpOp::Le => LESS | EQUAL,
        CmpOp::Gt => GREATER,
        CmpOp::Ge => GREATER | EQUAL,
    }
}

/// The operator as seen with its operands swapped (`a < b` ⇔ `b > a`).
fn mirror(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Neq => CmpOp::Neq,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Check one rule's precondition; returns every `E101`/`E102`/`E103`/`W104`
/// it warrants. The caller guarantees the rule is well-formed (variable and
/// attribute indices valid).
pub fn check_rule(rule: &Rule) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_reflexive(rule, &mut out);
    check_consts(rule, &mut out);
    check_attr_pairs(rule, &mut out);
    check_null_overlap(rule, &mut out);
    out
}

/// E103/W104: predicates comparing a cell (or eid) with itself.
fn check_reflexive(rule: &Rule, out: &mut Vec<Diagnostic>) {
    for (i, p) in rule.precondition.iter().enumerate() {
        let span = rule.spans.precondition(i);
        match p {
            Predicate::Attr {
                lvar,
                lattr,
                op,
                rvar,
                rattr,
            } if lvar == rvar && lattr == rattr => match op {
                CmpOp::Neq | CmpOp::Lt | CmpOp::Gt => out.push(Diagnostic::new(
                    DiagCode::ReflexiveNeverTrue,
                    &rule.name,
                    span,
                    format!("{p} compares a cell with itself and can never hold"),
                )),
                CmpOp::Eq | CmpOp::Le | CmpOp::Ge => out.push(Diagnostic::new(
                    DiagCode::TriviallyTrue,
                    &rule.name,
                    span,
                    format!("{p} compares a cell with itself and only filters nulls"),
                )),
            },
            Predicate::EidCmp { lvar, rvar, eq } if lvar == rvar => {
                if *eq {
                    out.push(Diagnostic::new(
                        DiagCode::TriviallyTrue,
                        &rule.name,
                        span,
                        format!("{p} compares a tuple's entity with itself and is always true"),
                    ));
                } else {
                    out.push(Diagnostic::new(
                        DiagCode::ReflexiveNeverTrue,
                        &rule.name,
                        span,
                        format!("{p} requires a tuple's entity to differ from itself"),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// E101/E102: contradictory constant predicates on the same cell.
fn check_consts(rule: &Rule, out: &mut Vec<Diagnostic>) {
    let consts: Vec<(usize, usize, rock_data::AttrId, CmpOp, &Value)> = rule
        .precondition
        .iter()
        .enumerate()
        .filter_map(|(i, p)| match p {
            Predicate::Const {
                var,
                attr,
                op,
                value,
            } => Some((i, *var, *attr, *op, value)),
            _ => None,
        })
        .collect();
    for (a, &(i, vi, ai, opi, ci)) in consts.iter().enumerate() {
        for &(j, vj, aj, opj, cj) in &consts[a + 1..] {
            if vi != vj || ai != aj {
                continue;
            }
            let span = rule.spans.precondition(j);
            let other = &rule.precondition[i];
            match (opi, opj) {
                (CmpOp::Eq, CmpOp::Eq) if !ci.sql_eq(cj) => {
                    out.push(
                        Diagnostic::new(
                            DiagCode::UnsatConstEq,
                            &rule.name,
                            span,
                            format!(
                                "cell is bound to '{cj}' here but to '{ci}' earlier \
                                 in the same precondition"
                            ),
                        )
                        .with_note(format!("conflicts with {other}")),
                    );
                }
                (CmpOp::Eq, CmpOp::Eq) => {}
                // an equality fixes the value; any other constant
                // comparison on the cell must accept it
                (CmpOp::Eq, _) | (_, CmpOp::Eq) => {
                    let (eq_v, cmp_op, cmp_v) = if opi == CmpOp::Eq {
                        (ci, opj, cj)
                    } else {
                        (cj, opi, ci)
                    };
                    if !cmp_op.eval(eq_v, cmp_v) {
                        out.push(
                            Diagnostic::new(
                                DiagCode::UnsatCompare,
                                &rule.name,
                                span,
                                format!(
                                    "cell is fixed to '{eq_v}' but also required \
                                     {cmp_op} '{cmp_v}'"
                                ),
                            )
                            .with_note(format!("conflicts with {other}")),
                        );
                    }
                }
                // a lower bound above an upper bound empties the interval
                (CmpOp::Gt | CmpOp::Ge, CmpOp::Lt | CmpOp::Le)
                | (CmpOp::Lt | CmpOp::Le, CmpOp::Gt | CmpOp::Ge) => {
                    let (lo, lo_op, hi, hi_op) = if matches!(opi, CmpOp::Gt | CmpOp::Ge) {
                        (ci, opi, cj, opj)
                    } else {
                        (cj, opj, ci, opi)
                    };
                    let strict = lo_op == CmpOp::Gt || hi_op == CmpOp::Lt;
                    let empty = match lo.sql_cmp(hi) {
                        Some(Ordering::Greater) => true,
                        Some(Ordering::Equal) => strict,
                        _ => false,
                    };
                    if empty {
                        out.push(
                            Diagnostic::new(
                                DiagCode::UnsatCompare,
                                &rule.name,
                                span,
                                format!(
                                    "bounds {lo_op} '{lo}' and {hi_op} '{hi}' leave \
                                     no possible value"
                                ),
                            )
                            .with_note(format!("conflicts with {other}")),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// An attribute–attribute comparison with its operands in canonical order:
/// the predicate's index, the lesser and greater `(var, attr)` operand, and
/// the operator as it reads in that order.
type AttrCmp = (
    usize,
    (usize, rock_data::AttrId),
    (usize, rock_data::AttrId),
    CmpOp,
);

/// E102: attribute–attribute comparisons on the same operand pair whose
/// admitted orderings are disjoint (`t.a < s.b && t.a > s.b`).
fn check_attr_pairs(rule: &Rule, out: &mut Vec<Diagnostic>) {
    let attrs: Vec<AttrCmp> = rule
        .precondition
        .iter()
        .enumerate()
        .filter_map(|(i, p)| match p {
            Predicate::Attr {
                lvar,
                lattr,
                op,
                rvar,
                rattr,
            } if (lvar, lattr) != (rvar, rattr) => {
                // normalize operand order so mirrored writings compare equal
                let (l, r) = ((*lvar, *lattr), (*rvar, *rattr));
                if l <= r {
                    Some((i, l, r, *op))
                } else {
                    Some((i, r, l, mirror(*op)))
                }
            }
            _ => None,
        })
        .collect();
    for (a, &(i, li, ri, opi)) in attrs.iter().enumerate() {
        for &(j, lj, rj, opj) in &attrs[a + 1..] {
            if li != lj || ri != rj {
                continue;
            }
            if admitted(opi) & admitted(opj) == 0 {
                out.push(
                    Diagnostic::new(
                        DiagCode::UnsatCompare,
                        &rule.name,
                        rule.spans.precondition(j),
                        format!(
                            "{} contradicts an earlier comparison of the same cells",
                            rule.precondition[j]
                        ),
                    )
                    .with_note(format!("conflicts with {}", rule.precondition[i])),
                );
            }
        }
    }
}

/// E102: `null(t.A)` conjoined with any comparison reading `t.A` — the
/// comparison needs a non-null value, the null check forbids one.
fn check_null_overlap(rule: &Rule, out: &mut Vec<Diagnostic>) {
    let nulls: Vec<(usize, usize, rock_data::AttrId)> = rule
        .precondition
        .iter()
        .enumerate()
        .filter_map(|(i, p)| match p {
            Predicate::IsNull { var, attr } => Some((i, *var, *attr)),
            _ => None,
        })
        .collect();
    if nulls.is_empty() {
        return;
    }
    for (j, p) in rule.precondition.iter().enumerate() {
        if !matches!(p, Predicate::Const { .. } | Predicate::Attr { .. }) {
            continue;
        }
        for v in p.tuple_vars() {
            for a in p.reads_of(v) {
                if let Some(&(i, ..)) = nulls
                    .iter()
                    .find(|&&(ni, nv, na)| nv == v && na == a && ni != j)
                {
                    out.push(
                        Diagnostic::new(
                            DiagCode::UnsatCompare,
                            &rule.name,
                            rule.spans.precondition(j),
                            format!(
                                "{p} compares a cell that null({}) requires to be null",
                                rule.precondition[i]
                            ),
                        )
                        .with_note("comparisons with null are always false".to_owned()),
                    );
                }
            }
        }
    }
}

/// Outcome of the critical-pair co-satisfiability check (the certify
/// pass's upgrade of `W203`): can a *single tuple* satisfy the constant
/// constraints both rules place on their written variable?
#[derive(Debug, Clone, PartialEq)]
pub enum CoSat {
    /// Proven exclusive: the merged constant constraints contradict, so
    /// no tuple fires both rules and the competing writes cannot race.
    Exclusive,
    /// Proven co-satisfiable, with a concrete witness tuple (one value
    /// per attribute of the shared relation) on which both preconditions
    /// hold — the seed instance for a provenance-backed counterexample.
    Witness(Vec<Value>),
    /// Neither provable: the preconditions involve predicates outside
    /// the constant/interval fragment (joins, ML, temporal), so the pair
    /// stays a hazard but no counterexample can be synthesized.
    Unknown,
}

/// One constant constraint on an attribute of the written tuple.
#[derive(Debug, Clone, Copy)]
enum Constraint<'a> {
    Cmp(CmpOp, &'a Value),
    Null,
}

/// Do two constant constraints on the same cell contradict? The same
/// interval/equality reasoning `check_consts` applies within one rule,
/// here applied across the merged pair.
fn constraints_conflict(a: Constraint<'_>, b: Constraint<'_>) -> bool {
    match (a, b) {
        // SQL semantics: every comparison with a null cell is false.
        (Constraint::Null, Constraint::Cmp(..)) | (Constraint::Cmp(..), Constraint::Null) => true,
        (Constraint::Null, Constraint::Null) => false,
        (Constraint::Cmp(opa, ca), Constraint::Cmp(opb, cb)) => match (opa, opb) {
            (CmpOp::Eq, CmpOp::Eq) => !ca.sql_eq(cb),
            (CmpOp::Eq, op) => !op.eval(ca, cb),
            (op, CmpOp::Eq) => !op.eval(cb, ca),
            (CmpOp::Gt | CmpOp::Ge, CmpOp::Lt | CmpOp::Le)
            | (CmpOp::Lt | CmpOp::Le, CmpOp::Gt | CmpOp::Ge) => {
                let (lo, lo_op, hi, hi_op) = if matches!(opa, CmpOp::Gt | CmpOp::Ge) {
                    (ca, opa, cb, opb)
                } else {
                    (cb, opb, ca, opa)
                };
                let strict = lo_op == CmpOp::Gt || hi_op == CmpOp::Lt;
                match lo.sql_cmp(hi) {
                    Some(Ordering::Greater) => true,
                    Some(Ordering::Equal) => strict,
                    _ => false,
                }
            }
            _ => false,
        },
    }
}

/// Does `v` satisfy every constraint in `cs`?
fn satisfies_all(v: &Value, cs: &[Constraint<'_>]) -> bool {
    cs.iter().all(|c| match *c {
        Constraint::Null => v.is_null(),
        Constraint::Cmp(op, cv) => op.eval(v, cv),
    })
}

/// Collect the constant constraints rule `r` places on tuple variable
/// `var`, keyed by attribute. Returns `None` when the rule's precondition
/// reaches outside the constant fragment for this variable (any
/// non-`Const`/`IsNull` predicate touching `var`) — exclusivity reasoning
/// over the collected subset is still sound, but no witness can be built.
fn const_constraints(r: &Rule, var: usize) -> (Vec<(rock_data::AttrId, Constraint<'_>)>, bool) {
    let mut out = Vec::new();
    let mut closed = true;
    for p in &r.precondition {
        match p {
            Predicate::Const {
                var: v,
                attr,
                op,
                value,
            } if *v == var => out.push((*attr, Constraint::Cmp(*op, value))),
            Predicate::IsNull { var: v, attr } if *v == var => out.push((*attr, Constraint::Null)),
            other => {
                if other.tuple_vars().contains(&var) {
                    closed = false;
                }
            }
        }
    }
    (out, closed)
}

/// Critical-pair co-satisfiability: rules `a` and `b` both write a cell of
/// the relation bound by `a`'s variable `avar` / `b`'s variable `bvar`.
/// Merge the constant constraints both place on that tuple and decide
/// whether one tuple can fire both preconditions.
///
/// Soundness of `Exclusive` needs only the collected constant subset (a
/// contradiction in a subset of a conjunction kills the whole
/// conjunction). `Witness` is only returned when both rules bind a single
/// tuple variable and their preconditions stay inside the constant
/// fragment, so instantiating the witness tuple provably fires both.
pub fn co_satisfiable(
    a: &Rule,
    avar: usize,
    b: &Rule,
    bvar: usize,
    schema: &rock_data::DatabaseSchema,
) -> CoSat {
    let (ca, a_closed) = const_constraints(a, avar);
    let (cb, b_closed) = const_constraints(b, bvar);
    let mut merged: Vec<(rock_data::AttrId, Constraint<'_>)> = ca;
    merged.extend(cb);

    // Pairwise contradiction scan over the merged set.
    for (i, &(ai, ci)) in merged.iter().enumerate() {
        for &(aj, cj) in &merged[i + 1..] {
            if ai == aj && constraints_conflict(ci, cj) {
                return CoSat::Exclusive;
            }
        }
    }

    let witnessable = a_closed
        && b_closed
        && a.tuple_vars.len() == 1
        && b.tuple_vars.len() == 1
        && a.rel_of(avar) == b.rel_of(bvar);
    if !witnessable {
        return CoSat::Unknown;
    }

    let rel = schema.relation(a.rel_of(avar));
    let mut tuple = Vec::with_capacity(rel.arity());
    for aid in 0..rel.arity() {
        let aid = rock_data::AttrId(aid as u16);
        let cs: Vec<Constraint<'_>> = merged
            .iter()
            .filter(|(x, _)| *x == aid)
            .map(|(_, c)| *c)
            .collect();
        match solve_attr(&cs, rel.attr(aid).ty) {
            Some(v) => tuple.push(v),
            None => return CoSat::Unknown,
        }
    }
    CoSat::Witness(tuple)
}

/// One value satisfying every constraint in `cs`, if the fragment can
/// construct one. Unconstrained attributes stay `Null` (nothing reads
/// them); a returned `None` means "not provable", never "unsatisfiable".
fn solve_attr(cs: &[Constraint<'_>], ty: rock_data::AttrType) -> Option<Value> {
    if cs.is_empty() || cs.iter().any(|c| matches!(c, Constraint::Null)) {
        // The pairwise scan already rejected Null ∧ comparison.
        return satisfies_all(&Value::Null, cs).then_some(Value::Null);
    }
    if let Some(Constraint::Cmp(CmpOp::Eq, v)) = cs
        .iter()
        .find(|c| matches!(c, Constraint::Cmp(CmpOp::Eq, _)))
    {
        return satisfies_all(v, cs).then(|| (*v).clone());
    }
    match ty {
        rock_data::AttrType::Int => {
            // Interval sweep: start at the tightest lower bound (or below
            // the upper bound, or 0) and step past any != exclusions.
            let mut lo: Option<i64> = None;
            let mut hi: Option<i64> = None;
            for c in cs {
                if let Constraint::Cmp(op, Value::Int(k)) = c {
                    match op {
                        CmpOp::Gt => lo = Some(lo.map_or(k + 1, |l: i64| l.max(k + 1))),
                        CmpOp::Ge => lo = Some(lo.map_or(*k, |l: i64| l.max(*k))),
                        CmpOp::Lt => hi = Some(hi.map_or(k - 1, |h: i64| h.min(k - 1))),
                        CmpOp::Le => hi = Some(hi.map_or(*k, |h: i64| h.min(*k))),
                        _ => {}
                    }
                } else if !matches!(c, Constraint::Cmp(CmpOp::Neq, Value::Int(_))) {
                    return None; // mixed-type comparison: out of fragment
                }
            }
            let start = lo.or(hi).unwrap_or(0);
            (0..64)
                .map(|d| Value::Int(start.saturating_add(d)))
                .find(|v| satisfies_all(v, cs))
        }
        rock_data::AttrType::Str => {
            // Only != constraints are solvable here: synthesize a fresh
            // marker string outside the excluded set.
            if !cs
                .iter()
                .all(|c| matches!(c, Constraint::Cmp(CmpOp::Neq, _)))
            {
                return None;
            }
            (0..cs.len() + 1)
                .map(|i| Value::str(format!("__witness_{i}__")))
                .find(|v| satisfies_all(v, cs))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_rule;
    use rock_data::{AttrType, DatabaseSchema, RelationSchema};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[
                ("a", AttrType::Str),
                ("b", AttrType::Int),
                ("c", AttrType::Int),
            ],
        )])
    }

    fn check(text: &str) -> Vec<Diagnostic> {
        check_rule(&parse_rule(text, &schema()).expect("rule parses"))
    }

    #[test]
    fn conflicting_const_eq_is_e101() {
        let ds = check("rule r: T(t) && t.a = 'x' && t.a = 'y' -> t.b = 1");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::UnsatConstEq);
        assert!(check("rule r: T(t) && t.a = 'x' && t.a = 'x' -> t.b = 1").is_empty());
    }

    #[test]
    fn eq_vs_comparison_is_e102() {
        let ds = check("rule r: T(t) && t.b = 5 && t.b > 9 -> t.a = 'x'");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::UnsatCompare);
        let ds = check("rule r: T(t) && t.b != 5 && t.b = 5 -> t.a = 'x'");
        assert_eq!(ds.len(), 1);
        assert!(check("rule r: T(t) && t.b = 5 && t.b > 1 -> t.a = 'x'").is_empty());
    }

    #[test]
    fn empty_interval_is_e102() {
        let ds = check("rule r: T(t) && t.b > 5 && t.b < 3 -> t.a = 'x'");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::UnsatCompare);
        // touching bounds: strict empties, non-strict admits the point
        assert_eq!(
            check("rule r: T(t) && t.b >= 5 && t.b < 5 -> t.a = 'x'").len(),
            1
        );
        assert!(check("rule r: T(t) && t.b >= 5 && t.b <= 5 -> t.a = 'x'").is_empty());
    }

    #[test]
    fn reflexive_traps() {
        let ds = check("rule r: T(t) && t.a != t.a -> t.b = 1");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::ReflexiveNeverTrue);
        let ds = check("rule r: T(t) && t.a = t.a -> t.b = 1");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::TriviallyTrue);
        let ds = check("rule r: T(t) && t.eid != t.eid -> t.b = 1");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::ReflexiveNeverTrue);
    }

    #[test]
    fn contradictory_attr_pair_mirrored() {
        // written with operands swapped: t.b < s.b vs s.b < t.b
        let ds = check("rule r: T(t) && T(s) && t.b < s.b && s.b < t.b -> t.a = s.a");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::UnsatCompare);
        // <= both ways admits equality — satisfiable
        assert!(check("rule r: T(t) && T(s) && t.b <= s.b && s.b <= t.b -> t.a = s.a").is_empty());
    }

    #[test]
    fn null_overlap_is_e102() {
        let ds = check("rule r: T(t) && null(t.a) && t.a = 'x' -> t.b = 1");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::UnsatCompare);
        // null on a different attribute is fine (the MI idiom)
        assert!(check("rule r: T(t) && null(t.a) && t.b = 1 -> t.c = 2").is_empty());
    }

    fn cosat(ta: &str, tb: &str) -> CoSat {
        let s = schema();
        let a = parse_rule(ta, &s).expect("rule a parses");
        let b = parse_rule(tb, &s).expect("rule b parses");
        co_satisfiable(&a, 0, &b, 0, &s)
    }

    #[test]
    fn exclusive_guards_are_proven() {
        // disjoint Eq constants on the same cell
        assert_eq!(
            cosat(
                "rule a: T(t) && t.a = 'x' -> t.b = 1",
                "rule b: T(t) && t.a = 'y' -> t.b = 2",
            ),
            CoSat::Exclusive
        );
        // empty interval across the pair
        assert_eq!(
            cosat(
                "rule a: T(t) && t.b > 10 -> t.a = 'x'",
                "rule b: T(t) && t.b < 5 -> t.a = 'y'",
            ),
            CoSat::Exclusive
        );
        // null vs. comparison on the same cell
        assert_eq!(
            cosat(
                "rule a: T(t) && null(t.a) -> t.b = 1",
                "rule b: T(t) && t.a = 'x' -> t.b = 2",
            ),
            CoSat::Exclusive
        );
    }

    #[test]
    fn overlapping_intervals_yield_a_witness() {
        let w = cosat(
            "rule a: T(t) && t.b > 10 -> t.a = 'x'",
            "rule b: T(t) && t.b < 100 -> t.a = 'y'",
        );
        match w {
            CoSat::Witness(tuple) => {
                assert_eq!(tuple.len(), 3);
                // attr b = index 1 in the test schema
                assert!(matches!(tuple[1], Value::Int(v) if v > 10 && v < 100));
            }
            other => panic!("expected a witness, got {other:?}"),
        }
    }

    #[test]
    fn string_neq_witness_avoids_exclusions() {
        let w = cosat(
            "rule a: T(t) && t.a != 'x' -> t.b = 1",
            "rule b: T(t) && t.a != '__witness_0__' -> t.b = 2",
        );
        match w {
            CoSat::Witness(tuple) => {
                assert!(matches!(&tuple[0], Value::Str(s) if s.as_ref() != "x"
                    && s.as_ref() != "__witness_0__"));
            }
            other => panic!("expected a witness, got {other:?}"),
        }
    }

    #[test]
    fn joins_and_eq_constants_behave() {
        // two-variable rule: exclusivity is still sound, witness is not
        assert_eq!(
            cosat(
                "rule a: T(t) && T(s) && t.b < s.b -> t.a = 'x'",
                "rule b: T(t) && t.b > 0 -> t.a = 'y'",
            ),
            CoSat::Unknown
        );
        // shared Eq constant instantiates directly
        let w = cosat(
            "rule a: T(t) && t.b = 7 -> t.a = 'x'",
            "rule b: T(t) && t.b >= 7 -> t.a = 'y'",
        );
        assert_eq!(
            w,
            CoSat::Witness(vec![Value::Null, Value::Int(7), Value::Null])
        );
    }
}
