//! Seeded defective-ruleset generator for exercising `rock-analyze`.
//!
//! Each injected defect clones (or fabricates) a rule so the original
//! ruleset stays untouched inside the returned set — one defect per
//! defective rule, each with a known rule name and the diagnostic code
//! the analyzer must report for it. The property tests assert 100%
//! recall over these, and the CLI's `--defects` flag demonstrates the
//! analyzer end-to-end on every workload.
//!
//! Only `rock-rees` types are used here (the analyzer depends on this
//! crate, not the other way around).

use rock_data::{rng::StdRng, AttrId, AttrType, DatabaseSchema, Value};
use rock_rees::{CmpOp, DiagCode, Predicate, Rule, RuleSet};

/// The classes of ruleset defects the generator can seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefectKind {
    /// Two conflicting constant bindings on one cell (`E101`).
    UnsatConstEq,
    /// An equality and a comparison no value satisfies (`E102`).
    UnsatCompare,
    /// A reflexive comparison that can never hold (`E103`).
    ReflexiveTrap,
    /// A reflexive comparison that always holds (`W104`).
    TriviallyTrue,
    /// A constant whose type can never match its attribute (`E005`).
    TypeMismatch,
    /// A rule whose consequence is a union–find no-op (`W201`).
    DeadRule,
    /// A strictly stronger copy of an existing rule (`W202`).
    SubsumedRule,
    /// Two rules pinning one cell to different constants (`W203`).
    ConfluenceHazard,
    /// A constant-flow cycle contesting one cell with two different
    /// constants — each write re-arms the other rule, so the chase has no
    /// termination bound (`E301`).
    WriteCycle,
    /// Two rules whose shared guard is provably co-satisfiable while
    /// their consequences pin the same cell to different constants
    /// (`W301` with a concrete witness tuple).
    CompetingWriters,
    /// A consistent constant cascade: each rule's write satisfies the
    /// other's guard without contesting a cell, degrading the certified
    /// round bound to the lattice height (`W302`).
    BoundCascade,
}

impl DefectKind {
    pub const ALL: [DefectKind; 11] = [
        DefectKind::UnsatConstEq,
        DefectKind::UnsatCompare,
        DefectKind::ReflexiveTrap,
        DefectKind::TriviallyTrue,
        DefectKind::TypeMismatch,
        DefectKind::DeadRule,
        DefectKind::SubsumedRule,
        DefectKind::ConfluenceHazard,
        DefectKind::WriteCycle,
        DefectKind::CompetingWriters,
        DefectKind::BoundCascade,
    ];

    /// The diagnostic code the analyzer must emit for this defect.
    pub fn expected_code(self) -> DiagCode {
        match self {
            DefectKind::UnsatConstEq => DiagCode::UnsatConstEq,
            DefectKind::UnsatCompare => DiagCode::UnsatCompare,
            DefectKind::ReflexiveTrap => DiagCode::ReflexiveNeverTrue,
            DefectKind::TriviallyTrue => DiagCode::TriviallyTrue,
            DefectKind::TypeMismatch => DiagCode::ConstTypeMismatch,
            DefectKind::DeadRule => DiagCode::DeadRule,
            DefectKind::SubsumedRule => DiagCode::SubsumedRule,
            DefectKind::ConfluenceHazard => DiagCode::ConfluenceHazard,
            DefectKind::WriteCycle => DiagCode::UnboundedChase,
            DefectKind::CompetingWriters => DiagCode::CompetingWriters,
            DefectKind::BoundCascade => DiagCode::ConstantCascade,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            DefectKind::UnsatConstEq => "unsat_const",
            DefectKind::UnsatCompare => "unsat_cmp",
            DefectKind::ReflexiveTrap => "reflexive",
            DefectKind::TriviallyTrue => "trivial",
            DefectKind::TypeMismatch => "badtype",
            DefectKind::DeadRule => "dead",
            DefectKind::SubsumedRule => "spec",
            DefectKind::ConfluenceHazard => "hazard",
            DefectKind::WriteCycle => "cycle",
            DefectKind::CompetingWriters => "racer",
            DefectKind::BoundCascade => "cascade",
        }
    }
}

/// One seeded defect: which rule carries it and what the analyzer must say.
#[derive(Debug, Clone)]
pub struct InjectedDefect {
    pub rule_name: String,
    pub kind: DefectKind,
    pub expected: DiagCode,
}

/// A synthetic value of the attribute's type that real data never contains
/// (so injected predicates stay satisfiable against the base rule).
fn marker(ty: AttrType, alt: bool) -> Value {
    match ty {
        AttrType::Str => Value::str(if alt { "__defect_b__" } else { "__defect_a__" }),
        AttrType::Int => Value::Int(if alt { -987654321 } else { -123456789 }),
        AttrType::Float => Value::Float(if alt { -9.8765e18 } else { -1.2345e18 }),
        AttrType::Bool => Value::Bool(alt),
        AttrType::Date => Value::Date(if alt { -876543 } else { -123456 }),
    }
}

/// A marker value private to one defect pair. Each cyclic defect kind uses
/// its own salts so the constant-flow cycle it plants stays an isolated SCC
/// in the rule graph instead of merging with another kind's cycle (which
/// would smear one kind's diagnostic onto another kind's rules).
fn private_marker(ty: AttrType, salt: u64) -> Value {
    match ty {
        AttrType::Str => Value::str(format!("__defect_p{salt}__")),
        AttrType::Int => Value::Int(-(1_000_000_007 + salt as i64)),
        AttrType::Float => Value::Float(-(1e15 + salt as f64 * 1e9)),
        AttrType::Bool => Value::Bool(salt % 2 == 0),
        AttrType::Date => Value::Date(-(1_000_000 + salt as i32)),
    }
}

/// The first two non-`Bool` attributes of the base rule's first relation
/// (`Bool` markers are not private — only two values exist). Every curated
/// workload relation has at least two such attributes; the fallback only
/// guards against degenerate synthetic schemas.
fn private_attrs(base: &Rule, schema: &DatabaseSchema) -> (AttrId, AttrId) {
    let rel = schema.relation(base.rel_of(0));
    let mut it = (0..rel.arity())
        .map(|a| AttrId(a as u16))
        .filter(|a| rel.attr(*a).ty != AttrType::Bool);
    let first = it.next().unwrap_or(AttrId(0));
    let second = it.next().unwrap_or(first);
    (first, second)
}

/// A value whose type is incompatible with the attribute (`E005` bait).
fn bad_typed(ty: AttrType) -> Value {
    match ty {
        AttrType::Int | AttrType::Float => Value::str("__defect_nan__"),
        AttrType::Str | AttrType::Bool | AttrType::Date => Value::Int(-123456789),
    }
}

/// An attribute of the base rule's first variable that no `null(·)`
/// predicate constrains (appending comparisons there cannot collide with
/// the MI idiom and turn a subsumption defect into an unsat one).
fn free_attr(base: &Rule, schema: &DatabaseSchema) -> AttrId {
    let rel = schema.relation(base.rel_of(0));
    let nulled: Vec<AttrId> = base
        .precondition
        .iter()
        .filter_map(|p| match p {
            Predicate::IsNull { var: 0, attr } => Some(*attr),
            _ => None,
        })
        .collect();
    (0..rel.arity())
        .map(|a| AttrId(a as u16))
        .find(|a| !nulled.contains(a))
        .unwrap_or(AttrId(0))
}

/// Clone `base` under a defect-specific name.
fn named_clone(base: &Rule, kind: DefectKind, i: usize) -> Rule {
    let mut r = base.clone();
    r.name = format!("{}__{}{i}", base.name, kind.suffix());
    r
}

/// Inject one defective rule (or rule pair) per entry of `kinds` into a
/// copy of `rules`, round-robining over the base rules with an
/// `rng`-chosen starting offset. Deterministic for a given
/// `(rules, seed, kinds)` triple.
pub fn inject_defects(
    rules: &RuleSet,
    schema: &DatabaseSchema,
    seed: u64,
    kinds: &[DefectKind],
) -> (RuleSet, Vec<InjectedDefect>) {
    assert!(!rules.is_empty(), "need at least one base rule");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = rules.clone();
    let mut injected = Vec::new();
    let offset = rng.gen_range(0..rules.len());
    for (i, &kind) in kinds.iter().enumerate() {
        let base = &rules.rules[(offset + i) % rules.len()];
        let attr = free_attr(base, schema);
        let ty = schema.relation(base.rel_of(0)).attr(attr).ty;
        let mut defective = named_clone(base, kind, i);
        match kind {
            DefectKind::UnsatConstEq => {
                for alt in [false, true] {
                    defective.precondition.push(Predicate::Const {
                        var: 0,
                        attr,
                        op: CmpOp::Eq,
                        value: marker(ty, alt),
                    });
                }
            }
            DefectKind::UnsatCompare => {
                for op in [CmpOp::Eq, CmpOp::Neq] {
                    defective.precondition.push(Predicate::Const {
                        var: 0,
                        attr,
                        op,
                        value: marker(ty, false),
                    });
                }
            }
            DefectKind::ReflexiveTrap => {
                defective.precondition.push(Predicate::Attr {
                    lvar: 0,
                    lattr: attr,
                    op: CmpOp::Neq,
                    rvar: 0,
                    rattr: attr,
                });
            }
            DefectKind::TriviallyTrue => {
                defective.precondition.push(Predicate::Attr {
                    lvar: 0,
                    lattr: attr,
                    op: CmpOp::Eq,
                    rvar: 0,
                    rattr: attr,
                });
            }
            DefectKind::TypeMismatch => {
                defective.precondition.push(Predicate::Const {
                    var: 0,
                    attr,
                    op: CmpOp::Eq,
                    value: bad_typed(ty),
                });
            }
            DefectKind::DeadRule => {
                // A fresh rule whose consequence merges a tuple with itself.
                defective = Rule::new(
                    defective.name.clone(),
                    vec![("t".into(), base.rel_of(0))],
                    vec![],
                    vec![Predicate::Const {
                        var: 0,
                        attr,
                        op: CmpOp::Neq,
                        value: marker(ty, false),
                    }],
                    Predicate::EidCmp {
                        lvar: 0,
                        rvar: 0,
                        eq: true,
                    },
                );
            }
            DefectKind::SubsumedRule => {
                // Same consequence, strictly stronger precondition: the
                // clone can never fire without the base firing too.
                defective.precondition.push(Predicate::Const {
                    var: 0,
                    attr,
                    op: CmpOp::Neq,
                    value: marker(ty, false),
                });
            }
            DefectKind::ConfluenceHazard => {
                // Two fresh rules pinning the same cell to different
                // constants under non-exclusive preconditions; the
                // analyzer reports the second of the pair.
                let mk = |name: String, alt: bool| {
                    Rule::new(
                        name,
                        vec![("t".into(), base.rel_of(0))],
                        vec![],
                        vec![Predicate::Const {
                            var: 0,
                            attr,
                            op: CmpOp::Neq,
                            value: marker(ty, alt),
                        }],
                        Predicate::Const {
                            var: 0,
                            attr,
                            op: CmpOp::Eq,
                            value: marker(ty, alt),
                        },
                    )
                };
                out.push(mk(format!("{}_a", defective.name), false));
                defective = mk(format!("{}_b", defective.name), true);
            }
            DefectKind::WriteCycle => {
                // Two fresh rules contesting one cell inside a constant-flow
                // cycle: each write re-arms the other rule's guard, so the
                // certifier must refuse a termination bound (E301). The Eq
                // guards on distinct constants are mutually exclusive, so the
                // pair stays out of the W203 critical-pair report.
                let (a, _) = private_attrs(base, schema);
                let ty = schema.relation(base.rel_of(0)).attr(a).ty;
                let mk = |name: String, read: u64, write: u64| {
                    Rule::new(
                        name,
                        vec![("t".into(), base.rel_of(0))],
                        vec![],
                        vec![Predicate::Const {
                            var: 0,
                            attr: a,
                            op: CmpOp::Eq,
                            value: private_marker(ty, read),
                        }],
                        Predicate::Const {
                            var: 0,
                            attr: a,
                            op: CmpOp::Eq,
                            value: private_marker(ty, write),
                        },
                    )
                };
                out.push(mk(format!("{}_a", defective.name), 10, 11));
                defective = mk(format!("{}_b", defective.name), 11, 10);
            }
            DefectKind::CompetingWriters => {
                // Two fresh rules sharing one satisfiable Eq guard while
                // pinning the same cell to different constants: the critical
                // pair is provably co-satisfiable, so the certifier must
                // produce a concrete witness tuple (W301). Neither written
                // constant feeds any guard, so no flow cycle forms.
                let (g, w) = private_attrs(base, schema);
                let rel = schema.relation(base.rel_of(0));
                let (gty, wty) = (rel.attr(g).ty, rel.attr(w).ty);
                let mk = |name: String, write: u64| {
                    Rule::new(
                        name,
                        vec![("t".into(), base.rel_of(0))],
                        vec![],
                        vec![Predicate::Const {
                            var: 0,
                            attr: g,
                            op: CmpOp::Eq,
                            value: private_marker(gty, 20),
                        }],
                        Predicate::Const {
                            var: 0,
                            attr: w,
                            op: CmpOp::Eq,
                            value: private_marker(wty, write),
                        },
                    )
                };
                out.push(mk(format!("{}_a", defective.name), 21));
                defective = mk(format!("{}_b", defective.name), 22);
            }
            DefectKind::BoundCascade => {
                // Two fresh rules forming a consistent constant cascade
                // across two attributes: each rule's write satisfies the
                // other's guard but no cell is contested, so the certifier
                // downgrades the round bound to the lattice height (W302).
                let (x, y) = private_attrs(base, schema);
                let rel = schema.relation(base.rel_of(0));
                let (xty, yty) = (rel.attr(x).ty, rel.attr(y).ty);
                let mk = |name: String,
                          read: (AttrId, AttrType, u64),
                          write: (AttrId, AttrType, u64)| {
                    Rule::new(
                        name,
                        vec![("t".into(), base.rel_of(0))],
                        vec![],
                        vec![Predicate::Const {
                            var: 0,
                            attr: read.0,
                            op: CmpOp::Eq,
                            value: private_marker(read.1, read.2),
                        }],
                        Predicate::Const {
                            var: 0,
                            attr: write.0,
                            op: CmpOp::Eq,
                            value: private_marker(write.1, write.2),
                        },
                    )
                };
                out.push(mk(
                    format!("{}_a", defective.name),
                    (x, xty, 30),
                    (y, yty, 31),
                ));
                defective = mk(format!("{}_b", defective.name), (y, yty, 31), (x, xty, 30));
            }
        }
        injected.push(InjectedDefect {
            rule_name: defective.name.clone(),
            kind,
            expected: kind.expected_code(),
        });
        out.push(defective);
    }
    (out, injected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::GenConfig;

    #[test]
    fn injection_is_deterministic_and_validates() {
        let w = crate::bank::generate(&GenConfig {
            rows: 40,
            ..GenConfig::default()
        });
        let schema = w.dirty.schema();
        let (d1, i1) = inject_defects(&w.rules, &schema, 7, &DefectKind::ALL);
        let (d2, i2) = inject_defects(&w.rules, &schema, 7, &DefectKind::ALL);
        assert_eq!(d1.len(), d2.len());
        // The four pair kinds (ConfluenceHazard, WriteCycle,
        // CompetingWriters, BoundCascade) add two rules each, everything
        // else one rule
        assert_eq!(d1.len(), w.rules.len() + DefectKind::ALL.len() + 4);
        assert_eq!(
            i1.iter().map(|d| &d.rule_name).collect::<Vec<_>>(),
            i2.iter().map(|d| &d.rule_name).collect::<Vec<_>>()
        );
        // every injected rule still passes classic validation (the
        // defects are semantic, not structural)
        for r in d1.iter() {
            assert!(r.validate(&schema).is_ok(), "{}", r.name);
        }
    }

    #[test]
    fn different_seeds_pick_different_bases() {
        let w = crate::logistics::generate(&GenConfig {
            rows: 40,
            ..GenConfig::default()
        });
        let schema = w.dirty.schema();
        let names: Vec<Vec<String>> = (0..6)
            .map(|s| {
                inject_defects(&w.rules, &schema, s, &[DefectKind::UnsatConstEq])
                    .1
                    .iter()
                    .map(|d| d.rule_name.clone())
                    .collect()
            })
            .collect();
        assert!(
            names.iter().any(|n| n != &names[0]),
            "base-rule choice should vary with the seed"
        );
    }
}
