//! Predicate-space construction (paper §5.3, rule-discovery module step
//! (b): "predicates, to construct predicates and corresponding auxiliary
//! structures").
//!
//! Given a schema, per-column statistics and the registered ML models, the
//! space enumerates the candidate predicates a miner may combine:
//!
//! * constant predicates `t.A = c` over frequent values of categorical
//!   columns (bounded per column);
//! * attribute comparisons `t.A = s.A` / `t.A = s.B` over type-compatible
//!   pairs;
//! * ML predicates `M(t[Ā], s[B̄])` for models declared applicable to a
//!   relation's attributes;
//! * `null(t.A)` triggers for nullable columns;
//! * candidate consequences, per task: CR (`t.A = s.A`, `t.A = c`), ER
//!   (`t.eid = s.eid`), MI (`t.A = c` guarded by null), TD (`t ⪯A s`).

use rock_data::{AttrId, Database, RelId, TableStats};
use rock_rees::{CmpOp, ModelRef, Predicate};

/// Declared applicability of a registered ML model (the "external
/// knowledge" metadata of §5.1 linking models to attributes).
#[derive(Debug, Clone)]
pub struct MlSignature {
    pub model: String,
    pub rel: RelId,
    pub attrs: Vec<AttrId>,
}

/// Max distinct values for a column to be treated as categorical.
const MAX_CATEGORICAL: usize = 24;
/// Max constant predicates per column.
const MAX_CONSTANTS: usize = 8;
/// Minimum frequency for a constant candidate.
const MIN_CONSTANT_COUNT: usize = 2;

/// Configuration for space construction. It has no settable field: the
/// space's bounds are the constants above.
#[derive(Debug, Clone, Default)]
pub struct SpaceConfig;

/// The enumerated predicate space for a two-variable template `R(t) ∧ R(s)`
/// (single-relation; cross-relation templates are built per relation pair).
#[derive(Debug, Clone, Default)]
pub struct PredicateSpace {
    /// Unary predicates over variable 0 (`t`).
    pub unary: Vec<Predicate>,
    /// Binary predicates over `(t, s)`.
    pub binary: Vec<Predicate>,
    /// Candidate consequences.
    pub consequences: Vec<Predicate>,
}

impl PredicateSpace {
    /// Build the space for one relation (template `R(t) ∧ R(s)`).
    pub fn build(
        db: &Database,
        rel: RelId,
        ml: &[MlSignature],
        _cfg: &SpaceConfig,
    ) -> PredicateSpace {
        let stats = TableStats::compute(db.relation(rel), MAX_CONSTANTS * 2);
        let schema = &db.relation(rel).schema;
        let mut unary = Vec::new();
        let mut binary = Vec::new();
        let mut consequences = Vec::new();

        for (attr, a) in schema.iter_attrs() {
            let col = stats.column(attr);
            // constants over categorical columns
            if col.is_categorical(MAX_CATEGORICAL) {
                for (v, count) in col.top_values.iter().take(MAX_CONSTANTS) {
                    if *count >= MIN_CONSTANT_COUNT {
                        unary.push(Predicate::Const {
                            var: 0,
                            attr,
                            op: CmpOp::Eq,
                            value: v.clone(),
                        });
                        consequences.push(Predicate::Const {
                            var: 0,
                            attr,
                            op: CmpOp::Eq,
                            value: v.clone(),
                        });
                    }
                }
            }
            // null triggers for nullable columns
            if col.null_count > 0 {
                unary.push(Predicate::IsNull { var: 0, attr });
            }
            // same-attribute equality across the two variables
            binary.push(Predicate::Attr {
                lvar: 0,
                lattr: attr,
                op: CmpOp::Eq,
                rvar: 1,
                rattr: attr,
            });
            // numeric ≤ comparisons (φ6-style correlations)
            if a.ty.is_numeric() {
                binary.push(Predicate::Attr {
                    lvar: 0,
                    lattr: attr,
                    op: CmpOp::Le,
                    rvar: 1,
                    rattr: attr,
                });
            }
            // CR consequences
            consequences.push(Predicate::Attr {
                lvar: 0,
                lattr: attr,
                op: CmpOp::Eq,
                rvar: 1,
                rattr: attr,
            });
            // TD consequences
            consequences.push(Predicate::Temporal {
                lvar: 0,
                rvar: 1,
                attr,
                strict: false,
            });
        }
        // ML predicates from declared signatures
        for sig in ml.iter().filter(|s| s.rel == rel) {
            binary.push(Predicate::Ml {
                model: ModelRef::named(&sig.model),
                lvar: 0,
                lattrs: sig.attrs.clone(),
                rvar: 1,
                rattrs: sig.attrs.clone(),
            });
        }
        // ER consequence
        consequences.push(Predicate::EidCmp {
            lvar: 0,
            rvar: 1,
            eq: true,
        });

        PredicateSpace {
            unary,
            binary,
            consequences,
        }
    }

    /// All precondition candidates (unary + binary). The order — unary
    /// first, then binary, each in construction order — is a stable
    /// contract: the bitset cache keys predicates by their index in this
    /// vector (see [`crate::cache::PredKey`]).
    pub fn preconditions(&self) -> Vec<Predicate> {
        let mut out = self.unary.clone();
        out.extend(self.binary.iter().cloned());
        out
    }

    /// Total size of the space.
    pub fn len(&self) -> usize {
        self.unary.len() + self.binary.len() + self.consequences.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrType, DatabaseSchema, RelationSchema, Value};

    fn db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "Store",
            &[
                ("name", AttrType::Str),
                ("city", AttrType::Str),
                ("sales", AttrType::Float),
            ],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        for i in 0..10 {
            let city = if i % 2 == 0 { "Beijing" } else { "Shanghai" };
            r.insert_row(vec![
                Value::str(format!("store-{i}")),
                Value::str(city),
                if i == 3 {
                    Value::Null
                } else {
                    Value::Float(i as f64)
                },
            ])
            .unwrap();
        }
        db
    }

    #[test]
    fn constants_only_for_categorical_frequent_values() {
        let db = db();
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig);
        let consts: Vec<&Predicate> = space
            .unary
            .iter()
            .filter(|p| matches!(p, Predicate::Const { .. }))
            .collect();
        // city has 2 frequent values; name column has 10 distinct
        // singletons (below MIN_CONSTANT_COUNT)
        assert_eq!(consts.len(), 2, "{consts:?}");
        for c in consts {
            if let Predicate::Const { attr, .. } = c {
                assert_eq!(*attr, AttrId(1));
            }
        }
    }

    #[test]
    fn null_trigger_for_nullable_column() {
        let db = db();
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig);
        assert!(space
            .unary
            .iter()
            .any(|p| matches!(p, Predicate::IsNull { attr, .. } if *attr == AttrId(2))));
        assert!(!space
            .unary
            .iter()
            .any(|p| matches!(p, Predicate::IsNull { attr, .. } if *attr == AttrId(0))));
    }

    #[test]
    fn binary_and_consequences_present() {
        let db = db();
        let space = PredicateSpace::build(&db, RelId(0), &[], &SpaceConfig);
        // eq per attribute + numeric ≤ for sales
        let eqs = space
            .binary
            .iter()
            .filter(|p| matches!(p, Predicate::Attr { op: CmpOp::Eq, .. }))
            .count();
        assert_eq!(eqs, 3);
        let les = space
            .binary
            .iter()
            .filter(|p| matches!(p, Predicate::Attr { op: CmpOp::Le, .. }))
            .count();
        assert_eq!(les, 1);
        assert!(space
            .consequences
            .iter()
            .any(|p| matches!(p, Predicate::EidCmp { eq: true, .. })));
        assert!(space
            .consequences
            .iter()
            .any(|p| matches!(p, Predicate::Temporal { .. })));
        assert!(!space.is_empty());
    }

    #[test]
    fn ml_signatures_injected() {
        let db = db();
        let sigs = vec![MlSignature {
            model: "Mname".into(),
            rel: RelId(0),
            attrs: vec![AttrId(0)],
        }];
        let space = PredicateSpace::build(&db, RelId(0), &sigs, &SpaceConfig);
        assert!(space
            .binary
            .iter()
            .any(|p| matches!(p, Predicate::Ml { model, .. } if model.name == "Mname")));
        // signatures for other relations ignored
        let other = vec![MlSignature {
            model: "M2".into(),
            rel: RelId(7),
            attrs: vec![],
        }];
        let space2 = PredicateSpace::build(&db, RelId(0), &other, &SpaceConfig);
        assert!(!space2.binary.iter().any(|p| p.is_ml()));
    }
}
