//! The common workload bundle the evaluation harness consumes.

use crate::inject::ErrorTruth;
use rock_data::{AttrId, CellRef, Database, FxHashSet, GlobalTid, RelId};
use rock_kg::Graph;
use rock_ml::ModelRegistry;
use rock_rees::RuleSet;
use std::sync::Arc;

/// A named cleaning task within an application (e.g. Bank's `CNC` —
/// cleaning names of customer records).
#[derive(Debug, Clone)]
pub struct Task {
    pub name: String,
    /// Names of the curated rules driving this task.
    pub rule_names: Vec<String>,
    /// Cells in this task's scope (the attributes being cleaned); `None`
    /// means the whole database (the per-app `*Clean` tasks).
    pub scope: Option<FxHashSet<CellRef>>,
    /// Does this task additionally run the polynomial-expression pipeline
    /// (TPA / TPWT — arithmetic consistency, §5.4)? Encodes the target
    /// `(relation, attribute)`.
    pub polynomial_target: Option<(RelId, AttrId)>,
}

/// Declared applicability of a registered ML model (name-based; the
/// harness converts to `rock_discovery::space::MlSignature`).
#[derive(Debug, Clone)]
pub struct MlHint {
    pub model: String,
    pub rel: String,
    pub attrs: Vec<String>,
}

/// A generated application: clean oracle, dirty instance, error record,
/// knowledge graph, trained models, curated rules, tasks.
pub struct Workload {
    pub name: String,
    pub clean: Database,
    pub dirty: Database,
    pub truth: ErrorTruth,
    pub graph: Option<Graph>,
    pub registry: Arc<ModelRegistry>,
    /// All curated rules, parsed and resolved against `registry`.
    pub rules: RuleSet,
    pub tasks: Vec<Task>,
    /// Initial ground truth Γ=: known-clean tuples (the paper seeds the
    /// chase with 10,000 manually checked tuples).
    pub trusted: Vec<GlobalTid>,
    /// Model-applicability hints for discovery.
    pub ml_hints: Vec<MlHint>,
}

impl Workload {
    /// The rules belonging to one task, as an owned subset.
    pub fn rules_for(&self, task: &Task) -> RuleSet {
        RuleSet::new(
            self.rules
                .iter()
                .filter(|r| task.rule_names.iter().any(|n| n == &r.name))
                .cloned()
                .collect(),
        )
    }

    /// Find a task by name.
    pub fn task(&self, name: &str) -> Option<&Task> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// Build a scope set: every cell of the given `(relation, attrs)`.
    pub fn scope_of(db: &Database, targets: &[(RelId, AttrId)]) -> FxHashSet<CellRef> {
        let mut out = FxHashSet::default();
        for (rel, attr) in targets {
            for tid in db.relation(*rel).tids() {
                out.insert(CellRef::new(*rel, tid, *attr));
            }
        }
        out
    }

    /// Pick the first `n` tuples of every relation as the trusted seed —
    /// BUT only tuples that carry no injected error (ground truth must be
    /// true). Mirrors the paper's "10,000 tuples manually selected,
    /// checked and treated as initial ground truth".
    pub fn pick_trusted(dirty: &Database, truth: &ErrorTruth, n_per_rel: usize) -> Vec<GlobalTid> {
        let error_cells = truth.error_cells();
        let dup_tids: FxHashSet<GlobalTid> = truth
            .duplicate_pairs
            .iter()
            .flat_map(|(a, b)| [*a, *b])
            .collect();
        let mut out = Vec::new();
        for (rid, rel) in dirty.iter() {
            let mut taken = 0usize;
            for t in rel.iter() {
                if taken >= n_per_rel {
                    break;
                }
                let gt = GlobalTid::new(rid, t.tid);
                if dup_tids.contains(&gt) {
                    continue;
                }
                let has_error = (0..rel.schema.arity())
                    .any(|a| error_cells.contains(&CellRef::new(rid, t.tid, AttrId(a as u16))));
                if !has_error {
                    out.push(gt);
                    taken += 1;
                }
            }
        }
        out
    }
}

/// Common generation parameters for all three applications.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Scale factor: rows in the main table(s).
    pub rows: usize,
    /// Error rate per targeted attribute.
    pub error_rate: f64,
    pub seed: u64,
    /// Trusted tuples per relation.
    pub trusted_per_rel: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            rows: 400,
            error_rate: 0.08,
            seed: 42,
            trusted_per_rel: 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrType, DatabaseSchema, RelationSchema, TupleId, Value};

    #[test]
    fn scope_covers_all_rows() {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[("a", AttrType::Str), ("b", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        for i in 0..5 {
            db.relation_mut(RelId(0))
                .insert_row(vec![
                    Value::str(format!("x{i}")),
                    Value::str(format!("y{i}")),
                ])
                .unwrap();
        }
        let scope = Workload::scope_of(&db, &[(RelId(0), AttrId(1))]);
        assert_eq!(scope.len(), 5);
        assert!(scope.contains(&CellRef::new(RelId(0), TupleId(3), AttrId(1))));
        assert!(!scope.contains(&CellRef::new(RelId(0), TupleId(3), AttrId(0))));
    }

    #[test]
    fn trusted_tuples_are_clean() {
        let schema = DatabaseSchema::new(vec![RelationSchema::of("T", &[("a", AttrType::Str)])]);
        let mut db = Database::new(&schema);
        for i in 0..10 {
            db.relation_mut(RelId(0))
                .insert_row(vec![Value::str(format!("v{i}"))])
                .unwrap();
        }
        let mut truth = ErrorTruth::default();
        truth.corrupted.insert(
            CellRef::new(RelId(0), TupleId(0), AttrId(0)),
            Value::str("v0"),
        );
        truth.duplicate_pairs.push((
            GlobalTid::new(RelId(0), TupleId(1)),
            GlobalTid::new(RelId(0), TupleId(2)),
        ));
        let trusted = Workload::pick_trusted(&db, &truth, 3);
        assert_eq!(trusted.len(), 3);
        // t0 (corrupted), t1/t2 (duplicates) skipped → t3, t4, t5
        assert_eq!(
            trusted,
            vec![
                GlobalTid::new(RelId(0), TupleId(3)),
                GlobalTid::new(RelId(0), TupleId(4)),
                GlobalTid::new(RelId(0), TupleId(5)),
            ]
        );
    }
}
