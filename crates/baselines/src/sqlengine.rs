//! **SparkSQL / Presto** simulators (paper §6 Exp-2/Exp-3).
//!
//! "For a fair comparison, we transformed the learned REE++s to SQL and
//! fed them into SparkSQL and Presto, where ML predicates in REE++s are
//! re-written as UDFs and embedded in SQL." The comparison point is a
//! *generic* engine: nested-loop/hash joins with per-call UDF invocation,
//! **no** LSH blocking, **no** inference memoization, **no** partial
//! valuations, **no** chase-aware incremental re-evaluation ("they support
//! no designated strategy for accelerating ML models").
//!
//! The two engines share the evaluator and differ only in a per-row
//! dispatch overhead constant (Presto's vectorized execution is somewhat
//! leaner than Spark's task scheduling at small scale — the figures care
//! about the Rock-vs-engine gap, not Spark-vs-Presto).

use rock_data::{CellRef, Database, FxHashSet, GlobalTid, Value};
use rock_ml::{CostMeter, ModelRegistry};
use rock_rees::{CmpOp, Predicate, Rule, RuleSet};
use std::time::Instant;

/// Which engine personality to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlEngineKind {
    SparkSql,
    Presto,
}

impl SqlEngineKind {
    pub fn name(&self) -> &'static str {
        match self {
            SqlEngineKind::SparkSql => "SparkSQL",
            SqlEngineKind::Presto => "Presto",
        }
    }

    /// Modeled per-evaluated-row dispatch overhead (cost units).
    fn row_overhead(&self) -> f64 {
        match self {
            SqlEngineKind::SparkSql => 2.0,
            SqlEngineKind::Presto => 1.2,
        }
    }
}

/// Detection/correction report.
#[derive(Debug)]
pub struct SqlReport {
    pub flagged_cells: FxHashSet<CellRef>,
    pub duplicate_pairs: Vec<(GlobalTid, GlobalTid)>,
    pub rows_evaluated: u64,
    pub wall_seconds: f64,
}

/// The engine simulator.
pub struct SqlEngine<'a> {
    pub kind: SqlEngineKind,
    pub registry: &'a ModelRegistry,
    pub meter: CostMeter,
}

impl<'a> SqlEngine<'a> {
    pub fn new(kind: SqlEngineKind, registry: &'a ModelRegistry) -> Self {
        SqlEngine {
            kind,
            registry,
            meter: CostMeter::default(),
        }
    }

    /// Evaluate one predicate the UDF way: straight computation, no memo.
    /// ML predicates call the classifier directly (bypassing the
    /// registry's memoization — that cache is Rock's optimization).
    fn eval_pred(&self, db: &Database, rule: &Rule, tuples: &[GlobalTid], p: &Predicate) -> bool {
        self.meter.add(self.kind.row_overhead());
        let cell = |var: usize, attr: rock_data::AttrId| -> Value {
            let gt = tuples[var];
            db.relation(gt.rel)
                .get(gt.tid)
                .map(|t| t.get(attr).clone())
                .unwrap_or(Value::Null)
        };
        match p {
            Predicate::Const {
                var,
                attr,
                op,
                value,
            } => op.eval(&cell(*var, *attr), value),
            Predicate::Attr {
                lvar,
                lattr,
                op,
                rvar,
                rattr,
            } => op.eval(&cell(*lvar, *lattr), &cell(*rvar, *rattr)),
            Predicate::IsNull { var, attr } => cell(*var, *attr).is_null(),
            Predicate::EidCmp { lvar, rvar, eq } => {
                let (l, r) = (tuples[*lvar], tuples[*rvar]);
                let le = db.relation(l.rel).get(l.tid).map(|t| t.eid);
                let re = db.relation(r.rel).get(r.tid).map(|t| t.eid);
                let same = l.rel == r.rel && le.is_some() && le == re;
                if *eq {
                    same
                } else {
                    !same
                }
            }
            Predicate::Ml {
                model,
                lvar,
                lattrs,
                rvar,
                rattrs,
            } => {
                // UDF call: full inference, every single time
                let a: Vec<Value> = lattrs.iter().map(|x| cell(*lvar, *x)).collect();
                let b: Vec<Value> = rattrs.iter().map(|x| cell(*rvar, *x)).collect();
                match self.registry.pair(model.resolved()) {
                    Some(m) => {
                        self.meter.add(m.cost());
                        m.predict(&a, &b)
                    }
                    None => false,
                }
            }
            // Temporal / KG / correlation predicates have no SQL
            // translation — the paper's SQL baselines only run ED/EC over
            // the relational REE++s.
            _ => false,
        }
        .also_note(rule)
    }

    /// Detect violations of the rule set by nested-loop evaluation.
    pub fn detect(&self, db: &Database, rules: &RuleSet) -> SqlReport {
        let start = Instant::now();
        let mut flagged = FxHashSet::default();
        let mut dups = Vec::new();
        let mut rows = 0u64;
        for rule in rules.iter() {
            self.for_each_valuation(db, rule, &mut rows, |tuples| {
                let pre_ok = rule
                    .precondition
                    .iter()
                    .all(|p| self.eval_pred(db, rule, tuples, p));
                if !pre_ok {
                    return;
                }
                if self.eval_pred(db, rule, tuples, &rule.consequence) {
                    return;
                }
                match &rule.consequence {
                    Predicate::Attr {
                        lvar,
                        lattr,
                        rvar,
                        rattr,
                        ..
                    } => {
                        let (l, r) = (tuples[*lvar], tuples[*rvar]);
                        flagged.insert(CellRef::new(l.rel, l.tid, *lattr));
                        flagged.insert(CellRef::new(r.rel, r.tid, *rattr));
                    }
                    Predicate::Const { var, attr, .. } => {
                        let gt = tuples[*var];
                        flagged.insert(CellRef::new(gt.rel, gt.tid, *attr));
                    }
                    Predicate::EidCmp {
                        lvar,
                        rvar,
                        eq: true,
                    } => {
                        dups.push((tuples[*lvar], tuples[*rvar]));
                    }
                    _ => {}
                }
                for p in &rule.precondition {
                    if let Predicate::IsNull { var, attr } = p {
                        let gt = tuples[*var];
                        flagged.insert(CellRef::new(gt.rel, gt.tid, *attr));
                    }
                }
            });
        }
        SqlReport {
            flagged_cells: flagged,
            duplicate_pairs: dups,
            rows_evaluated: rows,
            wall_seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// "Correct" by iteratively executing the SQL until no more fixes
    /// (paper §6: "To simulate the chase of Rock, we iteratively executed
    /// SQL in SparkSQL and Presto … until no more fixes can be
    /// generated"). Violating Attr-consequences copy the partner's value;
    /// no conflict resolution, no entity classes.
    pub fn correct(
        &self,
        db: &Database,
        rules: &RuleSet,
        max_iters: usize,
    ) -> (Database, SqlReport) {
        let start = Instant::now();
        let mut out = db.clone();
        let mut total_rows = 0u64;
        let mut flagged_all = FxHashSet::default();
        for _ in 0..max_iters {
            let mut changed = false;
            for rule in rules.iter() {
                let mut fixes: Vec<(CellRef, Value)> = Vec::new();
                let mut rows = 0u64;
                self.for_each_valuation(&out, rule, &mut rows, |tuples| {
                    let pre_ok = rule
                        .precondition
                        .iter()
                        .all(|p| self.eval_pred(&out, rule, tuples, p));
                    if !pre_ok || self.eval_pred(&out, rule, tuples, &rule.consequence) {
                        return;
                    }
                    if let Predicate::Attr {
                        lvar,
                        lattr,
                        rvar,
                        rattr,
                        op: CmpOp::Eq,
                    } = &rule.consequence
                    {
                        // the UPDATE's SET expression is an aggregate over
                        // the group (MAX), so repeated executions converge
                        // instead of swapping two values forever
                        let (l, r) = (tuples[*lvar], tuples[*rvar]);
                        let lv = out
                            .cell(l.rel, l.tid, *lattr)
                            .cloned()
                            .unwrap_or(Value::Null);
                        if let Some(rv) = out.cell(r.rel, r.tid, *rattr) {
                            let winner = if lv.is_null() || rv > &lv {
                                rv.clone()
                            } else {
                                lv
                            };
                            if !winner.is_null() {
                                fixes.push((CellRef::new(l.rel, l.tid, *lattr), winner));
                            }
                        }
                    } else if let Predicate::Const {
                        var,
                        attr,
                        op: CmpOp::Eq,
                        value,
                    } = &rule.consequence
                    {
                        let gt = tuples[*var];
                        fixes.push((CellRef::new(gt.rel, gt.tid, *attr), value.clone()));
                    }
                });
                total_rows += rows;
                for (cell, v) in fixes {
                    if out.cell(cell.rel, cell.tid, cell.attr) != Some(&v) {
                        out.relation_mut(cell.rel).set_cell(cell.tid, cell.attr, v);
                        flagged_all.insert(cell);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let report = SqlReport {
            flagged_cells: flagged_all,
            duplicate_pairs: Vec::new(),
            rows_evaluated: total_rows,
            wall_seconds: start.elapsed().as_secs_f64(),
        };
        (out, report)
    }

    /// Nested-loop enumeration over the rule's variable bindings — the
    /// generic plan a SQL engine runs without Rock's candidate pruning.
    fn for_each_valuation<F>(&self, db: &Database, rule: &Rule, rows: &mut u64, mut f: F)
    where
        F: FnMut(&[GlobalTid]),
    {
        let nvars = rule.tuple_vars.len();
        let mut tuples: Vec<GlobalTid> = Vec::with_capacity(nvars);
        self.nested(db, rule, 0, nvars, &mut tuples, rows, &mut f);
    }

    #[allow(clippy::too_many_arguments)]
    fn nested<F>(
        &self,
        db: &Database,
        rule: &Rule,
        depth: usize,
        nvars: usize,
        tuples: &mut Vec<GlobalTid>,
        rows: &mut u64,
        f: &mut F,
    ) where
        F: FnMut(&[GlobalTid]),
    {
        if depth == nvars {
            // skip trivially-degenerate same-tuple bindings (SQL would
            // include a t.rowid <> s.rowid filter)
            for i in 0..nvars {
                for j in (i + 1)..nvars {
                    if rule.rel_of(i) == rule.rel_of(j) && tuples[i] == tuples[j] {
                        return;
                    }
                }
            }
            *rows += 1;
            f(tuples);
            return;
        }
        let rel = rule.rel_of(depth);
        let tids: Vec<_> = db.relation(rel).tids().collect();
        for tid in tids {
            tuples.push(GlobalTid::new(rel, tid));
            self.nested(db, rule, depth + 1, nvars, tuples, rows, f);
            tuples.pop();
        }
    }
}

/// No-op helper so `eval_pred`'s match can stay an expression while
/// keeping the rule parameter for future per-rule costing.
trait AlsoNote {
    fn also_note(self, rule: &Rule) -> Self;
}

impl AlsoNote for bool {
    #[inline]
    fn also_note(self, _rule: &Rule) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrId, AttrType, DatabaseSchema, RelId, RelationSchema, TupleId};
    use rock_ml::pair::NgramPairModel;
    use rock_rees::parse_rules;
    use std::sync::Arc;

    fn db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[("k", AttrType::Str), ("v", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        r.insert_row(vec![Value::str("a"), Value::str("1")])
            .unwrap();
        r.insert_row(vec![Value::str("a"), Value::str("1")])
            .unwrap();
        r.insert_row(vec![Value::str("a"), Value::str("2")])
            .unwrap();
        r.insert_row(vec![Value::str("b"), Value::str("9")])
            .unwrap();
        db
    }

    fn fd_rules(db: &Database) -> RuleSet {
        RuleSet::new(
            parse_rules(
                "rule fd: T(t) && T(s) && t.k = s.k -> t.v = s.v",
                &db.schema(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn nested_loop_counts_cartesian_rows() {
        let d = db();
        let reg = ModelRegistry::new();
        let engine = SqlEngine::new(SqlEngineKind::SparkSql, &reg);
        let report = engine.detect(&d, &fd_rules(&d));
        // 4×4 minus 4 self-pairs = 12 rows per rule
        assert_eq!(report.rows_evaluated, 12);
        // the conflicting pair flags both cells
        assert!(report
            .flagged_cells
            .contains(&CellRef::new(RelId(0), TupleId(2), AttrId(1))));
        assert!(report.flagged_cells.len() >= 2);
    }

    #[test]
    fn correction_iterates_to_fixpoint() {
        let d = db();
        let reg = ModelRegistry::new();
        let engine = SqlEngine::new(SqlEngineKind::Presto, &reg);
        let (fixed, _) = engine.correct(&d, &fd_rules(&d), 10);
        // all k=a rows end with the same v
        let vs: Vec<_> = (0..3)
            .map(|i| fixed.cell(RelId(0), TupleId(i), AttrId(1)).cloned())
            .collect();
        assert_eq!(vs[0], vs[1]);
        assert_eq!(vs[1], vs[2]);
    }

    #[test]
    fn ml_udf_pays_per_call_no_memo() {
        let d = db();
        let reg = ModelRegistry::new();
        reg.register_pair("M", Arc::new(NgramPairModel::default()));
        let rules = RuleSet::new({
            let mut rs = parse_rules(
                "rule ml: T(t) && T(s) && ml:M(t[k], s[k]) -> t.v = s.v",
                &d.schema(),
            )
            .unwrap();
            for r in &mut rs {
                r.resolve(&reg).unwrap();
            }
            rs
        });
        let engine = SqlEngine::new(SqlEngineKind::SparkSql, &reg);
        let inferences0 = engine.meter.inferences();
        engine.detect(&d, &rules);
        engine.detect(&d, &rules);
        // cost accrues on the engine meter per call — two passes, twice
        // the cost, zero memoization benefit
        let cost = engine.meter.cost();
        assert!(cost > 0.0);
        assert_eq!(engine.meter.memo_hits(), 0);
        let _ = inferences0;
    }

    #[test]
    fn presto_cheaper_dispatch_than_spark() {
        let d = db();
        let reg = ModelRegistry::new();
        let spark = SqlEngine::new(SqlEngineKind::SparkSql, &reg);
        spark.detect(&d, &fd_rules(&d));
        let presto = SqlEngine::new(SqlEngineKind::Presto, &reg);
        presto.detect(&d, &fd_rules(&d));
        assert!(presto.meter.cost() < spark.meter.cost());
        assert_eq!(SqlEngineKind::Presto.name(), "Presto");
    }
}
