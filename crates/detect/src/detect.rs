//! Batch and incremental violation detection.

use rock_crystal::work::partition_range;
use rock_crystal::{Cluster, ClusterConfig, FaultStats, UnitFailure, WorkUnit};
use rock_data::{CellRef, Database, Delta, FxHashMap, FxHashSet, GlobalTid, TupleId};
use rock_kg::Graph;
use rock_ml::ModelRegistry;
use rock_rees::eval::{
    distinct_ok, enumerate_valuations_in_set, enumerate_valuations_restricted, EvalContext,
    TemporalOracle, TimestampOracle, Valuation,
};
use rock_rees::{Predicate, Rule, RuleSet};

/// Classification of a detected error (what kind of consequence was
/// violated) — ER/CR/TD/MI, matching the paper's four tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Duplicate entities missed or wrongly split (EID consequences).
    Er,
    /// Semantic inconsistency between attribute values.
    Cr,
    /// Temporal-order violation (obsolete value in use).
    Td,
    /// Missing value matched by an MI rule.
    Mi,
}

/// Kind of a rule's consequence.
pub fn consequence_kind(rule: &Rule) -> ErrorKind {
    match &rule.consequence {
        Predicate::EidCmp { .. } => ErrorKind::Er,
        Predicate::Temporal { .. } | Predicate::MlRank { .. } => ErrorKind::Td,
        Predicate::ValExtract { .. } | Predicate::Predict { .. } => ErrorKind::Mi,
        Predicate::Const { .. } | Predicate::Attr { .. } => {
            // MI rules are Const/Attr consequences guarded by null(·)
            if rule
                .precondition
                .iter()
                .any(|p| matches!(p, Predicate::IsNull { .. }))
            {
                ErrorKind::Mi
            } else {
                ErrorKind::Cr
            }
        }
        _ => ErrorKind::Cr,
    }
}

/// One detected violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: usize,
    pub kind: ErrorKind,
    pub valuation: Valuation,
}

/// Detection output.
#[derive(Debug, Default)]
pub struct DetectReport {
    pub violations: Vec<Violation>,
    /// Cells implicated by violated consequences (the unit the accuracy
    /// evaluation scores; §6 Exp-2 checks per-value correctness).
    pub flagged_cells: FxHashSet<CellRef>,
    /// Tuple pairs flagged as duplicates (ER `eid =` consequences).
    pub duplicate_pairs: Vec<(GlobalTid, GlobalTid)>,
    /// Per-round modeled unit durations (scaling experiments).
    pub unit_seconds: Vec<f64>,
    /// Wall seconds of the detection pass.
    pub wall_seconds: f64,
    /// Fault/retry/speculation counters from the Crystal scheduler.
    pub fault_stats: FaultStats,
    /// Work units quarantined after exhausting retries. Their partitions
    /// contribute no violations — the report is a best-effort under-
    /// approximation whenever this is non-empty.
    pub unit_failures: Vec<UnitFailure>,
}

impl DetectReport {
    pub fn count(&self) -> usize {
        self.violations.len()
    }

    /// Violations per rule index.
    pub fn per_rule(&self) -> FxHashMap<usize, usize> {
        let mut m = FxHashMap::default();
        for v in &self.violations {
            *m.entry(v.rule).or_insert(0) += 1;
        }
        m
    }

    /// Modeled parallel seconds over `workers` nodes.
    pub fn modeled_parallel_seconds(&self, workers: usize) -> f64 {
        rock_crystal::scheduler::makespan_lpt(&self.unit_seconds, workers)
    }
}

/// Cells a violation implicates, excluding the two-sided Attr consequence
/// (handled by the participation post-pass, see [`attribute_blame`]):
/// * `Const` / `ValExtract` / `Predict` consequences implicate their one
///   target cell;
/// * `Temporal` / `MlRank` consequences implicate the *left* cell only —
///   a violated `t ⪯A s` says `t[A]` claims an out-of-order (obsolete)
///   value; `s[A]` is the witness, not the suspect;
/// * `null(·)` preconditions of MI rules implicate the null cells.
fn implicated_cells(rule: &Rule, h: &Valuation, out: &mut FxHashSet<CellRef>) {
    let mut add = |var: usize, attr: rock_data::AttrId| {
        let gt = h.tuples[var];
        out.insert(CellRef::new(gt.rel, gt.tid, attr));
    };
    match &rule.consequence {
        Predicate::Const { var, attr, .. } => add(*var, *attr),
        Predicate::Temporal { lvar, attr, .. } | Predicate::MlRank { lvar, attr, .. } => {
            add(*lvar, *attr);
        }
        Predicate::ValExtract { tvar, attr, .. } => add(*tvar, *attr),
        Predicate::Predict { var, target, .. } => add(*var, *target),
        // Attr handled by attribute_blame; EidCmp tracked as pairs.
        _ => {}
    }
    for p in &rule.precondition {
        if let Predicate::IsNull { var, attr } = p {
            add(*var, *attr);
        }
    }
}

/// Blame attribution for violated `t.A = s.B` consequences.
///
/// A violation cannot tell which side is wrong, and flagging both sides
/// destroys precision: one dirty cell in an FD group of size `k` produces
/// `k−1` violations, each implicating a clean partner. The discriminating
/// signal is the per-cell **violation ratio** `viol / (viol + sat)`, where
/// `sat` counts the valuations where the same cell participated in a
/// *satisfied* consequence: a dirty cell disagrees with (almost) all of
/// its partners, a clean cell agrees with most of its partners — including
/// the reference-table case where one clean cell joins against many dirty
/// ones. For each violation, the side(s) with the strictly-larger ratio
/// get flagged (both on ties). This is the detection-side analog of the
/// chase's majority-based conflict resolution.
fn attribute_blame(
    rules: &RuleSet,
    violations: &[Violation],
    satisfied: &FxHashMap<(usize, CellRef), u32>,
    out: &mut FxHashSet<CellRef>,
) {
    let mut viol: FxHashMap<(usize, CellRef), u32> = FxHashMap::default();
    let mut pairs: Vec<(usize, CellRef, CellRef)> = Vec::new();
    for v in violations {
        let rule = &rules.rules[v.rule];
        if let Predicate::Attr {
            lvar,
            lattr,
            rvar,
            rattr,
            ..
        } = &rule.consequence
        {
            let l = v.valuation.tuples[*lvar];
            let r = v.valuation.tuples[*rvar];
            let lc = CellRef::new(l.rel, l.tid, *lattr);
            let rc = CellRef::new(r.rel, r.tid, *rattr);
            *viol.entry((v.rule, lc)).or_insert(0) += 1;
            *viol.entry((v.rule, rc)).or_insert(0) += 1;
            pairs.push((v.rule, lc, rc));
        }
    }
    let ratio = |rule: usize, c: CellRef| -> f64 {
        let v = viol.get(&(rule, c)).copied().unwrap_or(0) as f64;
        let s = satisfied.get(&(rule, c)).copied().unwrap_or(0) as f64;
        if v + s == 0.0 {
            0.0
        } else {
            v / (v + s)
        }
    };
    for (rule, lc, rc) in pairs {
        let rl = ratio(rule, lc);
        let rr = ratio(rule, rc);
        if rl >= rr - 1e-12 {
            out.insert(lc);
        }
        if rr >= rl - 1e-12 {
            out.insert(rc);
        }
    }
}

/// Record a *satisfied* Attr-consequence pair for the blame ratios.
fn record_satisfied(
    rule: &Rule,
    ri: usize,
    h: &Valuation,
    satisfied: &mut FxHashMap<(usize, CellRef), u32>,
) {
    if let Predicate::Attr {
        lvar,
        lattr,
        rvar,
        rattr,
        ..
    } = &rule.consequence
    {
        let l = h.tuples[*lvar];
        let r = h.tuples[*rvar];
        *satisfied
            .entry((ri, CellRef::new(l.rel, l.tid, *lattr)))
            .or_insert(0) += 1;
        *satisfied
            .entry((ri, CellRef::new(r.rel, r.tid, *rattr)))
            .or_insert(0) += 1;
    }
}

/// The detector.
pub struct Detector<'a> {
    pub rules: &'a RuleSet,
    pub registry: &'a ModelRegistry,
    pub graph: Option<&'a Graph>,
    pub workers: usize,
    pub partitions_per_rule: u32,
    pub cluster: ClusterConfig,
    /// Route scan prefilters through the columnar kernels. Always on in
    /// production; see [`Detector::with_columnar`].
    pub columnar: bool,
}

impl<'a> Detector<'a> {
    pub fn new(rules: &'a RuleSet, registry: &'a ModelRegistry) -> Self {
        Detector {
            rules,
            registry,
            graph: None,
            workers: 1,
            partitions_per_rule: 4,
            cluster: ClusterConfig::default(),
            columnar: true,
        }
    }

    pub fn with_graph(mut self, g: &'a Graph) -> Self {
        self.graph = Some(g);
        self
    }

    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Fault-injection / retry / speculation knobs for the batch path.
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Reference hook, not a user option: `false` scans with scalar
    /// per-tuple prefilters, the baseline the columnar ≡ scalar detection
    /// tests compare against.
    pub fn with_columnar(mut self, columnar: bool) -> Self {
        self.columnar = columnar;
        self
    }

    /// Batch detection over the whole database.
    pub fn detect(&self, db: &Database) -> DetectReport {
        let start = std::time::Instant::now();
        let oracle = TimestampOracle { db };
        let mut report = self.detect_inner(db, &oracle, None);
        report.wall_seconds = start.elapsed().as_secs_f64();
        report
    }

    /// Incremental detection: only violations involving a tuple touched by
    /// ΔD (which has already been applied to `db` by the caller, receiving
    /// `inserted` back from [`Database::apply`]).
    pub fn detect_incremental(
        &self,
        db: &Database,
        delta: &Delta,
        inserted: &[TupleId],
    ) -> DetectReport {
        let start = std::time::Instant::now();
        // touched tuples per relation
        let mut touched: FxHashMap<rock_data::RelId, FxHashSet<TupleId>> = FxHashMap::default();
        let mut ins = inserted.iter();
        for u in &delta.updates {
            match u {
                rock_data::Update::Insert { rel, .. } => {
                    if let Some(t) = ins.next() {
                        touched.entry(*rel).or_default().insert(*t);
                    }
                }
                rock_data::Update::Delete { .. } => {}
                rock_data::Update::SetCell { rel, tid, .. } => {
                    touched.entry(*rel).or_default().insert(*tid);
                }
            }
        }
        let oracle = TimestampOracle { db };
        let mut report = self.detect_inner(db, &oracle, Some(&touched));
        report.wall_seconds = start.elapsed().as_secs_f64();
        report
    }

    fn detect_inner(
        &self,
        db: &Database,
        oracle: &dyn TemporalOracle,
        touched: Option<&FxHashMap<rock_data::RelId, FxHashSet<TupleId>>>,
    ) -> DetectReport {
        let mut ctx = EvalContext::new(db, self.registry)
            .with_temporal(oracle)
            .with_columnar(self.columnar);
        if let Some(g) = self.graph {
            ctx = ctx.with_graph(g);
        }
        let mut report = DetectReport::default();
        let mut satisfied: FxHashMap<(usize, CellRef), u32> = FxHashMap::default();

        match touched {
            None => {
                // batch: rule × partition work units on the cluster
                let cluster = Cluster::with_config(self.workers, self.cluster.clone());
                let mut units = Vec::new();
                for (ri, rule) in self.rules.iter().enumerate() {
                    let rel0 = rule.rel_of(0);
                    let rows = db.relation(rel0).capacity() as u32;
                    for p in partition_range(rel0.0, rows, self.partitions_per_rule) {
                        units.push(WorkUnit::new(ri as u32, vec![p]));
                    }
                }
                let rules = self.rules;
                let outcome = cluster.execute(units, |unit| {
                    let ri = unit.rule as usize;
                    let rule = &rules.rules[ri];
                    let range = unit.partitions[0].start..unit.partitions[0].end;
                    let mut found = Vec::new();
                    let mut sats = Vec::new();
                    enumerate_valuations_restricted(rule, &ctx, Some((0, range)), |h| {
                        if !distinct_ok(rule, h) {
                            return true;
                        }
                        if ctx.eval_predicate(rule, h, &rule.consequence) == Some(true) {
                            sats.push((ri, h.clone()));
                        } else {
                            found.push((ri, h.clone()));
                        }
                        true
                    });
                    Ok((found, sats))
                });
                report.unit_seconds = outcome.stats.unit_seconds;
                report.fault_stats.merge(&outcome.stats.faults);
                report.unit_failures.extend(outcome.failures);
                for (found, sats) in outcome.results.into_iter().flatten() {
                    for (ri, h) in found {
                        let rule = &self.rules.rules[ri];
                        record(rule, ri, consequence_kind(rule), &h, &mut report);
                    }
                    for (ri, h) in sats {
                        record_satisfied(&self.rules.rules[ri], ri, &h, &mut satisfied);
                    }
                }
            }
            Some(touched) => {
                for (ri, rule) in self.rules.iter().enumerate() {
                    let kind = consequence_kind(rule);
                    // a violation must bind ≥1 touched tuple: run one
                    // restricted enumeration per variable and dedup.
                    let mut seen: FxHashSet<Vec<GlobalTid>> = FxHashSet::default();
                    for var in 0..rule.tuple_vars.len() {
                        let rel = rule.rel_of(var);
                        let Some(set) = touched.get(&rel) else {
                            continue;
                        };
                        if set.is_empty() {
                            continue;
                        }
                        enumerate_valuations_in_set(rule, &ctx, var, set, |h| {
                            if !distinct_ok(rule, h) || !seen.insert(h.tuples.clone()) {
                                return true;
                            }
                            if ctx.eval_predicate(rule, h, &rule.consequence) == Some(true) {
                                record_satisfied(rule, ri, h, &mut satisfied);
                            } else {
                                record(rule, ri, kind, h, &mut report);
                            }
                            true
                        });
                    }
                }
            }
        }
        attribute_blame(
            self.rules,
            &report.violations,
            &satisfied,
            &mut report.flagged_cells,
        );
        report
    }
}

fn record(rule: &Rule, ri: usize, kind: ErrorKind, h: &Valuation, report: &mut DetectReport) {
    implicated_cells(rule, h, &mut report.flagged_cells);
    if let Predicate::EidCmp {
        lvar,
        rvar,
        eq: true,
    } = &rule.consequence
    {
        report
            .duplicate_pairs
            .push((h.tuples[*lvar], h.tuples[*rvar]));
    }
    report.violations.push(Violation {
        rule: ri,
        kind,
        valuation: h.clone(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrId, AttrType, DatabaseSchema, RelId, RelationSchema, Update, Value};
    use rock_rees::parse_rules;

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new(vec![RelationSchema::of(
            "Trans",
            &[
                ("pid", AttrType::Str),
                ("com", AttrType::Str),
                ("mfg", AttrType::Str),
                ("price", AttrType::Float),
            ],
        )])
    }

    fn db() -> Database {
        let mut db = Database::new(&schema());
        let r = db.relation_mut(RelId(0));
        r.insert_row(vec![
            Value::str("p1"),
            Value::str("IPhone"),
            Value::str("Apple"),
            Value::Float(1.0),
        ])
        .unwrap();
        r.insert_row(vec![
            Value::str("p2"),
            Value::str("IPhone"),
            Value::str("Huawei"),
            Value::Float(2.0),
        ])
        .unwrap();
        r.insert_row(vec![
            Value::str("p3"),
            Value::str("Mate"),
            Value::str("Huawei"),
            Value::Null,
        ])
        .unwrap();
        db
    }

    fn ruleset() -> RuleSet {
        RuleSet::new(
            parse_rules(
                "rule cr: Trans(t) && Trans(s) && t.com = s.com -> t.mfg = s.mfg\nrule mi: Trans(t) && null(t.price) -> t.price = 0",
                &schema(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn batch_detection_finds_both_kinds() {
        let db = db();
        let reg = ModelRegistry::new();
        let rules = ruleset();
        let det = Detector::new(&rules, &reg);
        let rep = det.detect(&db);
        // CR: (t0,t1) both directions; MI: t2.price
        assert_eq!(rep.count(), 3);
        let per = rep.per_rule();
        assert_eq!(per[&0], 2);
        assert_eq!(per[&1], 1);
        assert!(rep
            .flagged_cells
            .contains(&CellRef::new(RelId(0), TupleId(0), AttrId(2))));
        assert!(rep
            .flagged_cells
            .contains(&CellRef::new(RelId(0), TupleId(1), AttrId(2))));
        assert!(rep
            .flagged_cells
            .contains(&CellRef::new(RelId(0), TupleId(2), AttrId(3))));
        assert!(rep.wall_seconds >= 0.0);
    }

    #[test]
    fn error_kinds_classified() {
        let rules = ruleset();
        assert_eq!(consequence_kind(&rules.rules[0]), ErrorKind::Cr);
        assert_eq!(consequence_kind(&rules.rules[1]), ErrorKind::Mi);
        let er = parse_rules(
            "rule er: Trans(t) && Trans(s) && t.pid = s.pid -> t.eid = s.eid",
            &schema(),
        )
        .unwrap();
        assert_eq!(consequence_kind(&er[0]), ErrorKind::Er);
        let td = parse_rules(
            "rule td: Trans(t) && Trans(s) && t.price <= s.price -> t <=[price] s",
            &schema(),
        )
        .unwrap();
        assert_eq!(consequence_kind(&td[0]), ErrorKind::Td);
    }

    #[test]
    fn duplicate_pairs_from_er_rules() {
        let mut db = db();
        db.relation_mut(RelId(0))
            .insert_row(vec![
                Value::str("p1"),
                Value::str("Mate"),
                Value::str("Huawei"),
                Value::Float(5.0),
            ])
            .unwrap();
        let rules = RuleSet::new(
            parse_rules(
                "rule er: Trans(t) && Trans(s) && t.pid = s.pid -> t.eid = s.eid",
                &schema(),
            )
            .unwrap(),
        );
        let reg = ModelRegistry::new();
        let rep = Detector::new(&rules, &reg).detect(&db);
        assert_eq!(rep.duplicate_pairs.len(), 2); // (t0,t3) and (t3,t0)
    }

    #[test]
    fn parallel_detection_same_results() {
        let db = db();
        let reg = ModelRegistry::new();
        let rules = ruleset();
        let seq = Detector::new(&rules, &reg).detect(&db);
        let par = Detector::new(&rules, &reg).with_workers(4).detect(&db);
        assert_eq!(seq.count(), par.count());
        assert_eq!(seq.flagged_cells, par.flagged_cells);
    }

    #[test]
    fn incremental_matches_batch_on_touched() {
        let mut db = db();
        let delta = rock_data::Delta::new(vec![
            Update::Insert {
                rel: RelId(0),
                eid: rock_data::Eid(9),
                values: vec![
                    Value::str("p9"),
                    Value::str("IPhone"),
                    Value::str("Sony"),
                    Value::Float(4.0),
                ],
            },
            Update::SetCell {
                rel: RelId(0),
                tid: TupleId(2),
                attr: AttrId(3),
                value: Value::Null,
            },
        ]);
        let inserted = db.apply(&delta).unwrap();
        let reg = ModelRegistry::new();
        let rules = ruleset();
        let det = Detector::new(&rules, &reg);
        let inc = det.detect_incremental(&db, &delta, &inserted);
        // every incremental violation involves a touched tuple
        let touched: FxHashSet<TupleId> = [TupleId(2), inserted[0]].into_iter().collect();
        for v in &inc.violations {
            assert!(v.valuation.tuples.iter().any(|g| touched.contains(&g.tid)));
        }
        // and the incremental set equals the batch set restricted to touched
        let batch = det.detect(&db);
        let batch_touched = batch
            .violations
            .iter()
            .filter(|v| v.valuation.tuples.iter().any(|g| touched.contains(&g.tid)))
            .count();
        assert_eq!(inc.count(), batch_touched);
        assert!(
            inc.count() >= 3,
            "new Sony tuple conflicts with t0/t1 + null price"
        );
    }

    #[test]
    fn incremental_empty_delta_finds_nothing() {
        let db = db();
        let reg = ModelRegistry::new();
        let rules = ruleset();
        let rep =
            Detector::new(&rules, &reg).detect_incremental(&db, &rock_data::Delta::default(), &[]);
        assert_eq!(rep.count(), 0);
    }

    #[test]
    fn modeled_parallel_seconds_monotone() {
        let db = db();
        let reg = ModelRegistry::new();
        let rules = ruleset();
        let rep = Detector::new(&rules, &reg).detect(&db);
        let t1 = rep.modeled_parallel_seconds(1);
        let t4 = rep.modeled_parallel_seconds(4);
        assert!(t4 <= t1 + 1e-12);
    }
}
