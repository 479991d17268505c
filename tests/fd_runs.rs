//! The per-join-run evaluation of FD-shaped rules (`rock::rees::runs`)
//! against pair enumeration, on seeded random instances of every shape
//! the run kernel takes: self-joins, cross-relation joins, per-side unary
//! filters, composite keys, a consequence comparing two different
//! attributes, a join on two different attributes, a consequence whose
//! left variable is the second one, and Int/Float columns joined and
//! compared across types — with nulls in join and consequence columns.
//!
//! * **Detection** — the production detector (runs) reports exactly the
//!   scalar detector's (pairs) `count()`, `per_rule()`, expanded violation
//!   set and flagged cells, in batch and incremental mode.
//! * **Equate groups** — the union–find over a rule's groups equals the
//!   union–find over the `EquateCells` pairs the pairwise leaf would
//!   propose, and each cluster's support equals the union of its pairs'
//!   tuples; with and without a touched restriction.
//! * **Chase delta rounds** — production (run kernel, carried per run)
//!   commits what the pairwise reference commits, when commits and ΔD move
//!   tuples between runs, flip filters and null consequence cells.

mod common;

use common::{check, Gen};
use rock::chase::reference;
use rock::chase::{ChaseConfig, ChaseEngine, GateMode};
use rock::data::{
    AttrId, AttrType, CellRef, Database, DatabaseSchema, Delta, DeltaSet, Eid, FxHashMap,
    FxHashSet, GlobalTid, RelId, RelationSchema, TupleId, Update, Value,
};
use rock::detect::Detector;
use rock::ml::ModelRegistry;
use rock::rees::eval::{distinct_ok, enumerate_valuations, EvalContext};
use rock::rees::{parse_rules, FdRuns, FdShape, Rule, RuleSet};

fn schema() -> DatabaseSchema {
    let s = AttrType::Str;
    DatabaseSchema::new(vec![
        RelationSchema::of("T", &[("k", s), ("b", s), ("a", s), ("c", s)]),
        RelationSchema::of("U", &[("k", s), ("a", s)]),
        RelationSchema::of(
            "N",
            &[
                ("i", AttrType::Int),
                ("x", AttrType::Float),
                ("y", AttrType::Int),
                ("z", AttrType::Float),
            ],
        ),
    ])
}

/// One rule per shape; every one of them is FD-shaped.
const SHAPES: &str = "\
rule self_join: T(t) && T(s) && t.k = s.k -> t.a = s.a
rule filtered: T(t) && T(s) && t.k = s.k && t.b = 'v1' && s.b != 'v0' -> t.a = s.a
rule null_filter: T(t) && T(s) && t.k = s.k && null(s.c) -> t.a = s.a
rule composite: T(t) && T(s) && t.k = s.k && t.b = s.b -> t.a = s.a
rule two_attrs: T(t) && T(s) && t.k = s.k -> t.a = s.c
rule two_keys: T(t) && T(s) && t.k = s.b -> t.a = s.a
rule cross: T(t) && U(u) && t.k = u.k -> t.a = u.a
rule reversed: T(t) && U(u) && u.k = t.k -> u.a = t.c
rule numeric: N(t) && N(s) && t.i = s.x -> t.y = s.z
rule numeric_pair: N(t) && N(s) && t.x = s.x && t.i = s.i -> t.z = s.z";

fn shapes() -> RuleSet {
    let rules = RuleSet::new(parse_rules(SHAPES, &schema()).unwrap());
    for r in &rules.rules {
        assert!(FdShape::of(r).is_some(), "{} is FD-shaped", r.name);
    }
    rules
}

fn str_or_null(g: &mut Gen, prefix: &str, n: u64) -> Value {
    match g.below(n + 1) {
        0 => Value::Null,
        i => Value::str(format!("{prefix}{}", i - 1)),
    }
}

fn t_row(g: &mut Gen) -> Vec<Value> {
    // k and b share an alphabet so `t.k = s.b` joins
    vec![
        str_or_null(g, "v", 3),
        str_or_null(g, "v", 3),
        str_or_null(g, "x", 3),
        str_or_null(g, "x", 3),
    ]
}

fn u_row(g: &mut Gen) -> Vec<Value> {
    vec![str_or_null(g, "v", 3), str_or_null(g, "x", 3)]
}

fn n_row(g: &mut Gen) -> Vec<Value> {
    let int = |g: &mut Gen, n: u64| match g.below(n + 1) {
        0 => Value::Null,
        i => Value::Int(i as i64 - 1),
    };
    let float = |g: &mut Gen, xs: &[f64]| match g.below(xs.len() as u64 + 1) {
        0 => Value::Null,
        i => Value::Float(xs[i as usize - 1]),
    };
    vec![
        int(g, 3),
        float(g, &[0.0, 1.0, 1.5, 2.0]),
        int(g, 2),
        float(g, &[0.0, 0.5, 1.0]),
    ]
}

fn row(g: &mut Gen, rel: u16) -> Vec<Value> {
    match rel {
        0 => t_row(g),
        1 => u_row(g),
        _ => n_row(g),
    }
}

/// Up to `max` rows per relation, some then deleted (tombstones keep
/// their tuple ids).
fn random_db(g: &mut Gen, max: usize) -> Database {
    let mut db = Database::new(&schema());
    for rel in 0..3u16 {
        let n = g.range(0..max + 1);
        for _ in 0..n {
            let values = row(g, rel);
            db.relation_mut(RelId(rel)).insert_row(values).unwrap();
        }
        for tid in 0..n as u32 {
            if g.below(8) == 0 {
                db.relation_mut(RelId(rel)).delete(TupleId(tid));
            }
        }
    }
    db
}

/// Cell rewrites (often to null or onto another run's key), inserts and
/// deletes.
fn random_delta(g: &mut Gen, db: &Database) -> Delta {
    let updates = g.vec(1..6, |g| {
        let rel = RelId(g.below(3) as u16);
        let rows = db.relation(rel).capacity() as u64;
        let arity = db.relation(rel).schema.arity() as u64;
        match g.below(5) {
            0 if rows > 0 => Update::Delete {
                rel,
                tid: TupleId(g.below(rows) as u32),
            },
            1 | 2 if rows > 0 => {
                let attr = AttrId(g.below(arity) as u16);
                let value = row(g, rel.0)[attr.index()].clone();
                Update::SetCell {
                    rel,
                    tid: TupleId(g.below(rows) as u32),
                    attr,
                    value,
                }
            }
            _ => Update::Insert {
                rel,
                eid: Eid(1000 + g.below(1000) as u32),
                values: row(g, rel.0),
            },
        }
    });
    Delta::new(updates)
}

type Pairs = Vec<(usize, Vec<GlobalTid>)>;

/// What a detection reports, comparably: count, per-rule counts, the
/// expanded violations in canonical order, and the flagged cells.
fn detection(
    report: rock::detect::DetectReport,
) -> (usize, Vec<(usize, usize)>, Pairs, Vec<CellRef>) {
    let mut per_rule: Vec<_> = report.per_rule().into_iter().collect();
    per_rule.sort_unstable();
    let mut pairs: Pairs = report
        .pairs()
        .into_iter()
        .map(|v| (v.rule, v.valuation.tuples))
        .collect();
    pairs.sort_unstable();
    let mut cells: Vec<_> = report.flagged_cells.iter().copied().collect();
    cells.sort_unstable();
    (report.count(), per_rule, pairs, cells)
}

/// Detection per join run ≡ detection per pair, batch and incremental.
#[test]
fn detection_per_run_equals_pair_enumeration() {
    let rules = shapes();
    let reg = ModelRegistry::new();
    check(200, |g| {
        let mut db = random_db(g, 10);
        let detect = |db: &Database, columnar: bool| {
            let det = Detector::new(&rules, &reg)
                .with_workers(2)
                .with_columnar(columnar);
            detection(det.detect(db))
        };
        let runs = detect(&db, true);
        assert_eq!(runs, detect(&db, false), "batch detection diverged");
        assert_eq!(runs.0, runs.2.len(), "count() is the expanded pairs'");

        let delta = random_delta(g, &db);
        let inserted = db.apply(&delta).unwrap();
        let incremental = |columnar: bool| {
            let det = Detector::new(&rules, &reg).with_columnar(columnar);
            detection(det.detect_incremental(&db, &delta, &inserted))
        };
        assert_eq!(
            incremental(true),
            incremental(false),
            "incremental detection diverged"
        );
    });
}

/// Union–find over cells, each union carrying support tuples: the
/// clusters Phase C forms, with each cluster's support.
#[derive(Default)]
struct Clusters {
    parent: FxHashMap<CellRef, CellRef>,
    members: Vec<(Vec<CellRef>, Vec<GlobalTid>)>,
}

impl Clusters {
    fn find(&mut self, c: CellRef) -> CellRef {
        let p = *self.parent.entry(c).or_insert(c);
        if p == c {
            return c;
        }
        let root = self.find(p);
        self.parent.insert(c, root);
        root
    }

    /// Equate `cells`, supported by `tids`.
    fn equate(&mut self, cells: &[CellRef], tids: &[GlobalTid]) {
        for c in &cells[1..] {
            let (ra, rb) = (self.find(cells[0]), self.find(*c));
            self.parent.insert(ra.max(rb), ra.min(rb));
        }
        self.members.push((cells.to_vec(), tids.to_vec()));
    }

    fn into_sorted(mut self) -> Vec<(Vec<CellRef>, Vec<GlobalTid>)> {
        let members = std::mem::take(&mut self.members);
        let mut comps: FxHashMap<CellRef, (Vec<CellRef>, Vec<GlobalTid>)> = FxHashMap::default();
        for (cells, tids) in members {
            let e = comps.entry(self.find(cells[0])).or_default();
            e.0.extend(cells);
            e.1.extend(tids);
        }
        let mut out: Vec<_> = comps
            .into_values()
            .map(|(mut cells, mut tids)| {
                cells.sort_unstable();
                cells.dedup();
                tids.sort_unstable();
                tids.dedup();
                (cells, tids)
            })
            .collect();
        out.sort();
        out
    }
}

/// A rule's violation count and its clusters, each with its support.
type Clustered = (u64, Vec<(Vec<CellRef>, Vec<GlobalTid>)>);

/// The violations of `rule` and the clusters of the `EquateCells` pairs
/// the pairwise leaf would propose (supported by each pair's tuples),
/// restricted to pairs binding a `touched` tuple when given.
fn pair_clusters(rule: &Rule, db: &Database, touched: Option<&FxHashSet<GlobalTid>>) -> Clustered {
    let shape = FdShape::of(rule).unwrap();
    let reg = ModelRegistry::new();
    let ctx = EvalContext::new(db, &reg).with_columnar(false);
    let mut clusters = Clusters::default();
    let mut violations = 0;
    enumerate_valuations(rule, &ctx, |h| {
        let binds = !matches!(touched, Some(t) if !h.tuples.iter().any(|g| t.contains(g)));
        let holds = ctx.eval_predicate(h, &rule.consequence) == Some(true);
        if distinct_ok(rule, h) && binds && !holds {
            violations += 1;
            let (l, r) = (h.tuples[shape.vars[0]], h.tuples[shape.vars[1]]);
            clusters.equate(&[shape.cell(0, l.tid), shape.cell(1, r.tid)], &h.tuples);
        }
        true
    });
    (violations, clusters.into_sorted())
}

/// The run kernel's violations and the clusters of its equate groups
/// (each supported by its nodes' tuples). Every group is checked to hold
/// at least two cells, and every run's count against its expansion.
fn run_clusters(rule: &Rule, db: &Database, touched: Option<&FxHashSet<GlobalTid>>) -> Clustered {
    let mut fd = FdRuns::new(rule, db).unwrap();
    let keys = match touched {
        None => fd.all_keys(),
        Some(t) => {
            let mut marks = DeltaSet::empty(db);
            for g in t {
                marks.mark(g.rel, g.tid);
            }
            fd.restrict(&marks);
            fd.marked_keys(&marks)
        }
    };
    let shape = fd.shape.clone();
    let mut violations = 0;
    let mut clusters = Clusters::default();
    for key in keys {
        let run = fd.run(&key);
        violations += run.violations();
        assert_eq!(run.violations(), run.pairs().len() as u64, "{}", rule.name);
        for comp in run.components(shape.shared_cells()) {
            let tid = |s: usize, i: u32| run.sides[s][i as usize].tid;
            let mut cells: Vec<CellRef> = comp
                .iter()
                .map(|&(s, i)| shape.cell(s, tid(s, i)))
                .collect();
            cells.sort_unstable();
            cells.dedup();
            assert!(cells.len() >= 2, "{}: a group equates two cells", rule.name);
            let tids: Vec<GlobalTid> = comp
                .iter()
                .map(|&(s, i)| shape.tuple(s, tid(s, i)))
                .collect();
            clusters.equate(&cells, &tids);
        }
    }
    (violations, clusters.into_sorted())
}

/// Equate groups cluster exactly the cells the pairs cluster, and each
/// cluster's support is the union of its pairs' tuples — what Phase C and
/// the WAL see — with and without a touched restriction. (A cell may join
/// one run as a left member and another as a right one, so a group is a
/// component of its run's pairs; clusters can span runs.)
#[test]
fn equate_groups_are_the_union_find_of_the_pairs() {
    let rules = shapes();
    check(200, |g| {
        let db = random_db(g, 9);
        let touched: FxHashSet<GlobalTid> = db
            .iter()
            .flat_map(|(rid, rel)| rel.iter().map(move |t| GlobalTid::new(rid, t.tid)))
            .filter(|_| g.below(3) == 0)
            .collect();
        for rule in &rules.rules {
            for restrict in [None, Some(&touched)] {
                let want = pair_clusters(rule, &db, restrict);
                let got = run_clusters(rule, &db, restrict);
                assert_eq!(got, want, "{} restricted {}", rule.name, restrict.is_some());
            }
        }
    });
}

/// Rules that write each other's join keys, filter columns and
/// consequence cells, so a round's commit moves tuples between runs and
/// flips filters for the next delta round.
const CASCADE: &str = "\
rule key_writer: T(t) && T(s) && t.a = s.a -> t.b = s.b
rule filtered: T(t) && T(s) && t.k = s.k && t.b = 'v1' && s.b != 'v0' -> t.a = s.a
rule composite: T(t) && T(s) && t.k = s.k && t.b = s.b -> t.c = s.c
rule two_keys: T(t) && T(s) && t.k = s.b -> t.a = s.c
rule null_filter: T(t) && T(s) && t.c = s.c && null(s.a) -> t.k = s.k
rule cross: T(t) && U(u) && t.k = u.k -> t.a = u.a
rule numeric: N(t) && N(s) && t.i = s.x -> t.y = s.z";

/// Production's per-run delta rounds commit what the pairwise reference
/// commits: batch runs (later rounds are delta rounds over what earlier
/// commits moved) and incremental runs over a ΔD, one and three workers.
#[test]
fn chase_delta_rounds_per_run_equal_reference() {
    let rules = RuleSet::new(parse_rules(CASCADE, &schema()).unwrap());
    let reg = ModelRegistry::new();
    let tuples = |db: &Database| {
        db.iter()
            .flat_map(|(rid, rel)| rel.iter().map(move |t| (rid, t.tid, t.values.clone())))
            .collect::<Vec<_>>()
    };
    check(96, |g| {
        let db = random_db(g, 8);
        let delta = random_delta(g, &db);
        for workers in [1, 3] {
            let config = ChaseConfig {
                workers,
                gate: GateMode::Resolved,
                ..ChaseConfig::default()
            };
            let engine = ChaseEngine::new(&rules, &reg, config);
            let prod = engine.run(&db, &[]);
            let naive = reference::run(&engine, &db, &[]);
            assert_eq!(tuples(&prod.db), tuples(&naive.db), "batch databases");
            assert_eq!(prod.changes, naive.changes, "batch changes");
            assert_eq!(
                (prod.conflicts, prod.steps),
                (naive.conflicts, naive.steps),
                "batch conflicts and steps"
            );
            let prod = engine.run_incremental(&db, &[], &delta).unwrap();
            let naive = reference::run_incremental(&engine, &db, &[], &delta).unwrap();
            assert_eq!(tuples(&prod.db), tuples(&naive.db), "incremental databases");
            assert_eq!(prod.changes, naive.changes, "incremental changes");
            assert_eq!(
                (prod.conflicts, prod.steps),
                (naive.conflicts, naive.steps),
                "incremental conflicts and steps"
            );
        }
    });
}
