//! `t.eid = s.eid` as a key join: once one variable is bound, the other
//! narrows to its relation's tuples in the bound tuple's entity class
//! (`rock::rees::eval`). The scalar reference path
//! (`with_columnar(false)`) decides the predicate per valuation instead,
//! and everything here is checked against it, on seeded random instances
//! of the shapes the workloads use: the same-relation `cnc_cid` shape
//! with and without an extra `t.A = s.A`, the cross-relation `mi_mfg`
//! shape, an inequality `t.eid != s.eid` (never joined), deleted tuples,
//! trusted tuples, and ER rules whose round-1 merges the next rounds join
//! on.
//!
//! * **Enumeration** — every unit of a full and of a delta scan plan
//!   visits the scalar path's valuations in its order, under an entity
//!   oracle whose classes span both relations of the cross shape.
//! * **Detection** — violations, counts and flagged cells equal the scalar
//!   detector's, batch and incremental; incremental finds exactly the
//!   batch violations that bind a touched tuple.
//! * **Chase** — production commits what the reference chase commits
//!   (database with eids, changes, merges, conflicts, steps), batch and
//!   incremental, one and two workers, from an empty fix store and from
//!   one with merged classes; a durable run over merged classes resumed
//!   from every round repairs byte-identically; round 1's valuations are
//!   the pairwise count, on classes merged before the run and on the
//!   tuples a ΔD touched.

mod common;

use common::{check, Gen};
use rock::chase::reference;
use rock::chase::{
    ChaseConfig, ChaseEngine, ChaseResult, DurabilityConfig, EntityKey, FixStore, GateMode,
    ReferenceResult,
};
use rock::data::{
    AttrType, CellRef, Database, DatabaseSchema, Delta, DeltaSet, Eid, FxHashMap, GlobalTid, RelId,
    RelationSchema, TupleId, Update, Value,
};
use rock::detect::Detector;
use rock::ml::ModelRegistry;
use rock::rees::eval::{enumerate_valuations, EntityOracle, EvalContext};
use rock::rees::{parse_rules, FdShape, RuleSet, ScanPlan};
use std::cell::Cell;

fn schema() -> DatabaseSchema {
    let s = AttrType::Str;
    DatabaseSchema::new(vec![
        RelationSchema::of("C", &[("cid", s), ("phone", s), ("name", s)]),
        RelationSchema::of("I", &[("name", s), ("cat", s), ("mfg", s)]),
        RelationSchema::of("X", &[("name", s), ("cat", s), ("mfg", s)]),
    ])
}

/// ER rules that merge in round 1, and the eid-joined shapes that then
/// join on the merged classes. None of them is FD-shaped, so every one
/// runs through the enumerator.
const RULES: &str = "\
rule cnc_er: C(t) && C(s) && t.phone = s.phone -> t.eid = s.eid
rule cnc_cid: C(t) && C(s) && t.eid = s.eid -> t.cid = s.cid
rule cnc_cid_name: C(t) && C(s) && s.eid = t.eid && t.name = s.name -> t.cid = s.cid
rule cnc_cid_filtered: C(t) && C(s) && t.eid = s.eid && t.name = 'n0' -> s.name = t.name
rule er_item: I(t) && X(s) && t.cat = s.cat && t.name = s.name -> t.eid = s.eid
rule mi_mfg: I(t) && X(s) && t.eid = s.eid && null(t.mfg) -> t.mfg = s.mfg
rule split: C(t) && C(s) && t.eid != s.eid && t.cid = s.cid -> t.name = s.name";

fn rules() -> RuleSet {
    let rules = RuleSet::new(parse_rules(RULES, &schema()).unwrap());
    for r in &rules.rules {
        assert!(FdShape::of(r).is_none(), "{} enumerates pairs", r.name);
    }
    rules
}

fn str_or_null(g: &mut Gen, prefix: &str, n: u64) -> Value {
    match g.below(n + 1) {
        0 => Value::Null,
        i => Value::str(format!("{prefix}{}", i - 1)),
    }
}

fn row(g: &mut Gen, rel: u16) -> Vec<Value> {
    match rel {
        0 => vec![
            str_or_null(g, "c", 3),
            str_or_null(g, "p", 4),
            str_or_null(g, "n", 2),
        ],
        _ => vec![
            str_or_null(g, "n", 3),
            str_or_null(g, "k", 2),
            str_or_null(g, "m", 2),
        ],
    }
}

/// A few eids per relation, so classes start with several members and the
/// same eid names tuples of different relations; some tuples deleted.
fn random_db(g: &mut Gen, max: usize) -> Database {
    let mut db = Database::new(&schema());
    for rel in 0..3u16 {
        let n = g.range(0..max + 1);
        for _ in 0..n {
            let values = row(g, rel);
            let eid = Eid(g.below(5) as u32);
            db.relation_mut(RelId(rel)).insert(eid, values).unwrap();
        }
        for tid in 0..n as u32 {
            if g.below(8) == 0 {
                db.relation_mut(RelId(rel)).delete(TupleId(tid));
            }
        }
    }
    db
}

/// Inserts into existing classes, cell rewrites and deletes.
fn random_delta(g: &mut Gen, db: &Database) -> Delta {
    let updates = g.vec(1..6, |g| {
        let rel = RelId(g.below(3) as u16);
        let rows = db.relation(rel).capacity() as u64;
        match g.below(5) {
            0 if rows > 0 => Update::Delete {
                rel,
                tid: TupleId(g.below(rows) as u32),
            },
            1 | 2 if rows > 0 => {
                let attr = rock::data::AttrId(g.below(3) as u16);
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
                eid: Eid(g.below(5) as u32),
                values: row(g, rel.0),
            },
        }
    });
    Delta::new(updates)
}

fn live(db: &Database) -> Vec<GlobalTid> {
    db.iter()
        .flat_map(|(rid, rel)| rel.iter().map(move |t| GlobalTid::new(rid, t.tid)))
        .collect()
}

/// An entity oracle over a fix store's `[EID]=` classes, with the members
/// of every class that holds tuples of more than one key grouped from
/// scratch.
struct Classes<'a> {
    fixes: &'a FixStore,
    merged: FxHashMap<(RelId, Eid), Vec<GlobalTid>>,
}

impl<'a> Classes<'a> {
    fn new(db: &Database, fixes: &'a FixStore) -> Self {
        let mut groups: FxHashMap<(RelId, Eid), (bool, Vec<GlobalTid>)> = FxHashMap::default();
        for t in live(db) {
            let key = EntityKey::new(t.rel, db.relation(t.rel).get(t.tid).unwrap().eid);
            let root = fixes.find_ref(key);
            let group = groups.entry((root.rel, root.eid)).or_default();
            group.0 |= key != root;
            group.1.push(t);
        }
        let merged = groups
            .into_iter()
            .filter(|(_, (several, _))| *several)
            .map(|(class, (_, members))| (class, members))
            .collect();
        Classes { fixes, merged }
    }
}

impl EntityOracle for Classes<'_> {
    fn class(&self, (rel, eid): (RelId, Eid)) -> (RelId, Eid) {
        let root = self.fixes.find_ref(EntityKey::new(rel, eid));
        (root.rel, root.eid)
    }

    fn merged_members(&self, class: (RelId, Eid)) -> Option<&[GlobalTid]> {
        self.merged.get(&class).map(Vec::as_slice)
    }
}

/// Random merges over the keys of all three relations: classes that span
/// `I` and `X`, and `C` classes united across eids.
fn random_merges(g: &mut Gen) -> FixStore {
    let mut fixes = FixStore::new();
    let key = |g: &mut Gen| EntityKey::new(RelId(g.below(3) as u16), Eid(g.below(5) as u32));
    for _ in 0..g.range(0..6) {
        let (a, b) = (key(g), key(g));
        fixes.merge(a, b);
    }
    fixes
}

/// Every unit of a full plan and of a delta plan visits, with the entity
/// join, exactly the scalar path's valuations in the scalar path's order.
#[test]
fn scan_units_visit_the_per_valuation_tests_valuations() {
    let rules = rules();
    let reg = ModelRegistry::new();
    check(120, |g| {
        let db = random_db(g, 10);
        let fixes = random_merges(g);
        let oracle = Classes::new(&db, &fixes);
        let mut touched = DeltaSet::empty(&db);
        for t in live(&db) {
            if g.below(3) == 0 {
                touched.mark(t.rel, t.tid);
            }
        }
        let parts = g.range(1..4u32);
        for delta in [false, true] {
            let mut plan = ScanPlan::new(&rules, &db, parts);
            for ri in 0..rules.len() {
                match delta {
                    false => plan.full(ri),
                    true => plan.delta(ri, &touched),
                }
            }
            let visits = |columnar: bool| {
                let ctx = EvalContext::new(&db, &reg)
                    .with_entities(&oracle)
                    .with_columnar(columnar);
                let mut seen = Vec::new();
                for unit in plan.units() {
                    let mut unit_seen = Vec::new();
                    plan.run(&ctx, &unit, |h| {
                        unit_seen.push(h.tuples.clone());
                        true
                    });
                    seen.push((unit.rule, unit_seen));
                }
                seen
            };
            let joined = visits(true);
            assert_eq!(joined, visits(false), "delta plan {delta}");
        }
    });
}

type Pairs = Vec<(usize, Vec<GlobalTid>)>;

/// What a detection reports, comparably: count, per-rule counts, the
/// violations in canonical order, and the flagged cells.
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

/// Detection with the entity join ≡ the scalar detector, batch and
/// incremental; incremental ≡ the batch violations binding a touched
/// tuple.
#[test]
fn detection_equals_the_scalar_detector() {
    let rules = rules();
    let reg = ModelRegistry::new();
    check(150, |g| {
        let mut db = random_db(g, 12);
        let detect = |db: &Database, columnar: bool| {
            let det = Detector::new(&rules, &reg)
                .with_workers(2)
                .with_columnar(columnar);
            detection(det.detect(db))
        };
        let batch = detect(&db, true);
        assert_eq!(batch, detect(&db, false), "batch detection diverged");

        let delta = random_delta(g, &db);
        let inserted = db.apply(&delta).unwrap();
        let incremental = |columnar: bool| {
            let det = Detector::new(&rules, &reg).with_columnar(columnar);
            detection(det.detect_incremental(&db, &delta, &inserted))
        };
        let incr = incremental(true);
        assert_eq!(incr, incremental(false), "incremental detection diverged");

        let touched = delta.touched(&db, &inserted);
        let (_, _, after, _) = detect(&db, true);
        let binding: Pairs = after
            .into_iter()
            .filter(|(_, h)| h.iter().any(|t| touched.contains(t.rel, t.tid)))
            .collect();
        assert_eq!(incr.2, binding, "incremental ≠ batch on touched tuples");
    });
}

/// The chase-visible outcome, comparably: every live tuple with its eid
/// and values, the changes, the merges, conflicts and steps.
type Outcome = (
    Vec<(RelId, TupleId, Eid, Vec<Value>)>,
    Vec<(CellRef, Value, Value)>,
    Vec<(GlobalTid, GlobalTid)>,
    usize,
    usize,
);

fn tuples(db: &Database) -> Vec<(RelId, TupleId, Eid, Vec<Value>)> {
    db.iter()
        .flat_map(|(rid, rel)| {
            rel.iter()
                .map(move |t| (rid, t.tid, t.eid, t.values.clone()))
        })
        .collect()
}

/// The repaired tuples, changes, merges, conflicts and steps of a
/// production run.
fn outcome(r: ChaseResult) -> Outcome {
    (
        tuples(&r.db),
        r.changes,
        r.merged_pairs,
        r.conflicts,
        r.steps,
    )
}

/// The same of a reference run.
fn reference_outcome(r: ReferenceResult) -> Outcome {
    (
        tuples(&r.db),
        r.changes,
        r.merged_pairs,
        r.conflicts,
        r.steps,
    )
}

/// Production (entity joins, delta rounds) commits what the reference
/// chase (per-valuation eid test, full re-enumeration) commits, batch and
/// incremental, with trusted tuples, on one and two workers — from an
/// empty fix store and from one whose merged classes hold from round 1.
#[test]
fn chase_equals_the_reference() {
    let rules = rules();
    let reg = ModelRegistry::new();
    let merged_runs = Cell::new(0);
    check(120, |g| {
        let db = random_db(g, 9);
        let trusted: Vec<GlobalTid> = live(&db).into_iter().filter(|_| g.below(5) == 0).collect();
        let delta = random_delta(g, &db);
        let fixes = random_merges(g);
        for workers in [1, 2] {
            let config = ChaseConfig {
                workers,
                gate: GateMode::Resolved,
                ..ChaseConfig::default()
            };
            let engine = ChaseEngine::new(&rules, &reg, config);
            let prod = engine.run(&db, &trusted);
            let rounds = prod.rounds;
            let got = outcome(prod);
            let want = reference_outcome(reference::run(&engine, &db, &trusted));
            assert_eq!(got, want, "batch, {workers} workers");
            // merges in one round, eid-joined fixes in a later one
            if !got.2.is_empty() && rounds > 2 {
                merged_runs.set(merged_runs.get() + 1);
            }

            let got = outcome(engine.run_incremental(&db, &trusted, &delta).unwrap());
            let want = reference_outcome(
                reference::run_incremental(&engine, &db, &trusted, &delta).unwrap(),
            );
            assert_eq!(got, want, "incremental, {workers} workers");

            let got = outcome(engine.run_seeded(&db, &trusted, fixes.clone()));
            let want =
                reference_outcome(reference::run_seeded(&engine, &db, &trusted, fixes.clone()));
            assert_eq!(got, want, "seeded with merges, {workers} workers");

            let prod = engine.run_incremental_seeded(&db, &trusted, &delta, fixes.clone());
            let naive =
                reference::run_incremental_seeded(&engine, &db, &trusted, &delta, fixes.clone());
            let (got, want) = (outcome(prod.unwrap()), reference_outcome(naive.unwrap()));
            assert_eq!(
                got, want,
                "incremental seeded with merges, {workers} workers"
            );
        }
    });
    let merged_runs = merged_runs.get();
    assert!(
        merged_runs > 20,
        "runs that merge, then join: {merged_runs}"
    );
}

/// Everything a durable run's byte identity covers: the repaired
/// database, the fix store, the changes, merges and round statistics.
fn durable_bytes(r: &ChaseResult) -> Vec<u8> {
    let all = rock::crystal::json!({
        "db": r.db,
        "fixes": r.fixes.to_snapshot(),
        "changes": r.changes,
        "merged_pairs": r.merged_pairs,
        "round_stats": r.round_stats,
        "conflicts": r.conflicts,
        "steps": r.steps,
    });
    all.to_string().into_bytes()
}

/// A durable run seeded with merged classes, resumed from every round,
/// repairs byte-identically to the in-memory run: the resumed commit
/// phase lists the merged classes of the checkpointed fix store, those it
/// was seeded with and those its earlier rounds merged.
#[test]
fn durable_resume_over_merged_classes_repairs_byte_identically() {
    let rules = rules();
    let reg = ModelRegistry::new();
    let resumed_after_merges = Cell::new(0);
    check(24, |g| {
        let db = random_db(g, 9);
        let fixes = random_merges(g);
        let trusted: Vec<GlobalTid> = live(&db).into_iter().filter(|_| g.below(5) == 0).collect();
        let dir = std::env::temp_dir().join(format!(
            "rock-entity-joins-{}-{}",
            std::process::id(),
            g.u64()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let memory = ChaseEngine::new(&rules, &reg, ChaseConfig::default());
        let want = durable_bytes(&memory.run_seeded(&db, &trusted, fixes.clone()));
        let config = ChaseConfig {
            durability: Some(DurabilityConfig::new(&dir)),
            ..ChaseConfig::default()
        };
        let durable = ChaseEngine::new(&rules, &reg, config);
        let first = durable.run_seeded(&db, &trusted, fixes.clone());
        assert_eq!(durable_bytes(&first), want, "durable run");
        for r in 1..=first.rounds as u64 {
            let resumed = durable.resume_at(&trusted, r).unwrap();
            assert_eq!(resumed.wal.as_ref().unwrap().resumed_from, Some(r));
            assert_eq!(durable_bytes(&resumed), want, "resumed from round {r}");
            if r > 1 && !first.merged_pairs.is_empty() {
                resumed_after_merges.set(resumed_after_merges.get() + 1);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
    let resumed = resumed_after_merges.get();
    assert!(resumed > 5, "resumes after a round that merged: {resumed}");
}

/// Valuations whose precondition holds, per rule, by the per-valuation
/// test: every rule's count, or only those binding a `touched` tuple.
fn pairwise_valuations(rules: &RuleSet, ctx: &EvalContext<'_>, touched: Option<&DeltaSet>) -> u64 {
    let mut n = 0;
    for rule in &rules.rules {
        enumerate_valuations(rule, ctx, |h| {
            let binds =
                !matches!(touched, Some(d) if !h.tuples.iter().any(|t| d.contains(t.rel, t.tid)));
            n += u64::from(binds);
            true
        });
    }
    n
}

/// Round 1's `valuations` equal the pairwise count: a batch run seeded
/// with merged classes joins on those classes, and an incremental run
/// enumerates each valuation binding a touched tuple once.
#[test]
fn round_one_valuations_are_the_pairwise_count() {
    let rules = rules();
    let reg = ModelRegistry::new();
    check(100, |g| {
        let db = random_db(g, 10);
        let fixes = random_merges(g);
        let config = ChaseConfig {
            workers: 2,
            ..ChaseConfig::default()
        };
        let engine = ChaseEngine::new(&rules, &reg, config);

        let seeded = engine.run_seeded(&db, &[], fixes.clone());
        let oracle = Classes::new(&db, &fixes);
        let scalar = EvalContext::new(&db, &reg)
            .with_entities(&oracle)
            .with_columnar(false);
        let first = &seeded.round_stats[0];
        assert_eq!(first.active_rules, rules.len());
        assert_eq!(first.valuations, pairwise_valuations(&rules, &scalar, None));

        let delta = random_delta(g, &db);
        let mut work = db.clone();
        let inserted = work.apply(&delta).unwrap();
        let touched = delta.touched(&work, &inserted);
        let incremental = engine.run_incremental(&db, &[], &delta).unwrap();
        let scalar = EvalContext::new(&work, &reg).with_columnar(false);
        let want = pairwise_valuations(&rules, &scalar, Some(&touched));
        let got = incremental.round_stats.first().map_or(0, |s| s.valuations);
        assert_eq!(got, want, "incremental round 1");
    });
}

/// Sanity: the generator's classes do join — an eid shared by tuples of
/// one relation yields satisfied `cnc_cid` preconditions besides the
/// self-pairs.
#[test]
fn generated_instances_hold_shared_classes() {
    let rules = rules();
    let reg = ModelRegistry::new();
    let shared = Cell::new(0);
    check(40, |g| {
        let db = random_db(g, 10);
        let ctx = EvalContext::new(&db, &reg);
        let mut by_class: FxHashMap<Eid, usize> = FxHashMap::default();
        for t in db.relation(RelId(0)).iter() {
            *by_class.entry(t.eid).or_default() += 1;
        }
        let want: usize = by_class.values().map(|n| n * n).sum();
        let mut got = 0;
        enumerate_valuations(&rules.rules[1], &ctx, |_| {
            got += 1;
            true
        });
        assert_eq!(got, want, "cnc_cid valuations are Σ class size²");
        shared.set(shared.get() + usize::from(by_class.values().any(|&n| n > 1)));
    });
    let shared = shared.get();
    assert!(shared > 20, "instances with a shared class: {shared}");
}
