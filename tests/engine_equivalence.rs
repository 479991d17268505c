//! One differential suite for the one production path of each engine layer.
//!
//! * **Chase** — `ChaseEngine::run` / `run_incremental` (semi-naive delta
//!   rounds over Crystal work units, lazy activation filtered by the
//!   certified schedule, columnar prefilters, optional ML block index) must
//!   commit exactly what `rock::chase::reference` commits: a naive chase
//!   that re-enumerates every valuation of every classically activated rule
//!   each round, single-threaded, with scalar predicate evaluation. The two
//!   share only the valuation leaf and the commit phase.
//! * **Discovery** — `Discoverer::mine_relation` (bitset kernels) must mine
//!   exactly what `Discoverer::mine_relation_scan` (tuple re-scan) mines,
//!   whatever the cache budget.
//!
//! Inputs come from the shared seeded generator (`tests/common`) and
//! databases are compared structurally. A failing case prints its seed.

mod common;

use common::Gen as Rng;

use rock::chase::reference::{self, ReferenceResult};
use rock::chase::{ChaseConfig, ChaseEngine, ChaseResult, GateMode};
use rock::crystal::{ClusterConfig, FaultPlan};
use rock::data::{
    AttrId, AttrType, Database, DatabaseSchema, Delta, Eid, GlobalTid, RelId, RelationSchema,
    TupleId, Update, Value,
};
use rock::detect::blocking::precompute_ml_indexed;
use rock::discovery::levelwise::{Discoverer, DiscoveryConfig, DiscoveryReport};
use rock::discovery::space::{MlSignature, PredicateSpace, SpaceConfig};
use rock::ml::ModelRegistry;
use rock::rees::{parse_rules, RuleSet, TerminationClass};
use rock::workloads::workload::{GenConfig, Workload};

/// Cases per randomized property.
const CASES: u64 = 96;

fn schema() -> DatabaseSchema {
    DatabaseSchema::new(vec![RelationSchema::of(
        "T",
        &[
            ("k", AttrType::Str),
            ("a", AttrType::Str),
            ("b", AttrType::Str),
            ("c", AttrType::Str),
        ],
    )])
}

/// The cascade rule set: value propagation (r1, r2), a constant rule (r3),
/// an ER merge (r4, so re-activation must follow class membership, not just
/// written cells), a null-fill (r5) and a same-tuple comparison (r6) — r3,
/// r5 and r6 are the unary shapes the columnar prefilter answers, which the
/// scalar reference re-derives tuple by tuple. Plus two statically dead
/// rules the schedule must keep out of every round while the reference
/// keeps evaluating them: an unsatisfiable precondition (u1) and a
/// reflexive merge (d1).
fn cascade_rules() -> RuleSet {
    RuleSet::new(
        parse_rules(
            "rule r1: T(t) && T(s) && t.k = s.k -> t.a = s.a\n\
             rule r2: T(t) && T(s) && t.a = s.a -> t.b = s.b\n\
             rule r3: T(t) && t.a = 'x' -> t.c = 'cx'\n\
             rule r4: T(t) && T(s) && t.k = s.k -> t.eid = s.eid\n\
             rule r5: T(t) && null(t.c) && t.b = 'bz' -> t.c = 'cz'\n\
             rule r6: T(t) && t.a = t.b -> t.c = 'cab'\n\
             rule u1: T(t) && t.a = 'p' && t.a = 'q' -> t.c = 'zz'\n\
             rule d1: T(t) && t.b = 'b1' -> t.eid = t.eid",
            &schema(),
        )
        .unwrap(),
    )
}

/// `rows` random tuples; `b` ranges over {bz, a1, a2, x} so it can collide
/// with `a` (r6) and still hit the `'bz'` arm (r5).
fn random_db(rng: &mut Rng, rows: u64) -> Database {
    let mut db = Database::new(&schema());
    let r = db.relation_mut(RelId(0));
    for _ in 0..rows {
        r.insert_row(vec![
            Value::str(format!("k{}", rng.below(4))),
            Value::str(match rng.below(3) {
                0 => "x".into(),
                n => format!("a{n}"),
            }),
            Value::str(match rng.below(4) {
                0 => "bz".into(),
                3 => "x".into(),
                n => format!("a{n}"),
            }),
            match rng.below(3) {
                0 => Value::Null,
                n => Value::str(format!("c{}", n - 1)),
            },
        ])
        .unwrap();
    }
    db
}

fn random_delta(rng: &mut Rng, rows: u64) -> Delta {
    let edits = 1 + rng.below(5);
    Delta::new(
        (0..edits)
            .map(|_| Update::SetCell {
                rel: RelId(0),
                tid: TupleId(rng.below(rows) as u32),
                attr: AttrId(rng.below(4) as u16),
                value: match rng.below(4) {
                    0 => Value::Null,
                    n => Value::str(format!("v{}", n - 1)),
                },
            })
            .collect(),
    )
}

/// A database as comparable data: every live tuple with its eid and values.
fn tuples(db: &Database) -> Vec<(RelId, TupleId, Eid, Vec<Value>)> {
    let mut out = Vec::new();
    for (rid, rel) in db.iter() {
        for t in rel.iter() {
            out.push((rid, t.tid, t.eid, t.values.clone()));
        }
    }
    out
}

fn rule_rounds(stats: &[rock::chase::RoundStats]) -> usize {
    stats.iter().map(|s| s.active_rules).sum()
}

/// Production ≡ reference on everything a chase commits, production never
/// needs more rounds or rule × round pairs, and the run stayed inside the
/// certificate it carries.
fn assert_equiv(prod: &ChaseResult, naive: &ReferenceResult, case: &str) {
    assert_eq!(tuples(&prod.db), tuples(&naive.db), "{case}: databases");
    assert_eq!(prod.changes, naive.changes, "{case}: change lists");
    assert_eq!(prod.merged_pairs, naive.merged_pairs, "{case}: merges");
    assert_eq!(prod.conflicts, naive.conflicts, "{case}: conflicts");
    assert_eq!(prod.steps, naive.steps, "{case}: steps");
    assert!(
        prod.rounds <= naive.rounds,
        "{case}: production added rounds"
    );
    assert!(
        rule_rounds(&prod.round_stats) <= rule_rounds(&naive.round_stats),
        "{case}: the schedule grew the activation"
    );
    assert!(prod.fixes.is_valid() && naive.fixes.is_valid(), "{case}");
    assert!(prod.unit_failures.is_empty(), "{case}: quarantined units");
    let cert = &prod.certification;
    assert!(cert.violation.is_none(), "{case}: {:?}", cert.violation);
    match cert.resolved_bound {
        Some(bound) => {
            assert!(prod.rounds as u64 <= bound, "{case}: bound {bound}");
            for s in &prod.round_stats {
                assert!(s.bound_margin >= 0, "{case}: margin {}", s.bound_margin);
                assert!(s.strata >= 1 || s.active_rules == 0, "{case}: no strata");
            }
        }
        None => assert_eq!(cert.class, TerminationClass::Unbounded, "{case}"),
    }
}

fn config(gate: GateMode, workers: usize) -> ChaseConfig {
    ChaseConfig {
        gate,
        workers,
        partitions_per_rule: if workers > 1 { 8 } else { 4 },
        ..ChaseConfig::default()
    }
}

/// Batch runs over random databases: both gate modes (row 0 trusted so the
/// Strict gate has ground truth to bootstrap from), one and four workers.
#[test]
fn batch_production_equals_reference() {
    let rules = cascade_rules();
    let reg = ModelRegistry::new();
    let trusted = [GlobalTid::new(RelId(0), TupleId(0))];
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let rows = 2 + rng.below(10);
        let db = random_db(&mut rng, rows);
        for gate in [GateMode::Resolved, GateMode::Strict] {
            for workers in [1, 4] {
                let case = format!("seed {seed} {gate:?} workers {workers}");
                let engine = ChaseEngine::new(&rules, &reg, config(gate, workers));
                let prod = engine.run(&db, &trusted);
                let naive = reference::run(&engine, &db, &trusted);
                assert_equiv(&prod, &naive, &case);
                // the two dead rules never run in production, and always
                // run in the reference's first round
                assert_eq!(prod.round_stats[0].rules_pruned, 2, "{case}");
                assert_eq!(prod.round_stats[0].active_rules, 6, "{case}");
                assert_eq!(naive.round_stats[0].active_rules, 8, "{case}");
                assert!(
                    rule_rounds(&prod.round_stats) < rule_rounds(&naive.round_stats),
                    "{case}: dead rules must cost the reference rule × round pairs"
                );
            }
        }
    }
}

/// Random ΔDs through `run_incremental`: production pins work units to the
/// pending delta and carries untouched emissions; the reference filters a
/// full enumeration on the cumulative delta. ΔD mutates relations before
/// the chase, so stale column snapshots would diverge here too.
#[test]
fn incremental_production_equals_reference() {
    let rules = cascade_rules();
    let reg = ModelRegistry::new();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0xdead_beef);
        let rows = 3 + rng.below(8);
        let db = random_db(&mut rng, rows);
        let delta = random_delta(&mut rng, rows);
        for gate in [GateMode::Resolved, GateMode::Strict] {
            for workers in [1, 4] {
                let case = format!("seed {seed} {gate:?} workers {workers}");
                let engine = ChaseEngine::new(&rules, &reg, config(gate, workers));
                let trusted = [GlobalTid::new(RelId(0), TupleId(0))];
                let prod = engine.run_incremental(&db, &trusted, &delta).unwrap();
                let naive = reference::run_incremental(&engine, &db, &trusted, &delta).unwrap();
                assert_equiv(&prod, &naive, &case);
            }
        }
    }
}

/// Deterministic merge-heavy regression: a mostly-clean database where the
/// round-1 commit touches only two tuples (one shared key, one `a`
/// disagreement). The cascade forces ≥ 2 rounds, the ER merge re-activates
/// the merged class, and production must enumerate strictly fewer
/// valuations than the reference after round 1 while committing the same
/// fixes.
#[test]
fn merge_heavy_cascade_fewer_valuations_same_result() {
    let rules = cascade_rules();
    let mut db = Database::new(&schema());
    {
        let r = db.relation_mut(RelId(0));
        // ten self-consistent rows: unique keys, agreeing a/b, c filled
        for i in 0..10u32 {
            r.insert_row(vec![
                Value::str(format!("u{i}")),
                Value::str("a1"),
                Value::str("b1"),
                Value::str("c0"),
            ])
            .unwrap();
        }
        // one conflicting pair on a shared key: r4 merges them, r1
        // propagates `x` by majority-with-tiebreak, r3 then fills c
        for b in ["bz", "b1"] {
            r.insert_row(vec![
                Value::str("k0"),
                Value::str("x"),
                Value::str(b),
                Value::Null,
            ])
            .unwrap();
        }
    }
    let reg = ModelRegistry::new();
    let engine = ChaseEngine::new(&rules, &reg, ChaseConfig::default());
    let prod = engine.run(&db, &[]);
    let naive = reference::run(&engine, &db, &[]);
    assert_equiv(&prod, &naive, "cascade");
    assert!(prod.rounds >= 2, "cascade must take ≥ 2 rounds");
    assert!(
        !prod.merged_pairs.is_empty(),
        "shared key must force a merge"
    );
    let late = |stats: &[rock::chase::RoundStats]| -> u64 {
        stats.iter().skip(1).map(|s| s.valuations).sum()
    };
    assert!(
        late(&prod.round_stats) < late(&naive.round_stats),
        "round ≥ 2 valuations: production {} must be < reference {}",
        late(&prod.round_stats),
        late(&naive.round_stats)
    );
    assert!(
        rule_rounds(&prod.round_stats) < rule_rounds(&naive.round_stats),
        "dead rules must cost the reference rule × round pairs"
    );
    // the touched pair is 2 of 12 tuples, so the delta rounds stay small
    assert!(prod
        .round_stats
        .iter()
        .skip(1)
        .all(|s| s.delta_tuples <= 12));
}

/// A quarantined unit voids its rule's round and the rule retries, so a
/// faulted incremental chase commits what the fault-free reference commits
/// — for rules that do not interact. (A voided rule commits a round late;
/// when another rule reads what it writes, or competes for the same cell,
/// *which* proposals meet in a round decides the repair, and the Resolved
/// bootstrap is not confluent under that delay. So the two rules here live
/// on different relations.) Poisoning unit index `k` fails that unit in
/// every round that has one: the sweep keeps the runs that lost a unit and
/// still converged — the voided rule's retry, alone in its round, sits
/// below `k` — and must find some.
#[test]
fn quarantined_incremental_rounds_lose_nothing() {
    let attrs = [("k", AttrType::Str), ("a", AttrType::Str)];
    let schema = DatabaseSchema::new(vec![
        RelationSchema::of("T", &attrs),
        RelationSchema::of("U", &attrs),
    ]);
    // the T merge keeps both rules active into round 2 (a merge re-activates
    // every rule whose relations hold pending delta tuples)
    let rules = RuleSet::new(
        parse_rules(
            "rule er: T(t) && T(s) && t.k = s.k -> t.eid = s.eid\n\
             rule cr: U(t) && U(s) && t.k = s.k -> t.a = s.a",
            &schema,
        )
        .unwrap(),
    );
    let reg = ModelRegistry::new();
    rock::crystal::fault::silence_injected_panics();
    let mut recovered = 0;
    for seed in 0..16u64 {
        let mut rng = Rng::new(seed ^ 0x5eed);
        let mut db = Database::new(&schema);
        for rel in [RelId(0), RelId(1)] {
            for _ in 0..8 {
                let row = vec![
                    Value::str(format!("k{}", rng.below(3))),
                    Value::str(format!("a{}", rng.below(3))),
                ];
                db.relation_mut(rel).insert_row(row).unwrap();
            }
        }
        // move one tuple of each relation into another key group
        let delta = Delta::new(
            [RelId(0), RelId(1)]
                .into_iter()
                .map(|rel| Update::SetCell {
                    rel,
                    tid: TupleId(rng.below(8) as u32),
                    attr: AttrId(0),
                    value: Value::str(format!("k{}", rng.below(3))),
                })
                .collect(),
        );
        let clean = ChaseEngine::new(&rules, &reg, ChaseConfig::default());
        let naive = reference::run_incremental(&clean, &db, &[], &delta).unwrap();
        let prod = clean.run_incremental(&db, &[], &delta).unwrap();
        assert_equiv(&prod, &naive, &format!("seed {seed} fault-free"));
        let widest = prod.round_makespans.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..widest as u32 {
            let plan = FaultPlan::seeded(seed).with_poison(vec![k]);
            let cfg = ChaseConfig {
                cluster: ClusterConfig::default()
                    .with_fault_plan(plan)
                    .with_max_retries(0),
                ..ChaseConfig::default()
            };
            let faulted = ChaseEngine::new(&rules, &reg, cfg)
                .run_incremental(&db, &[], &delta)
                .unwrap();
            let exhausted = faulted.rounds >= ChaseConfig::default().max_rounds;
            if faulted.unit_failures.is_empty() || exhausted {
                continue;
            }
            recovered += 1;
            let case = format!("seed {seed} poison {k}");
            assert!(
                faulted.rounds > prod.rounds,
                "{case}: a voided round is retried"
            );
            assert_eq!(tuples(&faulted.db), tuples(&naive.db), "{case}: databases");
            assert_eq!(faulted.changes, naive.changes, "{case}: change lists");
            assert_eq!(faulted.merged_pairs, naive.merged_pairs, "{case}: merges");
            assert!(faulted.fixes.is_valid(), "{case}");
        }
    }
    assert!(recovered > 0, "no run recovered from a quarantine");
}

fn workloads(rows: usize) -> Vec<(&'static str, Workload)> {
    let gen = |seed| GenConfig {
        rows,
        error_rate: 0.08,
        seed,
        trusted_per_rel: 15,
    };
    vec![
        ("Bank", rock::workloads::bank::generate(&gen(42))),
        ("Logistics", rock::workloads::logistics::generate(&gen(43))),
        ("Sales", rock::workloads::sales::generate(&gen(44))),
    ]
}

fn workload_engine<'a>(w: &'a Workload, gate: GateMode, workers: usize) -> ChaseEngine<'a> {
    let cfg = ChaseConfig {
        policy: rock::core::conflict_policy(w),
        ..config(gate, workers)
    };
    let engine = ChaseEngine::new(&w.rules, &w.registry, cfg);
    match &w.graph {
        Some(g) => engine.with_graph(g),
        None => engine,
    }
}

/// The curated workloads — ML predicates, KG extraction, temporal rules,
/// multiple relations — batch, both gates, one and four workers, with and
/// without the ML block index pruning pinned pair enumeration. Every
/// curated rule set must also earn a finite-bound certificate.
#[test]
fn workloads_production_equals_reference() {
    for (name, w) in workloads(150) {
        let index = precompute_ml_indexed(&w.dirty, &w.rules, &w.registry).1;
        for gate in [GateMode::Resolved, GateMode::Strict] {
            let naive = reference::run(&workload_engine(&w, gate, 1), &w.dirty, &w.trusted);
            for workers in [1, 4] {
                for blocking in [false, true] {
                    let case = format!("{name} {gate:?} workers {workers} blocking {blocking}");
                    let engine = workload_engine(&w, gate, workers);
                    let engine = if blocking {
                        engine.with_blocking(&index)
                    } else {
                        engine
                    };
                    let prod = engine.run(&w.dirty, &w.trusted);
                    assert_equiv(&prod, &naive, &case);
                    let cert = &prod.certification;
                    assert!(
                        cert.bound.is_some() && cert.resolved_bound.is_some(),
                        "{case}: curated rules must certify a finite bound, got {:?}",
                        cert.class
                    );
                }
            }
        }
    }
}

/// The `rock-analyze --defects` demo shape: Bank's curated rules plus one
/// seeded defect of every class. The schedule prunes the dead ones from
/// every round — strictly fewer rule × round pairs than the reference,
/// which keeps re-evaluating them — and commits the same repair.
#[test]
fn defective_rules_are_pruned_not_run() {
    let (_, mut w) = workloads(80).swap_remove(0);
    let schema = w.dirty.schema();
    let kinds = rock::workloads::DefectKind::ALL;
    w.rules = rock::workloads::inject_defects(&w.rules, &schema, 7, &kinds).0;
    let engine = workload_engine(&w, GateMode::Resolved, 1);
    let prod = engine.run(&w.dirty, &w.trusted);
    let naive = reference::run(&engine, &w.dirty, &w.trusted);
    assert_equiv(&prod, &naive, "Bank + defects");
    let pruned: usize = prod.round_stats.iter().map(|s| s.rules_pruned).sum();
    assert!(pruned > 0, "seeded dead rules must be pruned");
    assert!(rule_rounds(&prod.round_stats) < rule_rounds(&naive.round_stats));
}

/// Random ΔDs over the curated workloads through `run_incremental`, with
/// the block index attached (the pinned passes are where it prunes). New
/// values are drawn from the same column, so they are well-typed and often
/// collide with existing keys.
#[test]
fn workloads_incremental_production_equals_reference() {
    for (name, w) in workloads(120) {
        let index = precompute_ml_indexed(&w.dirty, &w.rules, &w.registry).1;
        for seed in 0..4u64 {
            let mut rng = Rng::new(seed ^ 0xfeed);
            let mut updates = Vec::new();
            for (rid, rel) in w.dirty.iter() {
                let tids: Vec<TupleId> = rel.tids().collect();
                if tids.is_empty() {
                    continue;
                }
                for _ in 0..3 {
                    let tid = tids[rng.below(tids.len() as u64) as usize];
                    let donor = tids[rng.below(tids.len() as u64) as usize];
                    let attr = AttrId(rng.below(rel.schema.arity() as u64) as u16);
                    let value = rel.get(donor).unwrap().get(attr).clone();
                    updates.push(Update::SetCell {
                        rel: rid,
                        tid,
                        attr,
                        value,
                    });
                }
            }
            let delta = Delta::new(updates);
            for workers in [1, 4] {
                let case = format!("{name} seed {seed} workers {workers}");
                let engine = workload_engine(&w, GateMode::Resolved, workers).with_blocking(&index);
                let prod = engine
                    .run_incremental(&w.dirty, &w.trusted, &delta)
                    .unwrap();
                let naive =
                    reference::run_incremental(&engine, &w.dirty, &w.trusted, &delta).unwrap();
                assert_equiv(&prod, &naive, &case);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Discovery: bitset kernels ≡ tuple re-scan
// ---------------------------------------------------------------------------

fn logistics() -> Workload {
    logistics_rows(120)
}

fn logistics_rows(rows: usize) -> Workload {
    rock::workloads::logistics::generate(&GenConfig {
        rows,
        error_rate: 0.08,
        seed: 7,
        trusted_per_rel: 10,
    })
}

/// Mine relation 0 with the workload's ML hints in the predicate space,
/// through production and through the scan reference.
fn mine_both(w: &Workload, cfg: DiscoveryConfig) -> (DiscoveryReport, DiscoveryReport) {
    let schema = w.dirty.schema();
    let sigs: Vec<MlSignature> = w
        .ml_hints
        .iter()
        .filter_map(|h| {
            let rel = schema.rel_id(&h.rel)?;
            let attrs = h
                .attrs
                .iter()
                .filter_map(|a| schema.relation(rel).attr_id(a))
                .collect();
            Some(MlSignature {
                model: h.model.clone(),
                rel,
                attrs,
            })
        })
        .collect();
    let space = PredicateSpace::build(&w.dirty, RelId(0), &sigs, &SpaceConfig::default());
    let miner = Discoverer::new(&w.registry, cfg);
    let cached = miner.mine_relation(&w.dirty, RelId(0), &space);
    let scan = miner.mine_relation_scan(&w.dirty, RelId(0), &space);
    // same rules, names, measures and order; same search-space accounting
    assert_eq!(cached.rules.rules, scan.rules.rules, "mined rule sets");
    assert_eq!(cached.candidates_evaluated, scan.candidates_evaluated);
    assert_eq!(cached.pruned, scan.pruned);
    assert_eq!(
        cached.rules_dropped_by_analyzer,
        scan.rules_dropped_by_analyzer
    );
    assert!(scan.cache.is_none());
    (cached, scan)
}

fn mining_config() -> DiscoveryConfig {
    DiscoveryConfig {
        min_support: 1e-4,
        min_confidence: 0.9,
        max_preconditions: 2,
        ..Default::default()
    }
}

#[test]
fn cached_miner_matches_scan() {
    let w = logistics();
    let (cached, _) = mine_both(&w, mining_config());
    assert!(!cached.rules.is_empty(), "workload should yield rules");
    let stats = cached.cache.expect("production reports cache stats");
    assert!(
        stats.hits > 0,
        "level-2 candidates must reuse cached bitsets"
    );
    assert!(stats.bytes_peak > 0);
    mine_both(
        &w,
        DiscoveryConfig {
            workers: 4,
            ..mining_config()
        },
    );
}

/// The budget trades only time, never results: nothing fits a zero budget,
/// and a few KiB hold only some of the bitsets. A zero budget rebuilds
/// every bitset on every use, so this runs on a smaller instance (the
/// pair domain is quadratic in the rows) to stay inside a debug-build
/// `cargo test`.
#[test]
fn cache_budget_never_changes_mined_rules() {
    let w = logistics_rows(48);
    let (zero, _) = mine_both(
        &w,
        DiscoveryConfig {
            cache_budget_bytes: 0,
            ..mining_config()
        },
    );
    let stats = zero.cache.expect("cache stats even when nothing fits");
    assert_eq!(
        (stats.entries, stats.hits, stats.bytes),
        (0, 0, 0),
        "no entry fits a zero budget"
    );
    assert!(stats.spills > 0, "every build must spill");

    let (tight, _) = mine_both(
        &w,
        DiscoveryConfig {
            cache_budget_bytes: 4 << 10,
            ..mining_config()
        },
    );
    let stats = tight.cache.expect("cache stats");
    assert!(stats.bytes <= 4 << 10, "residency respects the budget");
    assert!(
        stats.spills + stats.evictions > 0,
        "budget pressure observed"
    );
}
