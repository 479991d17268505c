//! Durability suite for the WAL + checkpoint chase (`rock::chase::wal`):
//! a chase run with `ChaseConfig { durability: Some(..) }` must produce
//! byte-identical repairs to the in-memory oracle, resume from *every*
//! round boundary to the same final state, regenerate an identical WAL on
//! resume (replay idempotence — rounds are deterministic functions of the
//! checkpointed state), shrug off truncated or bit-flipped log tails by
//! falling back to the last intact round marker, and answer provenance
//! queries (rule, valuation, parent fixes) for every repaired cell.

mod common;

use common::check;
use rock::chase::{
    read_wal, read_wal_dir, segment_file_name, wal_bytes, ChaseConfig, ChaseEngine, ChaseResult,
    DurabilityConfig, ProvenanceGraph, WalRecord,
};
use rock::data::json;
use rock::data::{
    AttrType, Database, DatabaseSchema, GlobalTid, RelId, RelationSchema, TupleId, Value,
};
use rock::ml::ModelRegistry;
use rock::rees::{parse_rules, RuleSet};
use std::path::PathBuf;

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

/// The `tests/chase_properties.rs` rule set: value propagation (r1, r2),
/// a constant rule (r3), an ER merge rule (r4) and a null-fill (r5) — so
/// the WAL sees Cell, Merge, Validate and Distinct traffic, not just one
/// fix kind.
fn rules(schema: &DatabaseSchema) -> RuleSet {
    RuleSet::new(
        parse_rules(
            "rule r1: T(t) && T(s) && t.k = s.k -> t.a = s.a\n\
             rule r2: T(t) && T(s) && t.a = s.a -> t.b = s.b\n\
             rule r3: T(t) && t.a = 'x' -> t.c = 'cx'\n\
             rule r4: T(t) && T(s) && t.k = s.k -> t.eid = s.eid\n\
             rule r5: T(t) && null(t.c) && t.b = 'bz' -> t.c = 'cz'",
            schema,
        )
        .unwrap(),
    )
}

fn build_db(rows: &[(u8, u8, u8, Option<u8>)]) -> Database {
    let schema = schema();
    let mut db = Database::new(&schema);
    let r = db.relation_mut(RelId(0));
    for (k, a, b, c) in rows {
        r.insert_row(vec![
            Value::str(format!("k{}", k % 4)),
            Value::str(if a % 3 == 0 {
                "x".into()
            } else {
                format!("a{}", a % 3)
            }),
            Value::str(if b % 3 == 0 {
                "bz".into()
            } else {
                format!("b{}", b % 3)
            }),
            match c {
                None => Value::Null,
                Some(v) => Value::str(format!("c{}", v % 2)),
            },
        ])
        .unwrap();
    }
    db
}

/// Default deterministic workload: enough key collisions for merges and
/// multi-round propagation chains.
fn default_rows() -> Vec<(u8, u8, u8, Option<u8>)> {
    vec![
        (0, 0, 1, None),
        (0, 1, 0, Some(1)),
        (1, 2, 2, None),
        (1, 0, 0, Some(0)),
        (2, 1, 1, None),
        (2, 2, 0, None),
        (3, 0, 2, Some(1)),
        (3, 1, 0, None),
    ]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rock-wal-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Canonical dump of everything the byte-identity contract covers. No
/// timing observability (`round_makespans`, fault counters) — those are
/// deliberately not checkpointed.
fn canon(res: &ChaseResult) -> String {
    json!({
        "rounds": res.rounds,
        "steps": res.steps,
        "conflicts": res.conflicts,
        "changes": res.changes,
        "merged_pairs": res.merged_pairs,
        "round_stats": res.round_stats,
        "fixes": res.fixes.to_snapshot(),
        "db": res.db,
    })
    .to_string()
}

fn engine<'a>(
    rs: &'a RuleSet,
    reg: &'a ModelRegistry,
    dur: Option<DurabilityConfig>,
) -> ChaseEngine<'a> {
    ChaseEngine::new(
        rs,
        reg,
        ChaseConfig {
            durability: dur,
            ..ChaseConfig::default()
        },
    )
}

fn assert_no_wal_error(res: &ChaseResult) {
    let s = res
        .wal
        .as_ref()
        .expect("durable run must carry a WalSummary");
    assert!(s.error.is_none(), "durability degraded: {:?}", s.error);
}

#[test]
fn durable_run_matches_oracle_and_resumes_at_every_round() {
    let schema = schema();
    let rs = rules(&schema);
    let reg = ModelRegistry::new();
    let db = build_db(&default_rows());
    let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];

    let oracle = engine(&rs, &reg, None).run(&db, &trusted);
    let want = canon(&oracle);

    let dir = fresh_dir("every-round");
    let durable = engine(&rs, &reg, Some(DurabilityConfig::new(&dir)));
    let first = durable.run(&db, &trusted);
    assert_no_wal_error(&first);
    assert_eq!(canon(&first), want, "durable run diverged from oracle");
    assert!(first.rounds >= 2, "workload too shallow to exercise resume");

    let wal_before = wal_bytes(&dir).unwrap();
    for r in 1..=first.rounds as u64 {
        let resumed = durable.resume_at(&trusted, r).unwrap_or_else(|e| {
            panic!("resume at round {r} failed: {e}");
        });
        assert_no_wal_error(&resumed);
        assert_eq!(
            resumed.wal.as_ref().unwrap().resumed_from,
            Some(r),
            "resume picked the wrong round"
        );
        assert_eq!(
            canon(&resumed),
            want,
            "resume from round {r} diverged from the uninterrupted oracle"
        );
        // Replay idempotence: the resumed rounds must regenerate the
        // exact bytes they truncated away.
        let wal_after = wal_bytes(&dir).unwrap();
        assert_eq!(
            wal_before, wal_after,
            "WAL bytes changed after resume at round {r}"
        );
    }

    // `resume()` with no explicit round picks the newest durable marker.
    let resumed = durable.resume(&trusted).unwrap();
    assert_eq!(canon(&resumed), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_tail_falls_back_to_last_intact_round() {
    let schema = schema();
    let rs = rules(&schema);
    let reg = ModelRegistry::new();
    let db = build_db(&default_rows());
    let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];

    let oracle = engine(&rs, &reg, None).run(&db, &trusted);
    let want = canon(&oracle);

    let dir = fresh_dir("corrupt-tail");
    let durable = engine(&rs, &reg, Some(DurabilityConfig::new(&dir)));
    let first = durable.run(&db, &trusted);
    assert_no_wal_error(&first);

    // The default 8 MiB segment budget keeps this tiny workload in one
    // segment, so the tail-damage surgery targets that first segment file.
    let path = dir.join(segment_file_name(1));
    let intact = std::fs::read(&path).unwrap();
    let scan = read_wal(&path).unwrap();
    assert!(!scan.corrupt_tail);
    assert!(scan.records.len() >= 4);
    let n_intact = scan.records.len();

    // Truncate mid-way through the final frame (record offsets are frame
    // *end* positions, so the second-to-last one is where the final frame
    // starts): the reader must keep the longest valid prefix and resume
    // from the previous round marker.
    let last_start = scan.records[n_intact - 2].0 as usize;
    std::fs::write(&path, &intact[..last_start + 3]).unwrap();
    let scan = read_wal(&path).unwrap();
    assert!(scan.corrupt_tail, "truncated tail must be flagged");
    assert_eq!(scan.records.len(), n_intact - 1);
    let resumed = durable
        .resume(&trusted)
        .expect("resume over truncated tail");
    assert_eq!(canon(&resumed), want, "truncated-tail resume diverged");

    // Bit-flip inside the last frame's payload: CRC must reject it and
    // recovery must again land on the previous marker.
    let mut flipped = intact.clone();
    flipped[last_start + 10] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    let scan = read_wal(&path).unwrap();
    assert!(scan.corrupt_tail, "bit-flipped tail must be flagged");
    let resumed = durable
        .resume(&trusted)
        .expect("resume over bit-flipped tail");
    assert_eq!(canon(&resumed), want, "bit-flipped-tail resume diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn provenance_answers_why_for_every_repaired_cell() {
    let schema = schema();
    let rs = rules(&schema);
    let nrules = rs.rules.len() as u32;
    let reg = ModelRegistry::new();
    let db = build_db(&default_rows());
    let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];

    let dir = fresh_dir("provenance");
    let durable = engine(&rs, &reg, Some(DurabilityConfig::new(&dir)));
    let res = durable.run(&db, &trusted);
    assert_no_wal_error(&res);
    assert!(!res.changes.is_empty(), "workload produced no repairs");

    let graph = ProvenanceGraph::load(&dir).unwrap();
    assert!(!graph.is_empty());
    let mut with_valuation = 0usize;
    for (cell, _, _) in &res.changes {
        let chain = graph
            .why(*cell)
            .unwrap_or_else(|| panic!("no provenance for repaired cell {cell:?}"));
        assert!(
            chain.fix.rule < nrules,
            "fix {} names rule {} out of range",
            chain.fix.id,
            chain.fix.rule
        );
        for a in &chain.ancestors {
            assert!(a.id < chain.fix.id, "ancestor must precede the fix");
            assert!(a.round <= chain.fix.round, "ancestor from a later round");
        }
        if !chain.fix.valuation.is_empty() {
            with_valuation += 1;
        }
    }
    assert!(with_valuation > 0, "no fix carried a valuation");

    // Every WAL fix id is unique and parents always reference earlier ids
    // — the invariants the `why` traversal relies on.
    let scan = read_wal_dir(&dir).unwrap();
    let mut seen = std::collections::BTreeSet::new();
    for (_, rec) in &scan.records {
        if let WalRecord::Fix(f) = rec {
            assert!(seen.insert(f.id), "duplicate fix id {}", f.id);
            for p in &f.parents {
                assert!(seen.contains(p), "parent {p} of fix {} not yet seen", f.id);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_every_coarser_than_one_still_resumes() {
    let schema = schema();
    let rs = rules(&schema);
    let reg = ModelRegistry::new();
    let db = build_db(&default_rows());
    let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];

    let oracle = engine(&rs, &reg, None).run(&db, &trusted);
    let want = canon(&oracle);

    let dir = fresh_dir("coarse");
    let cfg = DurabilityConfig {
        snapshot_every: 2,
        ..DurabilityConfig::new(&dir)
    };
    let durable = engine(&rs, &reg, Some(cfg));
    let first = durable.run(&db, &trusted);
    assert_no_wal_error(&first);
    assert_eq!(canon(&first), want);
    let resumed = durable.resume(&trusted).unwrap();
    assert_eq!(canon(&resumed), want, "coarse-checkpoint resume diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint must hold every value a CSV load can produce
/// (`Value::parse_as("inf" | "NaN", Float)` yields non-finite floats) and
/// every 64-bit integer exactly: the run resumes from each round to the
/// oracle's state with NaN, ±inf, −0.0, `i64::MIN` and `Date(i32::MIN)`
/// intact.
#[test]
fn checkpoints_round_trip_non_finite_floats_and_extreme_integers() {
    let schema = DatabaseSchema::new(vec![RelationSchema::of(
        "M",
        &[
            ("k", AttrType::Str),
            ("x", AttrType::Float),
            ("n", AttrType::Int),
            ("d", AttrType::Date),
            ("c", AttrType::Str),
        ],
    )]);
    let rs = RuleSet::new(
        parse_rules(
            "rule m1: M(t) && M(s) && t.k = s.k -> t.c = s.c\n\
             rule m2: M(t) && null(t.c) -> t.c = 'z'",
            &schema,
        )
        .unwrap(),
    );
    let mut db = Database::new(&schema);
    let edge = [
        ("k0", "NaN", i64::MIN, i32::MIN, Value::str("c0")),
        ("k0", "inf", i64::MAX, i32::MAX, Value::Null),
        ("k1", "-inf", (1 << 53) + 1, 0, Value::Null),
        ("k1", "-0.0", -1, -1, Value::Null),
    ];
    for (k, x, n, d, c) in &edge {
        db.relation_mut(RelId(0))
            .insert_row(vec![
                Value::str(k),
                Value::parse_as(x, AttrType::Float),
                Value::Int(*n),
                Value::Date(*d),
                c.clone(),
            ])
            .unwrap();
    }
    let reg = ModelRegistry::new();
    let want = canon(&engine(&rs, &reg, None).run(&db, &[]));

    let dir = fresh_dir("edge-values");
    let durable = engine(&rs, &reg, Some(DurabilityConfig::new(&dir)));
    let first = durable.run(&db, &[]);
    assert_no_wal_error(&first);
    assert!(!first.changes.is_empty(), "workload produced no repairs");
    assert_eq!(canon(&first), want);
    for r in 1..=first.rounds as u64 {
        let resumed = durable
            .resume_at(&[], r)
            .unwrap_or_else(|e| panic!("resume at round {r} failed: {e}"));
        assert_no_wal_error(&resumed);
        assert_eq!(canon(&resumed), want, "resume from round {r} diverged");
        let rel = resumed.db.relation(RelId(0));
        let row = |i: u32| &rel.get(TupleId(i)).unwrap().values;
        assert!(matches!(row(0)[1], Value::Float(x) if x.is_nan()));
        assert!(matches!(row(1)[1], Value::Float(x) if x == f64::INFINITY));
        assert!(matches!(row(2)[1], Value::Float(x) if x == f64::NEG_INFINITY));
        assert!(matches!(row(3)[1], Value::Float(x) if x.to_bits() == (-0.0f64).to_bits()));
        assert!(matches!(row(0)[2], Value::Int(i64::MIN)));
        assert!(matches!(row(2)[2], Value::Int(n) if n == (1 << 53) + 1));
        assert!(matches!(row(0)[3], Value::Date(i32::MIN)));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay idempotence + oracle equivalence over random workloads: for
/// any input, the durable chase equals the in-memory oracle, and a
/// resume from the final round regenerates the WAL byte-for-byte.
#[test]
fn durable_chase_equals_oracle_on_random_dbs() {
    check(48, |g| {
        let rows = g.vec(1..12, |g| {
            (
                g.range(0u8..4),
                g.range(0u8..6),
                g.range(0u8..6),
                g.option(|g| g.range(0u8..4)),
            )
        });
        let case = g.u64();
        let schema = schema();
        let rs = rules(&schema);
        let reg = ModelRegistry::new();
        let db = build_db(&rows);
        let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(0))];

        let oracle = engine(&rs, &reg, None).run(&db, &trusted);
        let want = canon(&oracle);

        let dir = fresh_dir(&format!("prop-{case}"));
        let durable = engine(&rs, &reg, Some(DurabilityConfig::new(&dir)));
        let first = durable.run(&db, &trusted);
        assert_no_wal_error(&first);
        assert_eq!(canon(&first), want);

        let wal_before = wal_bytes(&dir).unwrap();
        let resumed = durable.resume(&trusted).unwrap();
        assert_no_wal_error(&resumed);
        assert_eq!(canon(&resumed), want);
        let wal_after = wal_bytes(&dir).unwrap();
        assert_eq!(wal_before, wal_after, "WAL not replay-idempotent");
        let _ = std::fs::remove_dir_all(&dir);
    });
}
