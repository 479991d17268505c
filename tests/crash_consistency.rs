//! Crash-consistency suite for the WAL + checkpoint durability stack
//! (`rock::chase::wal` / `rock::chase::checkpoint` over
//! `rock::crystal::FaultVfs`): a recorded fault-free run yields an I/O
//! trace, and a crash injected at every sampled trace point must leave a
//! directory from which recovery is byte-identical to the uninterrupted
//! oracle. Corrupted checkpoint files are CRC-rejected with fallback to an
//! earlier marker; transient I/O errors retry to `Recovered`, persistent
//! ones (fsync, checkpoint rename) degrade to in-memory without corrupting
//! fixes; and durable incremental sessions fold ΔD batches across crashes.

mod common;

use common::check;
use rock::chase::{
    locate, ChaseConfig, ChaseEngine, ChaseResult, DurabilityConfig, WalError, WalHealth,
};
use rock::crystal::{ClusterConfig, FaultVfs, IoOpKind, StorageFaultPlan};
use rock::data::json;
use rock::data::json::ToJson;
use rock::data::{
    AttrType, DataError, Database, DatabaseSchema, Delta, Eid, GlobalTid, RelId, RelationSchema,
    TupleId, Update, Value,
};
use rock::ml::ModelRegistry;
use rock::rees::{parse_rules, RuleSet};
use std::path::{Path, PathBuf};

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

/// The durability-suite rule set: propagation (r1, r2), a constant rule
/// (r3), an ER merge (r4) and a null-fill (r5), so the WAL carries every
/// fix kind across several rounds.
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
    let d = std::env::temp_dir().join(format!("rock-crashsim-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Canonical dump of everything the byte-identity contract covers.
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

/// Byte-identity is compared on the encoded form, which is stricter than
/// `Database`'s `==` (that one equates `Int(3)` with `Float(3.0)`).
fn db_json(db: &Database) -> String {
    db.to_json().to_string()
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

/// Evenly strided sample of at most `cap` points (always keeps the ends).
fn sample(points: &[u64], cap: usize) -> Vec<u64> {
    if points.len() <= cap {
        return points.to_vec();
    }
    let mut out = Vec::with_capacity(cap);
    for i in 0..cap {
        out.push(points[i * (points.len() - 1) / (cap - 1)]);
    }
    out
}

/// Tentpole: replay the recorded fault-free run with a crash injected at
/// every sampled I/O trace point — all structural ops (create / rename /
/// remove / dir-sync: the log header and the checkpoint commit edges) plus
/// an even stride over everything else. At each point the crashed run must
/// still repair byte-identically (durability degrades, fixes never do) and
/// recovery from the frozen directory must match the uninterrupted oracle.
#[test]
fn crash_at_every_sampled_trace_point_recovers_byte_identical() {
    let schema = schema();
    let rs = rules(&schema);
    let reg = ModelRegistry::new();
    let db = build_db(&default_rows());
    let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];

    let oracle = engine(&rs, &reg, None).run(&db, &trusted);
    let want = canon(&oracle);

    // Fault-free recorded run: the crash plan's op universe.
    let rec_dir = fresh_dir("sweep-record");
    let rec_vfs = FaultVfs::recording();
    let durable = engine(
        &rs,
        &reg,
        Some(DurabilityConfig::new(&rec_dir).with_vfs(rec_vfs.clone())),
    );
    let first = durable.run(&db, &trusted);
    assert_eq!(canon(&first), want, "recorded run diverged from oracle");
    let s = first.wal.as_ref().expect("recorded run has a WalSummary");
    assert_eq!(s.health, WalHealth::Healthy);
    let trace = rec_vfs.trace();
    assert!(trace.len() >= 16, "trace too short to sweep");

    let structural: Vec<u64> = trace
        .iter()
        .filter(|t| {
            matches!(
                t.op,
                IoOpKind::Create | IoOpKind::Rename | IoOpKind::Remove | IoOpKind::SyncDir
            )
        })
        .map(|t| t.index)
        .collect();
    let everything: Vec<u64> = trace.iter().map(|t| t.index).collect();
    let mut points = sample(&structural, 20);
    points.extend(sample(&everything, 8));
    points.push(0);
    points.push(everything[everything.len() - 1]);
    points.sort_unstable();
    points.dedup();
    // Every structural op kind the durable write path issues must be in the
    // trace and among the crash points.
    for kind in [IoOpKind::Create, IoOpKind::Rename, IoOpKind::SyncDir] {
        assert!(
            trace.iter().any(|t| t.op == kind),
            "the recorded trace holds no {kind:?} op"
        );
        assert!(
            trace
                .iter()
                .any(|t| t.op == kind && points.binary_search(&t.index).is_ok()),
            "no crash point falls on a {kind:?} op"
        );
    }

    for &p in &points {
        let dir_p = fresh_dir(&format!("sweep-{p}"));
        let plan = StorageFaultPlan::seeded(11).with_crash_at_op(p);
        let crashed = engine(
            &rs,
            &reg,
            Some(DurabilityConfig::new(&dir_p).with_vfs(FaultVfs::with_plan(plan))),
        )
        .run(&db, &trusted);
        assert_eq!(
            canon(&crashed),
            want,
            "crash at op {p} corrupted the repairs themselves"
        );
        let cw = crashed.wal.as_ref().unwrap();
        assert!(
            matches!(cw.health, WalHealth::Degraded { .. }),
            "crash at op {p} must degrade durability, got {:?}",
            cw.health
        );

        // Recovery: resume off the frozen directory with a clean vfs; if
        // nothing was durable yet, a fresh durable run is the fallback.
        let rec = engine(
            &rs,
            &reg,
            Some(DurabilityConfig::new(&dir_p).with_vfs(FaultVfs::clean())),
        );
        match rec.resume(&trusted) {
            Ok(resumed) => assert_eq!(
                canon(&resumed),
                want,
                "recovery after crash at op {p} diverged from oracle"
            ),
            Err(_) => {
                let _ = std::fs::remove_dir_all(&dir_p);
                std::fs::create_dir_all(&dir_p).unwrap();
                let fresh = engine(
                    &rs,
                    &reg,
                    Some(DurabilityConfig::new(&dir_p).with_vfs(FaultVfs::clean())),
                )
                .run(&db, &trusted);
                assert_eq!(
                    canon(&fresh),
                    want,
                    "fresh fallback after crash at op {p} diverged"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir_p);
    }
    let _ = std::fs::remove_dir_all(&rec_dir);
}

#[test]
fn transient_io_errors_retry_to_recovered() {
    let schema = schema();
    let rs = rules(&schema);
    let reg = ModelRegistry::new();
    let db = build_db(&default_rows());
    let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];

    let oracle = engine(&rs, &reg, None).run(&db, &trusted);
    let want = canon(&oracle);

    let dir = fresh_dir("transient");
    // Every fault transient; with dozens of write/sync ops at these rates
    // the fixed seed injects some (deterministically), and 8 retries make
    // retry exhaustion essentially impossible.
    let plan = StorageFaultPlan::seeded(5)
        .with_sync_errors(0.3)
        .with_torn_writes(0.2)
        .with_transient_fraction(1.0);
    let cfg = DurabilityConfig::new(&dir).with_vfs(FaultVfs::with_plan(plan));
    let mut durable = engine(&rs, &reg, Some(cfg));
    durable.config.cluster = ClusterConfig::default().with_max_retries(8);
    let res = durable.run(&db, &trusted);
    assert_eq!(canon(&res), want, "transient faults corrupted repairs");
    let s = res.wal.as_ref().unwrap();
    match &s.health {
        WalHealth::Recovered { io_retries } => assert!(*io_retries > 0),
        other => panic!("expected Recovered under transient faults, got {other:?}"),
    }
    assert!(s.io_retries > 0, "summary must count the retries");

    // The retried log is still a valid recovery source.
    let clean = DurabilityConfig::new(&dir);
    let resumed = engine(&rs, &reg, Some(clean)).resume(&trusted).unwrap();
    assert_eq!(canon(&resumed), want, "post-retry resume diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_fsync_failure_degrades_without_corrupting_fixes() {
    let schema = schema();
    let rs = rules(&schema);
    let reg = ModelRegistry::new();
    let db = build_db(&default_rows());
    let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];

    let oracle = engine(&rs, &reg, None).run(&db, &trusted);
    let want = canon(&oracle);

    let dir = fresh_dir("enosync");
    let plan = StorageFaultPlan::seeded(5).with_sync_errors(1.0);
    let cfg = DurabilityConfig::new(&dir).with_vfs(FaultVfs::with_plan(plan));
    let res = engine(&rs, &reg, Some(cfg)).run(&db, &trusted);
    assert_eq!(canon(&res), want, "fsync failure corrupted repairs");
    let s = res.wal.as_ref().unwrap();
    assert!(
        matches!(s.health, WalHealth::Degraded { .. }),
        "persistent fsync failure must degrade, got {:?}",
        s.health
    );
    assert!(matches!(&s.health, WalHealth::Degraded { reason } if !reason.is_empty()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint rename that always fails exhausts its retries: the run
/// still repairs byte-identically, reports `Degraded`, and leaves the
/// checkpoint's temp file behind, which the next clean run's open-time GC
/// reaps.
#[test]
fn rename_failure_degrades_and_leaves_a_temp_file_for_gc() {
    let schema = schema();
    let rs = rules(&schema);
    let reg = ModelRegistry::new();
    let db = build_db(&default_rows());
    let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];
    let want = canon(&engine(&rs, &reg, None).run(&db, &trusted));

    let dir = fresh_dir("rename-fail");
    let plan = StorageFaultPlan::seeded(2).with_rename_failures(1.0);
    let res = engine(
        &rs,
        &reg,
        Some(DurabilityConfig::new(&dir).with_vfs(FaultVfs::with_plan(plan))),
    )
    .run(&db, &trusted);
    assert_eq!(canon(&res), want, "rename failure corrupted repairs");
    let s = res.wal.as_ref().unwrap();
    assert!(
        matches!(&s.health, WalHealth::Degraded { reason } if reason.contains("rename")),
        "persistent rename failure must degrade, got {:?}",
        s.health
    );
    let strays = |d: &Path| -> usize {
        std::fs::read_dir(d)
            .unwrap()
            .filter(|e| {
                let p = e.as_ref().unwrap().path();
                p.extension().is_some_and(|x| x == "tmp")
            })
            .count()
    };
    assert_eq!(strays(&dir), 1, "the failed rename leaves its temp file");

    let clean = engine(&rs, &reg, Some(DurabilityConfig::new(&dir))).run(&db, &trusted);
    assert_eq!(canon(&clean), want);
    let s = clean.wal.as_ref().unwrap();
    assert_eq!(s.health, WalHealth::Healthy);
    assert_eq!(
        s.temp_files_removed, 1,
        "the clean run's GC reaps the stray"
    );
    assert_eq!(strays(&dir), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_checkpoint_temp_files_are_garbage_collected() {
    let schema = schema();
    let rs = rules(&schema);
    let reg = ModelRegistry::new();
    let db = build_db(&default_rows());
    let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];

    let dir = fresh_dir("tmp-gc");
    // A crash between a checkpoint's temp write and its rename leaves the
    // temp file behind; the next open must reap it.
    std::fs::write(dir.join("checkpoint-000042.json.tmp"), b"stray").unwrap();
    let durable = engine(&rs, &reg, Some(DurabilityConfig::new(&dir)));
    let res = durable.run(&db, &trusted);
    let s = res.wal.as_ref().unwrap();
    assert!(!matches!(s.health, WalHealth::Degraded { .. }));
    assert!(
        s.temp_files_removed >= 1,
        "stale temp file not counted as removed"
    );
    assert!(
        !dir.join("checkpoint-000042.json.tmp").exists(),
        "stale temp file survived the open-time GC"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The three ΔD batches the session tests fold.
fn session_deltas() -> [Delta; 3] {
    [
        Delta::new(vec![Update::SetCell {
            rel: RelId(0),
            tid: TupleId(2),
            attr: rock::data::AttrId(1),
            value: Value::str("x"),
        }]),
        Delta::new(vec![Update::Insert {
            rel: RelId(0),
            eid: Eid(900_001),
            values: vec![
                Value::str("k1"),
                Value::str("a2"),
                Value::str("bz"),
                Value::Null,
            ],
        }]),
        Delta::new(vec![Update::SetCell {
            rel: RelId(0),
            tid: TupleId(4),
            attr: rock::data::AttrId(2),
            value: Value::str("bz"),
        }]),
    ]
}

#[test]
fn durable_session_matches_the_incremental_fold() {
    let schema = schema();
    let rs = rules(&schema);
    let reg = ModelRegistry::new();
    let db = build_db(&default_rows());
    let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];
    let [d1, d2, d3] = session_deltas();

    // In-memory oracle: the fold run_incremental(run_incremental(..).db, ..).
    let mem = engine(&rs, &reg, None);
    let o1 = mem.run_incremental(&db, &trusted, &d1).unwrap();
    let o2 = mem.run_incremental(&o1.db, &trusted, &d2).unwrap();
    let o3 = mem.run_incremental(&o2.db, &trusted, &d3).unwrap();

    let dir = fresh_dir("session");
    let durable = engine(&rs, &reg, Some(DurabilityConfig::new(&dir)));
    let s1 = durable.run_incremental_durable(&db, &trusted, &d1).unwrap();
    assert_eq!(
        db_json(&s1.db),
        db_json(&o1.db),
        "batch 1 diverged from the fold"
    );
    assert_eq!(s1.wal.as_ref().unwrap().batch, 1);
    // `db` is ignored once a session exists — durable state is authoritative.
    let s2 = durable.run_incremental_durable(&db, &trusted, &d2).unwrap();
    assert_eq!(
        db_json(&s2.db),
        db_json(&o2.db),
        "batch 2 diverged from the fold"
    );
    assert_eq!(s2.wal.as_ref().unwrap().batch, 2);
    let s3 = durable.run_incremental_durable(&db, &trusted, &d3).unwrap();
    assert_eq!(
        db_json(&s3.db),
        db_json(&o3.db),
        "batch 3 diverged from the fold"
    );
    assert_eq!(s3.wal.as_ref().unwrap().batch, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A ΔD that does not apply is a typed delta error, both on a fresh
/// session directory and on a session that already holds a batch.
#[test]
fn durable_session_rejects_a_malformed_delta() {
    let schema = schema();
    let rs = rules(&schema);
    let reg = ModelRegistry::new();
    let db = build_db(&default_rows());
    let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];
    let [d1, ..] = session_deltas();
    let bad = Delta::new(vec![Update::Insert {
        rel: RelId(0),
        eid: Eid(900_002),
        values: vec![Value::str("x")],
    }]);
    let assert_arity_error = |r: Result<ChaseResult, WalError>| {
        let err = r.err();
        assert!(
            matches!(
                err,
                Some(WalError::Delta(DataError::ArityMismatch { got: 1, .. }))
            ),
            "{err:?}"
        );
    };

    let fresh = fresh_dir("bad-fresh");
    assert_arity_error(
        engine(&rs, &reg, Some(DurabilityConfig::new(&fresh)))
            .run_incremental_durable(&db, &trusted, &bad),
    );

    let held = fresh_dir("bad-held");
    let session = engine(&rs, &reg, Some(DurabilityConfig::new(&held)));
    let s1 = session.run_incremental_durable(&db, &trusted, &d1).unwrap();
    assert_eq!(s1.wal.as_ref().unwrap().batch, 1);
    assert_arity_error(session.run_incremental_durable(&db, &trusted, &bad));
    for d in [fresh, held] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn durable_session_crash_mid_batch_resumes_mid_stream() {
    let schema = schema();
    let rs = rules(&schema);
    let reg = ModelRegistry::new();
    let db = build_db(&default_rows());
    let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];
    let [d1, d2, d3] = session_deltas();

    let mem = engine(&rs, &reg, None);
    let o1 = mem.run_incremental(&db, &trusted, &d1).unwrap();
    let o2 = mem.run_incremental(&o1.db, &trusted, &d2).unwrap();
    let o3 = mem.run_incremental(&o2.db, &trusted, &d3).unwrap();

    // Dry run in a scratch directory to learn batch 2's op-trace length.
    // Batch 1's writes are deterministic, so the scratch and real
    // directories are byte-identical when batch 2 starts and the traces
    // line up op for op.
    let scratch = fresh_dir("session-crash-scratch");
    engine(&rs, &reg, Some(DurabilityConfig::new(&scratch)))
        .run_incremental_durable(&db, &trusted, &d1)
        .unwrap();
    let rec_vfs = FaultVfs::recording();
    engine(
        &rs,
        &reg,
        Some(DurabilityConfig::new(&scratch).with_vfs(rec_vfs.clone())),
    )
    .run_incremental_durable(&db, &trusted, &d2)
    .unwrap();
    let n = rec_vfs.trace().len() as u64;
    assert!(n >= 4, "batch 2 trace too short to crash inside");
    let _ = std::fs::remove_dir_all(&scratch);

    let dir = fresh_dir("session-crash");
    engine(&rs, &reg, Some(DurabilityConfig::new(&dir)))
        .run_incremental_durable(&db, &trusted, &d1)
        .unwrap();
    // Crash near the end of batch 2: its ΔD and early rounds are durable,
    // its tail is not. Repairs (when the call returns) are still the fold.
    let plan = StorageFaultPlan::seeded(27).with_crash_at_op(n - 2);
    let crashed = engine(
        &rs,
        &reg,
        Some(DurabilityConfig::new(&dir).with_vfs(FaultVfs::with_plan(plan))),
    )
    .run_incremental_durable(&db, &trusted, &d2);
    if let Ok(res) = &crashed {
        assert_eq!(
            db_json(&res.db),
            db_json(&o2.db),
            "crashed batch corrupted the repairs"
        );
        assert!(
            matches!(res.wal.as_ref().unwrap().health, WalHealth::Degraded { .. }),
            "crash mid-batch must degrade durability"
        );
    }

    // Mid-stream resume: the session finishes batch 2 durably from the
    // frozen directory, then batch 3 continues the fold.
    let clean = engine(&rs, &reg, Some(DurabilityConfig::new(&dir)));
    let resumed = clean.resume(&trusted).unwrap();
    assert_eq!(
        db_json(&resumed.db),
        db_json(&o2.db),
        "mid-stream resume diverged from fold"
    );
    let rp = locate(&DurabilityConfig::new(&dir), clean.fingerprint(), None).unwrap();
    assert_eq!(rp.checkpoint.batch, 2, "resume must land inside batch 2");
    let s3 = clean.run_incremental_durable(&db, &trusted, &d3).unwrap();
    assert_eq!(
        db_json(&s3.db),
        db_json(&o3.db),
        "post-crash batch 3 diverged from the fold"
    );
    assert_eq!(s3.wal.as_ref().unwrap().batch, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted checkpoint document — bit-flipped or truncated
/// anywhere — must be CRC-rejected by `locate`, which falls back to an
/// earlier round marker, and recovery from that marker is still
/// byte-identical to the uninterrupted oracle.
#[test]
fn corrupt_checkpoint_is_rejected_and_recovery_falls_back() {
    check(48, |g| {
        let (pick, flip, case) = (g.range(0usize..10_000), g.bool(), g.u64());
        let schema = schema();
        let rs = rules(&schema);
        let reg = ModelRegistry::new();
        let db = build_db(&default_rows());
        let trusted: [GlobalTid; 1] = [GlobalTid::new(RelId(0), TupleId(1))];

        let oracle = engine(&rs, &reg, None).run(&db, &trusted);
        let want = canon(&oracle);

        let dir = fresh_dir(&format!("ckpt-prop-{case}"));
        let durable = engine(&rs, &reg, Some(DurabilityConfig::new(&dir)));
        let first = durable.run(&db, &trusted);
        assert_eq!(canon(&first), want);
        assert!(first.rounds >= 2, "need an earlier marker to fall back to");

        let cfg = DurabilityConfig::new(&dir);
        let rp0 = locate(&cfg, durable.fingerprint(), None).unwrap();
        let newest_round = rp0.checkpoint.round;
        let path = dir.join(&rp0.name);
        let bytes = std::fs::read(&path).unwrap();
        if flip {
            let mut b = bytes.clone();
            let i = pick % b.len();
            b[i] ^= 0x20;
            std::fs::write(&path, &b).unwrap();
        } else {
            // Truncate to a strict prefix (possibly empty).
            std::fs::write(&path, &bytes[..pick % bytes.len()]).unwrap();
        }

        let rp1 = locate(&cfg, durable.fingerprint(), None).unwrap();
        assert!(
            rp1.checkpoint.round < newest_round,
            "corrupt checkpoint was not rejected (round {} vs {})",
            rp1.checkpoint.round,
            newest_round
        );

        let resumed = durable.resume(&trusted).unwrap();
        assert_eq!(canon(&resumed), want, "fallback recovery diverged");
        let _ = std::fs::remove_dir_all(&dir);
    });
}
