//! Concurrency regression test for the sharded `ModelRegistry` memo: the
//! hit path and the miss path must agree with the classifier under
//! contention, and once every key has been seen, the memo must answer
//! everything without another inference.
//!
//! The bounded model-checking certificate lives in
//! `rock-crystal/tests/model_protocols.rs` (`sharded-memo`); this test
//! drives the real 16-shard implementation with raw `std` threads (the
//! build carries no loom), so shard lock contention, the benign
//! double-compute race on a shared miss, and cross-shard independence all
//! execute for real. The `Mrank` score memo is raced the same way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rock_data::Value;
use rock_ml::{ModelRegistry, PairClassifier, RankModel};

/// Deterministic classifier that counts how often real inference runs.
struct CountingModel {
    calls: AtomicU64,
}

fn raw_score(a: &[Value], b: &[Value]) -> f64 {
    let pick = |vs: &[Value]| match vs.first() {
        Some(Value::Int(n)) => *n,
        _ => 0,
    };
    ((pick(a) * 31 + pick(b)).rem_euclid(10)) as f64 / 10.0
}

impl PairClassifier for CountingModel {
    fn score(&self, a: &[Value], b: &[Value]) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        raw_score(a, b)
    }

    fn cost(&self) -> f64 {
        1.0
    }
}

const THREADS: usize = 8;
const KEYS: i64 = 32;
const REPS: usize = 4;

#[test]
fn memo_hit_and_miss_paths_agree_under_contention() {
    let model = Arc::new(CountingModel {
        calls: AtomicU64::new(0),
    });
    let reg = ModelRegistry::new();
    let id = reg.register_pair("counting", Arc::clone(&model) as _);

    let pairs: Vec<(Vec<Value>, Vec<Value>)> = (0..KEYS)
        .map(|i| (vec![Value::Int(i)], vec![Value::Int(i * 7 + 1)]))
        .collect();

    // miss storm: every thread sweeps every key, offset so the first
    // touches of each key are spread across threads and shards race
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (reg, pairs) = (&reg, &pairs);
            scope.spawn(move || {
                for rep in 0..REPS {
                    for k in 0..pairs.len() {
                        let (a, b) = &pairs[(k + t * 5 + rep) % pairs.len()];
                        let expect = raw_score(a, b) >= 0.5;
                        assert_eq!(
                            reg.predict_pair(id, a, b),
                            expect,
                            "hit/miss paths disagree for {a:?} / {b:?}"
                        );
                    }
                }
            });
        }
    });

    // every key was truly inferred at least once, and the benign race on
    // a shared miss is bounded: never more computes than thread×key pairs
    let after_storm = model.calls.load(Ordering::Relaxed);
    assert!(after_storm >= KEYS as u64, "memo invented results");
    assert!(
        after_storm <= (THREADS as u64) * 2 * KEYS as u64,
        "memo never hit: {after_storm} raw inferences"
    );

    // hit storm: the memo is fully populated, so no inference may run
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (reg, pairs) = (&reg, &pairs);
            scope.spawn(move || {
                for (a, b) in pairs.iter() {
                    assert_eq!(reg.predict_pair(id, a, b), raw_score(a, b) >= 0.5);
                }
            });
        }
    });
    assert_eq!(
        model.calls.load(Ordering::Relaxed),
        after_storm,
        "a fully-populated memo must serve pure hits"
    );
    assert!(reg.meter.memo_hits() >= (THREADS * 2 * KEYS as usize) as u64);

    // clear_memo forces the miss path again — results must not change
    reg.clear_memo();
    let (a, b) = &pairs[0];
    assert_eq!(reg.predict_pair(id, a, b), raw_score(a, b) >= 0.5);
    assert!(model.calls.load(Ordering::Relaxed) > after_storm);
}

fn rank_model() -> RankModel {
    let pairs: Vec<(Vec<Value>, Vec<Value>)> = (0..12)
        .map(|i| {
            (
                vec![Value::str("single"), Value::Int(1000 + i * 10)],
                vec![Value::str("married"), Value::Int(5000 + i * 10)],
            )
        })
        .collect();
    RankModel::train_creator_critic(2, &pairs, &[], 1, 7)
}

#[test]
fn rank_memo_races_serve_only_the_models_scores() {
    let oracle = rank_model();
    let reg = ModelRegistry::new();
    let id = reg.register_rank("Mrank", Arc::new(oracle.clone()));
    let tuples: Vec<Vec<Value>> = (0..KEYS)
        .map(|i| vec![Value::str(format!("s{}", i % 5)), Value::Int(i * 97)])
        .collect();
    let check = |reg: &ModelRegistry, a: &[Value], b: &[Value]| {
        assert_eq!(
            reg.rank_confidence(id, a, b).to_bits(),
            oracle.confidence(a, b).to_bits(),
            "memoized confidence differs from the model for {a:?} / {b:?}"
        );
    };

    // miss storm: threads start at different tuples, so first lookups of a
    // score race across threads
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (reg, tuples, check) = (&reg, &tuples, &check);
            scope.spawn(move || {
                for rep in 0..REPS {
                    for k in 0..tuples.len() {
                        let a = &tuples[(k + t * 5 + rep) % tuples.len()];
                        let b = &tuples[(k * 7 + t) % tuples.len()];
                        check(reg, a, b);
                    }
                }
            });
        }
    });
    // one score per tuple, each computed at least once and at most once
    // per thread that raced on its miss
    let after_storm = reg.meter.inferences();
    assert!(after_storm >= KEYS as u64, "memo invented scores");
    assert!(
        after_storm <= (THREADS as u64) * KEYS as u64,
        "{after_storm}"
    );

    // hit storm: every score is memoized, and every entry is the model's
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (reg, tuples, check) = (&reg, &tuples, &check);
            scope.spawn(move || {
                for a in tuples.iter() {
                    check(reg, a, &tuples[t % tuples.len()]);
                }
            });
        }
    });
    assert_eq!(
        reg.meter.inferences(),
        after_storm,
        "a full memo serves hits"
    );

    reg.clear_memo();
    check(&reg, &tuples[0], &tuples[1]);
    assert_eq!(reg.meter.inferences(), after_storm + 2);
}
