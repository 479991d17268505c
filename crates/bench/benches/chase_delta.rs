//! `chase-delta` benches: the production chase (semi-naive delta rounds
//! with blocking-pruned pair enumeration) against the reference chase
//! (`rock_chase::reference`: every active rule re-enumerated in full each
//! round), batch and incremental. The two repair identically (asserted by
//! `tests/engine_equivalence.rs` and the `chase-delta` figure panel);
//! these benches measure the wall-clock gap.

use criterion::{criterion_group, criterion_main, Criterion};
use rock_chase::{reference, ChaseConfig, ChaseEngine};
use rock_core::variant::sorted_rules;
use rock_data::{AttrId, Delta, RelId, TupleId, Update, Value};
use rock_detect::blocking::precompute_ml_indexed;
use rock_workloads::workload::GenConfig;

fn bench_chase_delta(c: &mut Criterion) {
    let w = rock_workloads::logistics::generate(&GenConfig {
        rows: 150,
        error_rate: 0.08,
        seed: 41,
        trusted_per_rel: 15,
    });
    let task = w.task("RClean").unwrap().clone();
    let rules = sorted_rules(&w.rules_for(&task));
    let (_, index) = precompute_ml_indexed(&w.dirty, &rules, &w.registry);
    let engine =
        ChaseEngine::new(&rules, &w.registry, ChaseConfig::default()).with_blocking(&index);

    let mut group = c.benchmark_group("chase_delta");
    group.sample_size(10);
    // batch: round 1 is a full scan on both sides; round ≥ 2 enumerates
    // only delta-pinned valuations (production) vs everything (reference)
    group.bench_function("batch/semi-naive", |b| {
        b.iter(|| engine.run(&w.dirty, &w.trusted))
    });
    group.bench_function("batch/reference", |b| {
        b.iter(|| reference::run(&engine, &w.dirty, &w.trusted))
    });
    // incremental: a small ΔD of nulled cells; both chase only the touched
    // tuples, by pinned bitsets vs by filtering a full enumeration
    let arity = w.dirty.relation(RelId(0)).schema.arity();
    let delta = Delta::new(
        (0..8u32)
            .map(|i| Update::SetCell {
                rel: RelId(0),
                tid: TupleId(i * 7),
                attr: AttrId((arity - 1) as u16),
                value: Value::Null,
            })
            .collect(),
    );
    group.bench_function("incremental/pinned", |b| {
        b.iter(|| {
            engine
                .run_incremental(&w.dirty, &w.trusted, &delta)
                .unwrap()
        })
    });
    group.bench_function("incremental/reference", |b| {
        b.iter(|| reference::run_incremental(&engine, &w.dirty, &w.trusted, &delta).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_chase_delta);
criterion_main!(benches);
