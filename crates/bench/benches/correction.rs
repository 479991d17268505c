//! Error-correction benches (Fig 4(i)–(l) drivers): the unified chase vs
//! the sequential (Rockseq-style) and single-pass (RocknoC-style)
//! schedules, the chase against its naive reference, and the work-unit
//! granularity ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use rock_chase::{ChaseConfig, ChaseEngine};
use rock_core::variant::sorted_rules;
use rock_core::{RockConfig, RockSystem, Variant};
use rock_workloads::workload::GenConfig;

fn bench_correction(c: &mut Criterion) {
    let w = rock_workloads::logistics::generate(&GenConfig {
        rows: 150,
        error_rate: 0.08,
        seed: 41,
        trusted_per_rel: 15,
    });
    let task = w.task("RClean").unwrap().clone();
    let rules = sorted_rules(&w.rules_for(&task));

    let mut group = c.benchmark_group("correction");
    group.sample_size(10);
    for variant in [
        Variant::Rock,
        Variant::RockSeq,
        Variant::RockNoC,
        Variant::RockNoMl,
    ] {
        group.bench_function(format!("variant/{}", variant.name()), |b| {
            b.iter(|| {
                RockSystem::new(RockConfig {
                    variant,
                    ..RockConfig::default()
                })
                .correct(&w, &task)
            })
        });
    }
    // the production chase vs the reference: classic activation, every
    // active rule re-enumerated in full, scalar, single-threaded
    let engine = ChaseEngine::new(&rules, &w.registry, ChaseConfig::default());
    group.bench_function("chase/production", |b| {
        b.iter(|| engine.run(&w.dirty, &w.trusted))
    });
    group.bench_function("chase/reference", |b| {
        b.iter(|| rock_chase::reference::run(&engine, &w.dirty, &w.trusted))
    });
    // ablation: chase work-unit granularity (coarse vs fine partitions)
    for parts in [1u32, 16] {
        group.bench_function(format!("chase/partitions-{parts}"), |b| {
            b.iter(|| {
                let engine = ChaseEngine::new(
                    &rules,
                    &w.registry,
                    ChaseConfig {
                        partitions_per_rule: parts,
                        ..ChaseConfig::default()
                    },
                );
                engine.run(&w.dirty, &w.trusted)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_correction);
criterion_main!(benches);
