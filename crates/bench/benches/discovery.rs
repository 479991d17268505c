//! Rule-discovery benches (Fig 4(a)–(c) drivers): the levelwise miner with
//! and without sampling, and the ES evidence-set baseline, on a Logistics
//! slice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rock_baselines::EsMiner;
use rock_data::RelId;
use rock_discovery::levelwise::{Discoverer, DiscoveryConfig};
use rock_discovery::sampling::mine_with_sampling;
use rock_discovery::space::{PredicateSpace, SpaceConfig};
use rock_workloads::workload::GenConfig;

fn bench_discovery(c: &mut Criterion) {
    let w = rock_workloads::logistics::generate(&GenConfig {
        rows: 150,
        error_rate: 0.08,
        seed: 21,
        trusted_per_rel: 15,
    });
    let space = PredicateSpace::build(&w.dirty, RelId(0), &[], &SpaceConfig::default());
    let cfg = DiscoveryConfig {
        min_support: 1e-4,
        min_confidence: 0.9,
        max_preconditions: 2,
        ..Default::default()
    };

    let mut group = c.benchmark_group("discovery");
    group.sample_size(10);
    group.bench_function("rock/levelwise-bitset", |b| {
        b.iter(|| {
            Discoverer::new(&w.registry, cfg.clone()).mine_relation(&w.dirty, RelId(0), &space)
        })
    });
    group.bench_function("rock/levelwise-scan", |b| {
        b.iter(|| {
            Discoverer::new(&w.registry, cfg.clone()).mine_relation_scan(&w.dirty, RelId(0), &space)
        })
    });
    group.bench_function("rock/sampled-10pct", |b| {
        let disc = Discoverer::new(&w.registry, cfg.clone());
        b.iter(|| mine_with_sampling(&disc, &w.dirty, RelId(0), &space, 0.1, 0.05, 7))
    });
    group.bench_function(BenchmarkId::new("baseline", "es-evidence"), |b| {
        b.iter(|| {
            EsMiner::new(&w.registry).mine(
                &w.dirty,
                RelId(0),
                &space.preconditions(),
                &space.consequences,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_discovery);
criterion_main!(benches);
