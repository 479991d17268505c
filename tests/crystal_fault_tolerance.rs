//! Fault-tolerance properties of the Crystal substrate (DESIGN.md §Crystal
//! fault model): seeded deterministic fault injection must never change
//! what a computation produces — only how long it takes. Covers the
//! scheduler (retry, quarantine, injected latency, node crash) and the
//! end-to-end cleaning pipeline under chaos.

mod common;

use common::check;
use rock::core::{RockConfig, RockSystem};
use rock::crystal::work::{Partition, WorkUnit};
use rock::crystal::{Cluster, ClusterConfig, FaultPlan, UnitError};
use rock::workloads::workload::GenConfig;
use std::time::{Duration, Instant};

const CASES: u64 = 16;

fn units(n: u32) -> Vec<WorkUnit> {
    (0..n)
        .map(|i| WorkUnit::new(i % 7, vec![Partition::new(0, i * 10, (i + 1) * 10)]))
        .collect()
}

/// The default chase with the given Crystal fault-tolerance knobs, which
/// `RockSystem` also threads into discovery and detection.
fn chase_with(cluster: ClusterConfig) -> rock::chase::ChaseConfig {
    rock::chase::ChaseConfig {
        cluster,
        ..Default::default()
    }
}

/// Seed for chaos runs: `ROCK_CHAOS_SEED` when CI sweeps a matrix,
/// otherwise a fixed default.
fn chaos_seed() -> u64 {
    std::env::var("ROCK_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242)
}

/// For any seed and any recoverable fault mix, the non-quarantined
/// results equal the fault-free run's results (here: everything, since
/// first-attempt-only faults always recover within one retry), and each
/// unit's body runs exactly once: injected panics and transient errors
/// fire before the body, and no other worker ever runs a unit it did not
/// pop.
#[test]
fn faulted_results_equal_fault_free() {
    use std::sync::atomic::{AtomicU32, Ordering};
    check(CASES, |g| {
        let (seed, panic_prob, transient_prob, latency_prob) = (
            g.u64(),
            g.range(0.0f64..0.3),
            g.range(0.0f64..0.3),
            g.range(0.0f64..0.3),
        );
        let (workers, n_units) = (g.range(1usize..5), g.range(20u32..80));
        let us = units(n_units);
        let clean = Cluster::new(workers).execute(us.clone(), |u| Ok(u.placement_hash()));
        let plan = FaultPlan::seeded(seed)
            .with_panics(panic_prob)
            .with_transients(transient_prob)
            .with_latency(latency_prob, Duration::from_millis(1));
        let body_runs: Vec<AtomicU32> = (0..n_units).map(|_| AtomicU32::new(0)).collect();
        let chaotic = Cluster::with_config(workers, ClusterConfig::default().with_fault_plan(plan))
            .execute(us, |u| {
                body_runs[u.partitions[0].start as usize / 10].fetch_add(1, Ordering::Relaxed);
                Ok(u.placement_hash())
            });
        assert!(chaotic.is_complete(), "failures: {:?}", chaotic.failures);
        assert_eq!(clean.results, chaotic.results);
        assert_eq!(chaotic.stats.faults.quarantined, 0);
        for (i, runs) in body_runs.iter().enumerate() {
            assert_eq!(runs.load(Ordering::Relaxed), 1, "unit {i} body runs");
        }
    });
}

/// A poison unit is quarantined after exactly `max_retries + 1`
/// attempts, for any retry budget; every other unit commits.
#[test]
fn quarantine_after_exact_retry_budget() {
    check(CASES, |g| {
        let (seed, max_retries, poisoned) = (g.u64(), g.range(0u32..5), g.range(0u32..20));
        let cfg = ClusterConfig::default()
            .with_fault_plan(FaultPlan::seeded(seed).with_poison(vec![poisoned]))
            .with_max_retries(max_retries);
        let out = Cluster::with_config(2, cfg).execute(units(20), |u| Ok(u.rule));
        assert_eq!(out.failures.len(), 1);
        let fl = &out.failures[0];
        assert_eq!(fl.unit, poisoned as usize);
        assert_eq!(fl.attempts, max_retries + 1);
        assert!(matches!(fl.error, UnitError::Panic(_)));
        assert!(out.results[poisoned as usize].is_none());
        assert_eq!(out.results.iter().filter(|r| r.is_some()).count(), 19);
        assert_eq!(out.stats.faults.quarantined, 1);
    });
}

/// Transient typed errors from the unit body itself (not injected) are
/// retried like faults and recover when they stop.
#[test]
fn own_transient_errors_retried() {
    check(CASES, |g| {
        let (seed, workers) = (g.u64(), g.range(1usize..4));
        use std::sync::atomic::{AtomicU32, Ordering};
        let first_tries: Vec<AtomicU32> = (0..30).map(|_| AtomicU32::new(0)).collect();
        let salt = seed; // fail a seed-dependent subset on the first attempt
        let out = Cluster::with_config(workers, ClusterConfig::default().with_max_retries(2))
            .execute(units(30), |u| {
                let i = u.partitions[0].start as usize / 10;
                let flaky =
                    (salt.wrapping_mul(i as u64 + 1)).wrapping_mul(0x9E3779B97F4A7C15) >> 63 == 1;
                if flaky && first_tries[i].fetch_add(1, Ordering::Relaxed) == 0 {
                    return Err(UnitError::Transient("cold cache".into()));
                }
                Ok(u.placement_hash())
            });
        assert!(out.is_complete(), "failures: {:?}", out.failures);
        assert_eq!(out.results.iter().filter(|r| r.is_some()).count(), 30);
    });
}

#[test]
fn node_crash_reassigns_and_membership_persists() {
    // Controlled placement: all units hash to one owner; crashing it must
    // push the queue through the reassignment injector, and the dead node
    // must stay dead for subsequent rounds on the same cluster.
    let probe = WorkUnit::new(7, vec![Partition::new(0, 0, 10)]);
    let victim = Cluster::new(4).owner_of(&probe);
    let us: Vec<WorkUnit> = (0..32)
        .map(|_| WorkUnit::new(7, vec![Partition::new(0, 0, 10)]))
        .collect();
    let cluster = Cluster::with_config(
        4,
        ClusterConfig::default()
            .with_fault_plan(FaultPlan::seeded(chaos_seed()).with_crash(victim, 0)),
    );
    // Every unit body waits for the crash, so survivors can hold at most
    // one unit each when the victim drains the rest of its queue.
    let deadline = Instant::now() + Duration::from_secs(10);
    let out = cluster.execute(us, |u| {
        while cluster.is_alive(victim) && Instant::now() < deadline {
            std::thread::yield_now();
        }
        Ok(u.rule)
    });
    assert!(out.is_complete(), "failures: {:?}", out.failures);
    assert_eq!(out.stats.faults.node_crashes, 1);
    assert!(out.stats.faults.reassigned > 0, "{:?}", out.stats.faults);
    assert_eq!(out.stats.executed[victim], 0);
    assert_eq!(cluster.alive_workers(), 3);
    // round 2 on the same cluster: placement avoids the dead node
    let out2 = cluster.execute(units(40), |u| Ok(u.rule));
    assert!(out2.is_complete());
    assert_eq!(out2.stats.executed[victim], 0);
    for i in 0..50u32 {
        let u = WorkUnit::new(0, vec![Partition::new(0, i * 3, i * 3 + 2)]);
        assert_ne!(cluster.owner_of(&u), victim);
    }
}

#[test]
fn e2e_repairs_byte_identical_under_chaos() {
    // The acceptance property: a full detect+correct pipeline under
    // injected panics, transients, stragglers and a node crash repairs the
    // database byte-for-byte identically to an undisturbed run.
    let w = rock::workloads::logistics::generate(&GenConfig {
        rows: 180,
        error_rate: 0.08,
        seed: 2,
        trusted_per_rel: 20,
    });
    let task = w.tasks.last().unwrap().clone();
    let run = |cluster: ClusterConfig| {
        RockSystem::new(RockConfig {
            workers: 4,
            chase: chase_with(cluster),
            ..RockConfig::default()
        })
        .correct(&w, &task)
    };
    let clean = run(ClusterConfig::default());
    let plan = FaultPlan::chaos(chaos_seed()).with_crash(1, 2);
    let chaotic = run(ClusterConfig::default().with_fault_plan(plan));
    assert!(
        chaotic.unit_failures.is_empty(),
        "recoverable chaos must not quarantine: {:?}",
        chaotic.unit_failures
    );
    assert_eq!(
        clean.repaired,
        chaotic.repaired,
        "repairs diverged under fault injection (seed {})",
        chaos_seed()
    );
    assert_eq!(
        (clean.rounds, clean.changes, clean.conflicts),
        (chaotic.rounds, chaotic.changes, chaotic.conflicts)
    );
}

#[test]
fn e2e_detection_identical_under_chaos() {
    let w = rock::workloads::bank::generate(&GenConfig {
        rows: 150,
        error_rate: 0.08,
        seed: 1,
        trusted_per_rel: 20,
    });
    let task = w.tasks.last().unwrap().clone();
    let run = |cluster: ClusterConfig| {
        RockSystem::new(RockConfig {
            workers: 3,
            chase: chase_with(cluster),
            ..RockConfig::default()
        })
        .detect(&w, &task)
    };
    let clean = run(ClusterConfig::default());
    let chaotic = run(ClusterConfig::default().with_fault_plan(FaultPlan::chaos(chaos_seed())));
    assert!(chaotic.report.unit_failures.is_empty());
    assert_eq!(clean.report.count(), chaotic.report.count());
    assert_eq!(clean.report.flagged_cells, chaotic.report.flagged_cells);
    assert_eq!(clean.metrics.f1(), chaotic.metrics.f1());
}

#[test]
fn chase_survives_quarantine_with_degraded_rounds() {
    // A poison unit voids its rule's round; the chase must neither abort
    // nor commit partial emissions, and the failure must be reported.
    let w = rock::workloads::logistics::generate(&GenConfig {
        rows: 120,
        error_rate: 0.08,
        seed: 2,
        trusted_per_rel: 20,
    });
    let task = w.tasks.last().unwrap().clone();
    let out = RockSystem::new(RockConfig {
        workers: 2,
        chase: chase_with(
            ClusterConfig::default()
                .with_fault_plan(FaultPlan::seeded(chaos_seed()).with_poison(vec![0]))
                .with_max_retries(1),
        ),
        ..RockConfig::default()
    })
    .correct(&w, &task);
    // unit 0 of every cluster round is poisoned, so at least one failure
    // must be on record, and the run still terminates with a database.
    assert!(
        !out.unit_failures.is_empty(),
        "poisoned unit must surface as a quarantine"
    );
    assert!(out.fault_stats.quarantined > 0);
    assert!(out.rounds > 0);
}

/// Every unit delayed on its first attempt: latency changes how long the
/// run takes, never what it produces.
#[test]
fn injected_latency_preserves_results() {
    let plan = FaultPlan::seeded(chaos_seed()).with_latency(1.0, Duration::from_millis(20));
    let us = units(12);
    let clean = Cluster::new(4).execute(us.clone(), |u| Ok(u.placement_hash()));
    let out = Cluster::with_config(4, ClusterConfig::default().with_fault_plan(plan))
        .execute(us, |u| Ok(u.placement_hash()));
    assert!(out.is_complete());
    assert_eq!(clean.results, out.results);
    assert_eq!(out.stats.faults.latency_injected, 12);
}
