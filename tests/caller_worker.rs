//! Crystal's worker 0 is the calling thread: `Cluster::execute` spawns
//! only workers 1..n, so a 1-worker run starts no thread at all. Running
//! there must not change what the fault model promises: injected and
//! genuine panics still quarantine their unit without unwinding into the
//! caller, and a crash of node 0 still hands its units to the survivors.

use rock::crystal::work::{Partition, WorkUnit};
use rock::crystal::{Cluster, ClusterConfig, FaultPlan, UnitError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

fn units(n: u32) -> Vec<WorkUnit> {
    (0..n)
        .map(|i| WorkUnit::new(i % 5, vec![Partition::new(0, i * 10, (i + 1) * 10)]))
        .collect()
}

#[test]
fn one_worker_runs_every_unit_on_the_callers_thread() {
    let caller = thread::current().id();
    let out = Cluster::new(1).execute(units(50), |_| Ok(thread::current().id()));
    assert!(out.is_complete());
    assert!(out.results.iter().all(|r| *r == Some(caller)));
    assert_eq!(out.stats.executed, vec![50]);
}

#[test]
fn worker_zero_shares_the_callers_thread_at_two_workers() {
    let caller = thread::current().id();
    let cluster = Cluster::new(2);
    let us = units(64);
    let on_zero = us.iter().filter(|u| cluster.owner_of(u) == 0).count();
    assert!(on_zero > 0, "placement leaves worker 0 idle");
    let out = cluster.execute(us, |_| Ok(thread::current().id()));
    assert!(out.is_complete());
    let threads: Vec<ThreadId> = out.results.into_iter().flatten().collect();
    let by_caller = threads.iter().filter(|t| **t == caller).count() as u64;
    assert_eq!(by_caller, out.stats.executed[0], "worker 0 is the caller");
    // worker 1 is the one spawned thread
    let spawned: Vec<&ThreadId> = threads.iter().filter(|t| **t != caller).collect();
    assert_eq!(spawned.len() as u64, out.stats.executed[1]);
    assert!(spawned.iter().all(|t| *t == spawned[0]));
}

#[test]
fn panics_on_the_callers_thread_still_quarantine() {
    // injected: the poison unit panics on every attempt
    let cfg = ClusterConfig::default()
        .with_fault_plan(FaultPlan::seeded(9).with_poison(vec![4]))
        .with_max_retries(2);
    let out = Cluster::with_config(1, cfg).execute(units(12), |u| Ok(u.rule));
    assert_eq!(out.failures.len(), 1);
    assert_eq!((out.failures[0].unit, out.failures[0].attempts), (4, 3));
    assert!(matches!(out.failures[0].error, UnitError::Panic(_)));
    assert_eq!(out.stats.faults.quarantined, 1);
    assert_eq!(out.results.iter().filter(|r| r.is_some()).count(), 11);

    // genuine: a unit body that panics is isolated, the caller goes on
    let cluster = Cluster::with_config(1, ClusterConfig::default().with_max_retries(1));
    let out = cluster.execute(units(8), |u| {
        if u.partitions[0].start == 30 {
            panic!("genuine bug in unit body");
        }
        Ok(u.partitions[0].start)
    });
    assert_eq!(out.failures.len(), 1);
    assert_eq!((out.failures[0].unit, out.failures[0].attempts), (3, 2));
    match &out.failures[0].error {
        UnitError::Panic(m) => assert!(m.contains("genuine bug"), "{m}"),
        other => panic!("expected a panic failure, got {other:?}"),
    }
    assert_eq!(out.results.iter().filter(|r| r.is_some()).count(), 7);
}

#[test]
fn crash_of_node_zero_reassigns_its_units_at_two_workers() {
    let caller = thread::current().id();
    let probe = Cluster::new(2);
    let us: Vec<WorkUnit> = units(40);
    assert!(us.iter().any(|u| probe.owner_of(u) == 0));
    let cluster = Cluster::with_config(
        2,
        ClusterConfig::default().with_fault_plan(FaultPlan::seeded(3).with_crash(0, 0)),
    );
    // Every unit body waits for the crash, so node 0 — the caller — drains
    // its whole queue to the survivor before anything commits.
    let deadline = Instant::now() + Duration::from_secs(10);
    let out = cluster.execute(us, |_| {
        while cluster.is_alive(0) && Instant::now() < deadline {
            thread::yield_now();
        }
        Ok(thread::current().id())
    });
    assert!(out.is_complete(), "failures: {:?}", out.failures);
    assert_eq!(out.stats.faults.node_crashes, 1);
    assert!(out.stats.faults.reassigned > 0, "{:?}", out.stats.faults);
    assert_eq!(out.stats.executed, vec![0, 40]);
    assert!(out.results.iter().all(|r| r.is_some_and(|t| t != caller)));
    // the next round on the same cluster: the caller, dead as node 0,
    // runs nothing, and worker 1 runs everything
    let out = cluster.execute(units(20), |_| Ok(thread::current().id()));
    assert!(out.is_complete());
    assert_eq!(out.stats.executed, vec![0, 20]);
    assert!(out.results.iter().all(|r| r.is_some_and(|t| t != caller)));
}
