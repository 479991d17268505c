//! The non-centralized work manager (paper §5.2, strategy 3):
//!
//! "Rock adopts a non-centralized structure under the consistent hash; all
//! nodes in a cluster play the same roles. Each node has its own computing
//! engine and work manager. After all work units are generated, each
//! T = (φ, D_T) is distributed to a node based on the hash of D_T. …
//! When a node finishes its assigned work units, it evokes the work manager
//! to fetch work units from other nodes. In this way, Rock achieves load
//! balancing and high scalability; no node is idle unless all work units
//! are finished."
//!
//! Simulation: `n` workers, one mutex-guarded FIFO queue each; a unit is
//! placed by its partition hash modulo `n` (see [`Cluster::owner_of`]);
//! idle workers steal. Worker 0 is the calling thread and workers 1..n are
//! scoped threads, so a 1-worker run spawns nothing. Per-worker
//! execution counts and steal counts are reported so the
//! scalability experiments (Fig. 4(h)/(l)) can verify balance.
//!
//! Fault tolerance (see [`crate::fault`] and DESIGN.md §Crystal): every
//! unit body runs under `catch_unwind`, panics and transient errors are
//! retried with capped deterministic exponential backoff, poison units are
//! quarantined after `max_retries + 1` attempts (reported in
//! [`ExecuteOutcome::failures`], never fatal), and a crashed node's
//! remaining queue is re-enqueued onto survivors via a shared queue at a
//! unit boundary. Every unit index sits in exactly one queue, once, and is
//! popped once; the worker that pops it runs all of its attempts and
//! either writes its result slot or quarantines it, so a unit's body runs
//! to a result at most once and its slot has a single writer.

use crate::fault::{
    ClusterConfig, FaultDecision, FaultInjector, FaultStats, InjectedFault, UnitError, UnitFailure,
};
use crate::sync::{
    Arc, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Backoff, LockRank, Ordering, RankedMutex,
};
use crate::work::WorkUnit;
use std::collections::VecDeque;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Per-run scheduler statistics.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    pub workers: usize,
    pub units: usize,
    /// Units committed per worker (failed attempts and quarantined units
    /// are not counted here).
    pub executed: Vec<u64>,
    /// Units obtained by stealing, per worker.
    pub stolen: Vec<u64>,
    /// Measured execution seconds of each unit's successful attempt, in
    /// unit order (0.0 for quarantined units).
    pub unit_seconds: Vec<f64>,
    pub wall_seconds: f64,
    /// Fault-handling counters (all zero in an undisturbed run).
    pub faults: FaultStats,
}

/// Greedy longest-processing-time makespan of `durations` on `bins` equal
/// workers (4/3-approximation of the optimum; matches what work stealing
/// achieves in practice).
pub fn makespan_lpt(durations: &[f64], bins: usize) -> f64 {
    let bins = bins.max(1);
    let mut sorted: Vec<f64> = durations.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut load = vec![0.0f64; bins];
    for d in sorted {
        // place on the least-loaded bin
        let mut idx = 0;
        for (j, l) in load.iter().enumerate() {
            if *l < load[idx] {
                idx = j;
            }
        }
        load[idx] += d;
    }
    load.into_iter().fold(0.0, f64::max)
}

/// The outcome of [`Cluster::execute`]: per-unit results in unit order
/// (`None` exactly for the units listed in `failures`), the typed failures
/// of quarantined units, and the run's scheduler statistics.
#[derive(Debug)]
pub struct ExecuteOutcome<R> {
    pub results: Vec<Option<R>>,
    pub failures: Vec<UnitFailure>,
    pub stats: SchedulerStats,
}

impl<R> ExecuteOutcome<R> {
    /// True when every unit produced a result.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Shared membership state: per-worker liveness flags and the once-latch
/// for the planned crash. Shared (via `Arc`) across rounds so a node that
/// crashed in round *r* stays dead in round *r+1* and placement moves onto
/// survivors.
#[derive(Debug)]
struct Membership {
    alive: Vec<AtomicBool>,
    crash_fired: AtomicBool,
}

/// A FIFO queue of unit indices: a worker pops its own from the front,
/// idle workers steal from the same end, and a crashed node's backlog is
/// re-queued on the shared one. Every method takes and drops the lock
/// itself, so no guard outlives a call and a thread never holds two queues
/// at once.
struct TaskQueue(RankedMutex<VecDeque<usize>>);

impl TaskQueue {
    fn new() -> Self {
        TaskQueue(RankedMutex::new(LockRank::SchedQueue, VecDeque::new()))
    }

    fn push(&self, unit: usize) {
        self.0.lock().push_back(unit);
    }

    fn pop(&self) -> Option<usize> {
        self.0.lock().pop_front()
    }
}

/// Atomic fault counters shared by the worker threads of one run.
#[derive(Default)]
struct FaultCounters {
    retries: AtomicU64,
    panics: AtomicU64,
    transients: AtomicU64,
    latency: AtomicU64,
    reassigned: AtomicU64,
    quarantined: AtomicU64,
    crashes: AtomicU64,
}

impl FaultCounters {
    fn snapshot(&self) -> FaultStats {
        FaultStats {
            retries: self.retries.load(Ordering::Relaxed),
            panics_caught: self.panics.load(Ordering::Relaxed),
            transient_errors: self.transients.load(Ordering::Relaxed),
            latency_injected: self.latency.load(Ordering::Relaxed),
            reassigned: self.reassigned.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            node_crashes: self.crashes.load(Ordering::Relaxed),
        }
    }
}

fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(inj) = payload.downcast_ref::<InjectedFault>() {
        format!(
            "injected panic (unit {}, attempt {})",
            inj.unit, inj.attempt
        )
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// A simulated cluster of `n` equal workers. Cloning shares the membership
/// state (a clone sees the same dead nodes).
#[derive(Debug, Clone)]
pub struct Cluster {
    workers: usize,
    config: ClusterConfig,
    membership: Arc<Membership>,
}

impl Cluster {
    /// A cluster with `workers` nodes (≥1) and default resilience knobs.
    pub fn new(workers: usize) -> Self {
        Cluster::with_config(workers, ClusterConfig::default())
    }

    /// A cluster with explicit resilience configuration (fault plan and
    /// retry budget).
    pub fn with_config(workers: usize, config: ClusterConfig) -> Self {
        let workers = workers.max(1);
        Cluster {
            workers,
            config,
            membership: Arc::new(Membership {
                alive: (0..workers).map(|_| AtomicBool::new(true)).collect(),
                crash_fired: AtomicBool::new(false),
            }),
        }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Total workers, including dead ones.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Workers currently alive.
    pub fn alive_workers(&self) -> usize {
        self.membership
            .alive
            .iter()
            .filter(|a| a.load(Ordering::Acquire))
            .count()
    }

    pub fn is_alive(&self, worker: usize) -> bool {
        self.membership
            .alive
            .get(worker)
            .is_some_and(|a| a.load(Ordering::Acquire))
    }

    /// The worker a unit is initially placed on: its partition hash modulo
    /// the worker count, or the first live worker after that index when
    /// that one is dead. A crash therefore moves only the dead node's units.
    pub fn owner_of(&self, unit: &WorkUnit) -> usize {
        let home = unit.placement_hash() as usize % self.workers;
        (home..self.workers)
            .chain(0..home)
            .find(|&w| self.is_alive(w))
            .unwrap_or(home)
    }

    /// Execute all units with work stealing; `f` runs on worker threads
    /// and may fail with a [`UnitError`] (retried like an injected fault).
    /// Results are returned in unit order; a `None` slot corresponds to a
    /// quarantined unit described in [`ExecuteOutcome::failures`].
    pub fn execute<R, F>(&self, units: Vec<WorkUnit>, f: F) -> ExecuteOutcome<R>
    where
        R: Send,
        F: Fn(&WorkUnit) -> Result<R, UnitError> + Sync,
    {
        let n = self.workers;
        let total = units.len();
        let start = Instant::now();
        let max_retries = self.config.max_retries;
        let fault = self
            .config
            .fault_plan
            .clone()
            .filter(|p| p.is_active())
            .map(FaultInjector::new);
        if fault
            .as_ref()
            .is_some_and(|fi| fi.plan().panic_prob > 0.0 || !fi.plan().poison_units.is_empty())
        {
            crate::fault::silence_injected_panics();
        }

        // Build per-worker deques and place units (indices into `units`).
        let mut deques: Vec<TaskQueue> = (0..n).map(|_| TaskQueue::new()).collect();
        // A crashed node drains its remaining queue here; any worker polls
        // it before stealing.
        let global = TaskQueue::new();
        for (i, u) in units.iter().enumerate() {
            deques[self.owner_of(u)].0.get_mut().push_back(i);
        }

        let executed: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let stolen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        // execution time of the successful attempt per unit, in nanoseconds
        let unit_ns: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
        // attempts made per unit, read back for a `Lost` unit's report
        let attempts: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
        let remaining = AtomicUsize::new(total);
        let results: Vec<RankedMutex<Option<R>>> = (0..total)
            .map(|_| RankedMutex::new(LockRank::SchedResultSlot, None))
            .collect();
        let failures: RankedMutex<Vec<UnitFailure>> =
            RankedMutex::new(LockRank::SchedFailures, Vec::new());
        let counters = FaultCounters::default();
        let membership = &*self.membership;
        let config = &self.config;

        // One worker's loop; worker 0 runs on the calling thread, so a
        // 1-worker run spawns no thread at all.
        let worker = |w: usize| {
            let deque = &deques[w];
            if !membership.alive[w].load(Ordering::Acquire) {
                // Dead from a crash in an earlier round: drain
                // anything mistakenly placed here and exit.
                while let Some(i) = deque.pop() {
                    global.push(i);
                    counters.reassigned.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }

            // Run unit `i`, which only this worker holds, through the
            // inject → catch_unwind → retry/quarantine pipeline until it
            // commits or is quarantined.
            let run = |i: usize, was_steal: bool| {
                loop {
                    let attempt = attempts[i].fetch_add(1, Ordering::Relaxed);
                    let decision = fault
                        .as_ref()
                        .map(|fi| fi.decide(i, attempt))
                        .unwrap_or(FaultDecision::None);
                    if matches!(decision, FaultDecision::Latency(_)) {
                        counters.latency.fetch_add(1, Ordering::Relaxed);
                    }
                    let t0 = Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        match decision {
                            FaultDecision::Panic => panic_any(InjectedFault { unit: i, attempt }),
                            FaultDecision::Transient => {
                                return Err(UnitError::Transient(format!(
                                    "injected fault (unit {i}, attempt {attempt})"
                                )));
                            }
                            FaultDecision::Latency(d) => std::thread::sleep(d),
                            FaultDecision::None => {}
                        }
                        f(&units[i])
                    }));
                    let ns = t0.elapsed().as_nanos() as u64;
                    let error = match outcome {
                        Ok(Ok(r)) => {
                            *results[i].lock() = Some(r);
                            unit_ns[i].store(ns, Ordering::Relaxed);
                            executed[w].fetch_add(1, Ordering::Relaxed);
                            if was_steal {
                                stolen[w].fetch_add(1, Ordering::Relaxed);
                            }
                            break;
                        }
                        Ok(Err(e)) => {
                            if matches!(e, UnitError::Transient(_)) {
                                counters.transients.fetch_add(1, Ordering::Relaxed);
                            }
                            e
                        }
                        Err(payload) => {
                            counters.panics.fetch_add(1, Ordering::Relaxed);
                            UnitError::Panic(describe_panic(payload.as_ref()))
                        }
                    };
                    if attempt >= max_retries {
                        // Quarantine: settle without a result; the typed
                        // failure is reported, not fatal.
                        failures.lock().push(UnitFailure {
                            unit: i,
                            rule: units[i].rule,
                            attempts: attempt + 1,
                            error,
                        });
                        counters.quarantined.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    counters.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(config.backoff_for(attempt));
                }
                remaining.fetch_sub(1, Ordering::AcqRel);
            };

            let crash = fault.as_ref().and_then(|fi| fi.plan().crash);
            let backoff = Backoff::default();
            let mut local_done: u64 = 0;
            loop {
                // Planned whole-node crash, honored at a unit
                // boundary (no in-flight work is lost) and only
                // when survivors exist.
                if let Some(c) = crash {
                    if c.node == w
                        && n > 1
                        && local_done >= c.after_units
                        && !membership.crash_fired.swap(true, Ordering::AcqRel)
                    {
                        let mut moved = 0u64;
                        while let Some(i) = deque.pop() {
                            global.push(i);
                            moved += 1;
                        }
                        counters.reassigned.fetch_add(moved, Ordering::Relaxed);
                        counters.crashes.fetch_add(1, Ordering::Relaxed);
                        membership.alive[w].store(false, Ordering::Release);
                        return;
                    }
                }
                // own queue first, then the reassignment injector,
                // then steal round-robin from the others
                let mut task = deque.pop();
                let mut was_steal = false;
                if task.is_none() {
                    task = global.pop();
                }
                if task.is_none() {
                    task = (1..n).find_map(|off| deques[(w + off) % n].pop());
                    was_steal = task.is_some();
                }
                match task {
                    Some(i) => {
                        backoff.reset();
                        run(i, was_steal);
                        local_done += 1;
                    }
                    None => {
                        if remaining.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        // Exponential backoff while idle: spin
                        // first, then yield, then sleep in short
                        // naps (there is no unpark signal when a
                        // victim's queue refills, so a bounded nap
                        // is the parking stand-in).
                        if backoff.is_completed() {
                            std::thread::sleep(Duration::from_micros(100));
                        } else {
                            backoff.snooze();
                        }
                    }
                }
            }
        };
        std::thread::scope(|scope| {
            let worker = &worker;
            let spawned: Vec<_> = (1..n).map(|w| scope.spawn(move || worker(w))).collect();
            // Worker panics are absorbed (`scope` re-raises the panic of a
            // thread it joins itself): unit bodies run under catch_unwind,
            // so a worker-level unwind means a scheduler bug — its unsettled
            // units surface as `Lost` failures below rather than aborting
            // the caller.
            let _ = catch_unwind(AssertUnwindSafe(|| worker(0)));
            for handle in spawned {
                let _ = handle.join();
            }
        });

        let out: Vec<Option<R>> = results.into_iter().map(|m| m.into_inner()).collect();
        let mut failures = failures.into_inner();
        // Defensive: a unit neither committed nor quarantined (possible
        // only if a worker died outside catch_unwind) is reported as Lost.
        for (i, r) in out.iter().enumerate() {
            if r.is_none() && !failures.iter().any(|fl| fl.unit == i) {
                failures.push(UnitFailure {
                    unit: i,
                    rule: units[i].rule,
                    attempts: attempts[i].load(Ordering::Relaxed),
                    error: UnitError::Lost,
                });
            }
        }
        failures.sort_by_key(|fl| fl.unit);

        let stats = SchedulerStats {
            workers: n,
            units: total,
            executed: executed.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            stolen: stolen.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            unit_seconds: unit_ns
                .iter()
                .map(|a| a.load(Ordering::Relaxed) as f64 / 1e9)
                .collect(),
            wall_seconds: start.elapsed().as_secs_f64(),
            faults: counters.snapshot(),
        };
        ExecuteOutcome {
            results: out,
            failures,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::work::Partition;

    fn units(n: u32) -> Vec<WorkUnit> {
        (0..n)
            .map(|i| WorkUnit::new(0, vec![Partition::new(0, i * 10, (i + 1) * 10)]))
            .collect()
    }

    #[test]
    fn executes_all_units_in_order() {
        let cluster = Cluster::new(4);
        let out = cluster.execute(units(100), |u| Ok(u.partitions[0].start));
        assert_eq!(out.results.len(), 100);
        assert!(out.is_complete());
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(*r, Some(i as u32 * 10));
        }
        assert_eq!(out.stats.units, 100);
        assert_eq!(out.stats.executed.iter().sum::<u64>(), 100);
        let f = &out.stats.faults;
        assert_eq!(
            (f.retries, f.panics_caught, f.quarantined, f.reassigned),
            (0, 0, 0, 0),
            "no fault handling in a clean run"
        );
    }

    #[test]
    fn single_worker_works() {
        let cluster = Cluster::new(1);
        let out = cluster.execute(units(10), |u| Ok(u.rule));
        assert_eq!(out.results.len(), 10);
        assert_eq!(out.stats.executed, vec![10]);
    }

    #[test]
    fn empty_units_ok() {
        let cluster = Cluster::new(3);
        let out = cluster.execute(Vec::new(), |_| Ok(0u8));
        assert!(out.results.is_empty());
        assert_eq!(out.stats.units, 0);
        assert!(out.is_complete());
    }

    #[test]
    fn stealing_balances_skewed_placement() {
        // Force all units onto one queue by giving them identical
        // partitions, then make work heavy enough that stealing kicks in.
        let cluster = Cluster::new(4);
        let us: Vec<WorkUnit> = (0..64)
            .map(|_| WorkUnit::new(7, vec![Partition::new(0, 0, 10)]))
            .collect();
        let out = cluster.execute(us, |_| {
            // ~200µs of busy work
            let mut acc = 0u64;
            for i in 0..200_000u64 {
                acc = acc.wrapping_add(i).rotate_left(3);
            }
            Ok(acc)
        });
        assert_eq!(out.results.len(), 64);
        let total_stolen: u64 = out.stats.stolen.iter().sum();
        assert!(total_stolen > 0, "expected steals, stats={:?}", out.stats);
        // balance should be far better than everything-on-one-node: the
        // busiest worker runs under 3× the mean of 16 units
        let busiest = out.stats.executed.iter().copied().max().unwrap_or(0);
        assert!(busiest < 48, "busiest worker ran {busiest} units");
    }

    #[test]
    fn modeled_makespan_shrinks_with_workers() {
        // The CI substrate has a single CPU, so wall-clock speedup cannot
        // be observed; the modeled makespan (max per-worker busy time) is
        // what the scaling figures report. With balanced stealing, the
        // makespan of 4 workers must be well under that of 1 worker.
        let work = |_u: &WorkUnit| {
            let mut acc = 0u64;
            for i in 0..200_000u64 {
                acc = acc.wrapping_add(i).rotate_left(1);
            }
            Ok(acc)
        };
        // Durations must be sampled without thread contention (a 1-worker
        // run), then scheduled onto n modeled workers — running 4 threads
        // on 1 CPU inflates per-unit wall durations with preemption time.
        let us = units(64);
        let out = Cluster::new(1).execute(us, work);
        let m1 = makespan_lpt(&out.stats.unit_seconds, 1);
        let m4 = makespan_lpt(&out.stats.unit_seconds, 4);
        assert!(m1 > 0.0 && m4 > 0.0);
        assert!(m4 < m1 / 2.0, "m1={m1} m4={m4}");
    }

    #[test]
    fn lpt_makespan_properties() {
        // 1 bin: sum; many bins: max element dominates.
        let d = [4.0, 3.0, 2.0, 1.0];
        assert!((makespan_lpt(&d, 1) - 10.0).abs() < 1e-12);
        assert!((makespan_lpt(&d, 4) - 4.0).abs() < 1e-12);
        assert!((makespan_lpt(&d, 2) - 5.0).abs() < 1e-12); // {4,1},{3,2}
        assert_eq!(makespan_lpt(&[], 3), 0.0);
        // monotone non-increasing in bins
        let mixed: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let mut prev = f64::INFINITY;
        for bins in 1..=8 {
            let m = makespan_lpt(&mixed, bins);
            assert!(m <= prev + 1e-12);
            prev = m;
        }
    }

    #[test]
    fn injected_panics_and_transients_recover() {
        let plan = FaultPlan::chaos(1234);
        let cluster = Cluster::with_config(4, ClusterConfig::default().with_fault_plan(plan));
        let out = cluster.execute(units(200), |u| Ok(u.partitions[0].start));
        assert!(out.is_complete(), "failures: {:?}", out.failures);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(*r, Some(i as u32 * 10));
        }
        assert!(
            out.stats.faults.panics_caught + out.stats.faults.transient_errors > 0,
            "chaos plan should inject something over 200 units: {:?}",
            out.stats.faults
        );
        // Every failed first attempt is retried, once.
        let f = &out.stats.faults;
        assert_eq!(f.retries, f.panics_caught + f.transient_errors);
        assert_eq!(f.quarantined, 0);
    }

    #[test]
    fn faulted_results_equal_fault_free() {
        let us = units(150);
        let clean = Cluster::new(3).execute(us.clone(), |u| Ok(u.placement_hash()));
        let chaotic = Cluster::with_config(
            3,
            ClusterConfig::default().with_fault_plan(FaultPlan::chaos(77)),
        )
        .execute(us, |u| Ok(u.placement_hash()));
        assert_eq!(clean.results, chaotic.results);
    }

    #[test]
    fn poison_unit_quarantined_after_exact_retries() {
        let plan = FaultPlan::seeded(9).with_poison(vec![5]);
        let cfg = ClusterConfig::default()
            .with_fault_plan(plan)
            .with_max_retries(3);
        let out = Cluster::with_config(2, cfg).execute(units(20), |u| Ok(u.rule));
        assert_eq!(out.failures.len(), 1);
        let fl = &out.failures[0];
        assert_eq!(fl.unit, 5);
        assert_eq!(fl.attempts, 4, "max_retries + 1 total attempts");
        assert!(matches!(fl.error, UnitError::Panic(_)));
        assert!(out.results[5].is_none());
        assert_eq!(out.stats.faults.quarantined, 1);
        assert_eq!(out.stats.faults.retries, 3);
        // every other unit still committed
        assert_eq!(out.results.iter().filter(|r| r.is_some()).count(), 19);
    }

    #[test]
    fn genuine_panic_is_isolated_not_fatal() {
        let cluster = Cluster::with_config(2, ClusterConfig::default().with_max_retries(1));
        let out = cluster.execute(units(10), |u| {
            if u.partitions[0].start == 30 {
                panic!("genuine bug in unit body");
            }
            Ok(u.partitions[0].start)
        });
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].unit, 3);
        assert_eq!(out.failures[0].attempts, 2);
        match &out.failures[0].error {
            UnitError::Panic(m) => assert!(m.contains("genuine bug"), "{m}"),
            other => panic!("expected panic error, got {other:?}"),
        }
        assert_eq!(out.results.iter().filter(|r| r.is_some()).count(), 9);
    }

    #[test]
    fn node_crash_reassigns_remaining_units() {
        // All units hash to the same queue; crash that owner immediately so
        // its whole queue must flow to survivors through the injector.
        let cluster = Cluster::new(4);
        let probe = WorkUnit::new(7, vec![Partition::new(0, 0, 10)]);
        let victim = cluster.owner_of(&probe);
        let us: Vec<WorkUnit> = (0..32)
            .map(|_| WorkUnit::new(7, vec![Partition::new(0, 0, 10)]))
            .collect();
        let cfg =
            ClusterConfig::default().with_fault_plan(FaultPlan::seeded(3).with_crash(victim, 0));
        let cluster = Cluster::with_config(4, cfg);
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
        assert!(
            out.stats.faults.reassigned > 0,
            "dead node's queue must be reassigned: {:?}",
            out.stats.faults
        );
        assert_eq!(out.stats.executed[victim], 0, "victim committed nothing");
        assert_eq!(cluster.alive_workers(), 3);
        // the dead node stays dead: a second round places onto survivors
        let out2 = cluster.execute(units(40), |u| Ok(u.partitions[0].start));
        assert!(out2.is_complete());
        assert_eq!(out2.stats.executed[victim], 0);
    }

    #[test]
    fn crash_skipped_when_no_survivors() {
        let cfg = ClusterConfig::default().with_fault_plan(FaultPlan::seeded(3).with_crash(0, 0));
        let out = Cluster::with_config(1, cfg).execute(units(5), |u| Ok(u.rule));
        assert!(out.is_complete(), "sole worker must not crash");
        assert_eq!(out.stats.faults.node_crashes, 0);
    }
}
