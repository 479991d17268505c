//! Bounded model checking for the Crystal runtime's concurrency protocols.
//!
//! This is a from-scratch, std-only, CHESS-style *stateless* explorer: a
//! protocol is written as a small set of virtual threads, each an explicit
//! step machine over shared state where **one step = one atomic action**
//! (one lock acquisition, one atomic RMW, one guarded critical section).
//! The explorer then enumerates schedules by depth-first search over the
//! scheduler's choice points, re-executing the model from its initial
//! state along each recorded prefix — exactly loom's execution model,
//! minus weak-memory simulation (steps interleave under sequential
//! consistency; the nightly TSan job covers ordering-level races).
//!
//! What the explorer *proves*, per model, within its bounds:
//!
//! * every invariant holds in **every reachable interleaving** (not just
//!   the ones a stress test happens to hit),
//! * every final-state check holds on **every completed schedule**, and
//! * no schedule reaches a state where every unfinished thread is
//!   [`Step::Blocked`] — i.e. no deadlock.
//!
//! Bounds: schedules are explored exhaustively up to a context-switch
//! budget ([`Explorer::preemptions`], CHESS-style — a preemption is
//! switching away from a thread that could still run) and a schedule cap
//! ([`Explorer::max_schedules`]). Both widen via `ROCK_MODEL_PREEMPTIONS` /
//! `ROCK_MODEL_ITERS` (set by the dedicated `models` CI job), mirroring how
//! loom's own CI jobs are configured.
//! With small models (≤4 threads, ≤20 steps) a preemption bound of 2–3
//! empirically covers every bug CHESS-class checkers find.

use std::fmt;

/// Outcome of driving one thread one atomic step forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Performed one atomic action; thread has more work.
    Ready,
    /// Cannot act now (e.g. a modeled mutex is held, a condition not yet
    /// set). The scheduler must run someone else; if *all* unfinished
    /// threads are blocked, the explorer reports a deadlock.
    Blocked,
    /// Thread finished.
    Done,
}

/// One virtual thread: a resumable step function over the shared state.
/// Implementations keep a program counter in captured state and perform
/// exactly one atomic action per call.
pub type ThreadFn<S> = Box<dyn FnMut(&mut S) -> Step>;

/// A property over the shared state: `Ok` or a failure message.
pub type StateCheck<S> = Box<dyn Fn(&S) -> Result<(), String>>;

/// A freshly-built instance of a protocol model: shared state, threads,
/// and the properties to check. Rebuilt from scratch for every schedule
/// (stateless exploration), so construction must be deterministic.
pub struct ModelInstance<S> {
    pub state: S,
    pub threads: Vec<ThreadFn<S>>,
    /// Checked after **every** step of every schedule. Return an error
    /// string to fail the run with a schedule trace.
    pub invariant: StateCheck<S>,
    /// Checked once per schedule, after all threads are `Done`.
    pub finally: StateCheck<S>,
}

impl<S> ModelInstance<S> {
    pub fn new(state: S) -> Self {
        ModelInstance {
            state,
            threads: Vec::new(),
            invariant: Box::new(|_| Ok(())),
            finally: Box::new(|_| Ok(())),
        }
    }

    pub fn thread(mut self, f: impl FnMut(&mut S) -> Step + 'static) -> Self {
        self.threads.push(Box::new(f));
        self
    }

    pub fn invariant(mut self, f: impl Fn(&S) -> Result<(), String> + 'static) -> Self {
        self.invariant = Box::new(f);
        self
    }

    pub fn finally(mut self, f: impl Fn(&S) -> Result<(), String> + 'static) -> Self {
        self.finally = Box::new(f);
        self
    }
}

/// A violation found by [`Explorer::check`], carrying the exact schedule
/// (sequence of thread ids) that reproduces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelViolation {
    pub model: String,
    pub kind: ViolationKind,
    pub message: String,
    /// Thread ids in execution order up to the violation.
    pub schedule: Vec<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Invariant failed mid-schedule.
    Invariant,
    /// Final-state check failed on a completed schedule.
    Final,
    /// Every unfinished thread reported [`Step::Blocked`].
    Deadlock,
    /// A thread ran more steps than [`Explorer::max_steps`] allows
    /// (livelock / unbounded loop in the model).
    StepOverflow,
}

impl fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model {}: {:?}: {} (schedule: {:?})",
            self.model, self.kind, self.message, self.schedule
        )
    }
}

/// Summary of one exhausted (or capped) exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    pub model: String,
    pub schedules: u64,
    pub steps: u64,
    /// True when DFS finished inside the schedule cap — every
    /// interleaving within the preemption bound was visited.
    pub exhausted: bool,
}

/// Depth-first schedule enumerator with a CHESS-style preemption bound.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Max context switches away from a still-runnable thread per
    /// schedule. Switches forced by a block/finish are free.
    pub preemptions: usize,
    /// Hard cap on schedules per model (DFS stops there, `exhausted =
    /// false`).
    pub max_schedules: u64,
    /// Per-schedule total step cap — exceeded means a livelock.
    pub max_steps: usize,
}

/// Bounds for plain test runs; the environment widens them, like loom's
/// `LOOM_MAX_PREEMPTIONS` profiles.
const DEFAULTS: Explorer = Explorer {
    preemptions: 2,
    max_schedules: 20_000,
    max_steps: 4_096,
};

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok()?.trim().parse().ok()
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer::from_env()
    }
}

impl Explorer {
    /// The plain-test defaults (2 preemptions, 20k schedules), then
    /// `ROCK_MODEL_PREEMPTIONS` / `ROCK_MODEL_ITERS` overrides.
    pub fn from_env() -> Self {
        let mut e = DEFAULTS;
        if let Some(p) = env_usize("ROCK_MODEL_PREEMPTIONS") {
            e.preemptions = p;
        }
        if let Some(i) = env_usize("ROCK_MODEL_ITERS") {
            e.max_schedules = i as u64;
        }
        e
    }

    /// Explore every interleaving of `build()`'s threads within the
    /// bounds. Returns the exploration summary, or the first violation
    /// with its reproducing schedule.
    pub fn check<S, F>(&self, model: &str, build: F) -> Result<Exploration, ModelViolation>
    where
        F: Fn() -> ModelInstance<S>,
    {
        // The DFS frontier: each entry is a schedule prefix (thread
        // choices) to replay, then extend greedily.
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        let mut schedules = 0u64;
        let mut total_steps = 0u64;
        let mut exhausted = true;

        while let Some(prefix) = stack.pop() {
            if schedules >= self.max_schedules {
                exhausted = false;
                break;
            }
            schedules += 1;
            let steps = self.run_one(model, &build, &prefix, &mut stack)?;
            total_steps += steps;
        }

        Ok(Exploration {
            model: model.to_string(),
            schedules,
            steps: total_steps,
            exhausted,
        })
    }

    /// Run one schedule: follow `prefix`, then schedule greedily
    /// (keep running the current thread while it can run — non-preemptive
    /// choices are free), pushing every unexplored alternative branch
    /// point onto `stack`.
    fn run_one<S, F>(
        &self,
        model: &str,
        build: &F,
        prefix: &[usize],
        stack: &mut Vec<Vec<usize>>,
    ) -> Result<u64, ModelViolation>
    where
        F: Fn() -> ModelInstance<S>,
    {
        let mut inst = build();
        let n = inst.threads.len();
        let mut done = vec![false; n];
        // Threads observed Blocked since the last state change; cleared
        // whenever any thread makes progress.
        let mut blocked = vec![false; n];
        let mut trace: Vec<usize> = Vec::new();
        let mut preemptions_used = 0usize;
        let mut last: Option<usize> = None;
        let mut steps = 0u64;

        let fail = |kind, msg: String, trace: &[usize]| ModelViolation {
            model: model.to_string(),
            kind,
            message: msg,
            schedule: trace.to_vec(),
        };

        loop {
            if done.iter().all(|&d| d) {
                (inst.finally)(&inst.state).map_err(|m| fail(ViolationKind::Final, m, &trace))?;
                return Ok(steps);
            }
            let runnable: Vec<usize> = (0..n).filter(|&t| !done[t] && !blocked[t]).collect();
            if runnable.is_empty() {
                let stuck: Vec<usize> = (0..n).filter(|&t| !done[t]).collect();
                return Err(fail(
                    ViolationKind::Deadlock,
                    format!("threads {stuck:?} all blocked"),
                    &trace,
                ));
            }

            // Choose who runs: replay the prefix first, then greedy.
            let pos = trace.len();
            let choice = if pos < prefix.len() {
                // A replayed choice might name a thread that is blocked or
                // done at this point only if the model is nondeterministic
                // — treat as a hard error to catch bad models.
                let c = prefix[pos];
                if done[c] || blocked[c] {
                    return Err(fail(
                        ViolationKind::Invariant,
                        format!(
                            "schedule replay diverged: thread {c} not runnable \
                             (model construction must be deterministic)"
                        ),
                        &trace,
                    ));
                }
                c
            } else {
                // Greedy default: stay on `last` if runnable (free), else
                // lowest-id runnable (forced switch, also free).
                let default = match last {
                    Some(l) if runnable.contains(&l) => l,
                    _ => runnable[0],
                };
                // Branch: every *other* runnable thread is an alternative
                // — a preemption if `last` could have kept running.
                for &alt in &runnable {
                    if alt == default {
                        continue;
                    }
                    let is_preemption =
                        matches!(last, Some(l) if runnable.contains(&l) && alt != l);
                    if is_preemption && preemptions_used >= self.preemptions {
                        continue;
                    }
                    let mut p = trace.clone();
                    p.push(alt);
                    stack.push(p);
                }
                default
            };

            if matches!(last, Some(l) if l != choice && runnable.contains(&l)) {
                preemptions_used += 1;
            }

            let step = (inst.threads[choice])(&mut inst.state);
            steps += 1;
            trace.push(choice);
            if steps as usize > self.max_steps {
                return Err(fail(
                    ViolationKind::StepOverflow,
                    format!("schedule exceeded {} steps", self.max_steps),
                    &trace,
                ));
            }
            match step {
                Step::Done => {
                    done[choice] = true;
                    blocked.iter_mut().for_each(|b| *b = false);
                    last = None;
                }
                Step::Ready => {
                    // Progress may have unblocked others.
                    blocked.iter_mut().for_each(|b| *b = false);
                    last = Some(choice);
                }
                Step::Blocked => {
                    blocked[choice] = true;
                    last = None;
                }
            }
            (inst.invariant)(&inst.state).map_err(|m| fail(ViolationKind::Invariant, m, &trace))?;
        }
    }
}

/// Convenience wrapper used by the protocol test suite: check with the
/// environment-configured bounds and panic with the reproducing schedule
/// on violation.
pub fn check<S, F>(model: &str, build: F) -> Exploration
where
    F: Fn() -> ModelInstance<S>,
{
    match Explorer::from_env().check(model, build) {
        Ok(ex) => ex,
        Err(v) => panic!("{v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads increment a "counter" with a modeled non-atomic
    /// read-modify-write. The explorer must find the lost update.
    #[test]
    fn finds_lost_update() {
        #[derive(Default)]
        struct S {
            counter: u32,
            tmp: [u32; 2],
        }
        let incrementer = |id: usize| {
            let mut pc = 0;
            move |s: &mut S| match pc {
                0 => {
                    s.tmp[id] = s.counter; // read
                    pc = 1;
                    Step::Ready
                }
                _ => {
                    s.counter = s.tmp[id] + 1; // write
                    Step::Done
                }
            }
        };
        let err = Explorer {
            preemptions: 2,
            max_schedules: 10_000,
            max_steps: 64,
        }
        .check("lost-update", || {
            ModelInstance::new(S::default())
                .thread(incrementer(0))
                .thread(incrementer(1))
                .finally(|s| {
                    if s.counter == 2 {
                        Ok(())
                    } else {
                        Err(format!("lost update: counter = {}", s.counter))
                    }
                })
        })
        .unwrap_err();
        assert_eq!(err.kind, ViolationKind::Final);
        assert!(err.message.contains("lost update"));
    }

    /// The same protocol with a modeled atomic fetch_add has no bug.
    #[test]
    fn atomic_counter_is_clean() {
        let ex = Explorer {
            preemptions: 3,
            max_schedules: 10_000,
            max_steps: 64,
        }
        .check("atomic-counter", || {
            ModelInstance::new(0u32)
                .thread(|s: &mut u32| {
                    *s += 1;
                    Step::Done
                })
                .thread(|s: &mut u32| {
                    *s += 1;
                    Step::Done
                })
                .finally(|s| {
                    if *s == 2 {
                        Ok(())
                    } else {
                        Err(format!("counter = {s}"))
                    }
                })
        })
        .unwrap_or_else(|v| panic!("{v}"));
        assert!(ex.exhausted);
        assert!(ex.schedules >= 2, "must explore both orders");
    }

    /// Classic AB/BA double-lock: the explorer must report Deadlock.
    #[test]
    fn finds_ab_ba_deadlock() {
        #[derive(Default)]
        struct S {
            a: bool, // mutex A held?
            b: bool, // mutex B held?
        }
        /// Projects one mutex's held flag out of the state.
        type Lock = fn(&mut S) -> &mut bool;
        fn locker(first_a: bool) -> impl FnMut(&mut S) -> Step {
            let mut pc = 0;
            move |s: &mut S| {
                let (first, second): (Lock, Lock) = if first_a {
                    (|s| &mut s.a, |s| &mut s.b)
                } else {
                    (|s| &mut s.b, |s| &mut s.a)
                };
                match pc {
                    0 => {
                        if *first(s) {
                            return Step::Blocked;
                        }
                        *first(s) = true;
                        pc = 1;
                        Step::Ready
                    }
                    1 => {
                        if *second(s) {
                            return Step::Blocked;
                        }
                        *second(s) = true;
                        pc = 2;
                        Step::Ready
                    }
                    _ => {
                        *second(s) = false;
                        *first(s) = false;
                        Step::Done
                    }
                }
            }
        }
        let err = Explorer {
            preemptions: 2,
            max_schedules: 10_000,
            max_steps: 64,
        }
        .check("ab-ba", || {
            ModelInstance::new(S::default())
                .thread(locker(true))
                .thread(locker(false))
        })
        .unwrap_err();
        assert_eq!(err.kind, ViolationKind::Deadlock);
    }

    /// Rank-ordered locking of the same two mutexes passes exhaustively.
    #[test]
    fn ranked_locking_has_no_deadlock() {
        #[derive(Default)]
        struct S {
            a: bool,
            b: bool,
        }
        fn ordered() -> impl FnMut(&mut S) -> Step {
            let mut pc = 0;
            move |s: &mut S| match pc {
                0 => {
                    if s.a {
                        return Step::Blocked;
                    }
                    s.a = true;
                    pc = 1;
                    Step::Ready
                }
                1 => {
                    if s.b {
                        return Step::Blocked;
                    }
                    s.b = true;
                    pc = 2;
                    Step::Ready
                }
                _ => {
                    s.b = false;
                    s.a = false;
                    Step::Done
                }
            }
        }
        let ex = Explorer {
            preemptions: 3,
            max_schedules: 50_000,
            max_steps: 128,
        }
        .check("ranked", || {
            ModelInstance::new(S::default())
                .thread(ordered())
                .thread(ordered())
        })
        .unwrap_or_else(|v| panic!("{v}"));
        assert!(ex.exhausted);
    }

    #[test]
    fn step_overflow_reports_livelock() {
        let err = Explorer {
            preemptions: 0,
            max_schedules: 4,
            max_steps: 16,
        }
        .check("spin", || {
            ModelInstance::new(()).thread(|_: &mut ()| Step::Ready)
        })
        .unwrap_err();
        assert_eq!(err.kind, ViolationKind::StepOverflow);
    }

    #[test]
    fn env_overrides_parse() {
        let e = Explorer::from_env();
        assert!(e.preemptions >= 1);
        assert!(e.max_schedules >= 1);
    }
}
