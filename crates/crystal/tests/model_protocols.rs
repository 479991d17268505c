//! Bounded model-checking certificates for the concurrency protocols
//! the Crystal runtime (and its dependents) stake correctness on. Each
//! test builds a small step-machine model of the protocol — one step per
//! atomic action, exactly as implemented — and lets
//! [`rock_crystal::model`] explore **every** interleaving within the
//! configured preemption bound, checking the protocol's invariant after
//! every step and its final-state contract on every completed schedule.
//!
//! These run in the regular test suite with the narrow default bounds and
//! in the dedicated `models` CI job with the bounds widened through
//! `ROCK_MODEL_PREEMPTIONS` / `ROCK_MODEL_ITERS`.
//!
//! | model | protocol under certificate |
//! |-------|----------------------------|
//! | `steal-crash-drain`       | scheduler queues: owner pops its own queue, a planned crash drains the rest into the shared queue at a unit boundary and clears `alive`, thieves pop the victim's and the shared queue — every unit runs exactly once, none is lost, the dead node runs nothing after its flag clears |
//! | `column-cache-version`    | `ColumnCache` version keying and copy-on-write patches: a version-matched snapshot never serves stale data, and a snapshot shared with a reader or a clone never changes under it (uniqueness check load-bearing); two readers race to rebuild beside a cloner and a writer |
//! | `column-cache-version-writers` | the same certificate with one reader, a cloner and two writers: a patched copy is patched again |
//! | `sharded-memo`            | 16-shard (modeled: 2) registry memo: hit and miss paths agree with the oracle under shard races |

use rock_crystal::model::{check, ModelInstance, Step};
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

/// The scheduler's queues (scheduler.rs `Cluster::execute`): worker `w`
/// owns one FIFO of unit indices and a shared queue takes a crashed node's
/// backlog. Each pop and each push is one lock acquisition (one step).
#[derive(Default)]
struct QueueState {
    queues: Vec<VecDeque<usize>>,
    shared: VecDeque<usize>,
    alive: Vec<bool>,
    crash_fired: bool,
    /// Units not yet run (`remaining` in the implementation).
    remaining: usize,
    /// Body runs per unit.
    runs: Vec<u32>,
    /// Set when a worker runs a unit after its own `alive` flag cleared.
    dead_ran: bool,
    /// Bumped by every push and every completion: an idle worker whose
    /// scan began at the current value would find the queues exactly as it
    /// left them, so its nap-and-rescan is modeled as blocking until the
    /// value moves.
    epoch: u64,
}

impl QueueState {
    /// `queues[w]` holds the units initially placed on worker `w`.
    fn new(queues: Vec<Vec<usize>>) -> Self {
        let units = queues.iter().map(Vec::len).sum();
        QueueState {
            alive: vec![true; queues.len()],
            queues: queues.into_iter().map(VecDeque::from).collect(),
            remaining: units,
            runs: vec![0; units],
            ..QueueState::default()
        }
    }
}

/// One worker's loop, one step per queue operation: at a unit boundary,
/// honor the planned crash (`crash_after` units done) by draining the own
/// queue into the shared one and clearing `alive`; otherwise pop the own
/// queue, then the shared queue, then steal from the others in order; run
/// a popped unit (all of its attempts) and count it done; when everything
/// is empty, exit once `remaining` is 0.
fn queue_worker(w: usize, crash_after: Option<u32>) -> impl FnMut(&mut QueueState) -> Step {
    #[derive(Clone, Copy)]
    enum Pc {
        Top,
        Shared,
        Steal(usize),
        Run(usize),
        Idle,
        Drain,
        DrainPush(usize),
        Dead,
    }
    let mut pc = Pc::Top;
    let mut done = 0u32;
    let mut scan_epoch = 0u64;
    move |s: &mut QueueState| {
        let n = s.queues.len();
        match pc {
            Pc::Top => {
                // crash_fired.swap: one planned crash, only with survivors
                if crash_after.is_some_and(|c| done >= c) && n > 1 && !s.crash_fired {
                    s.crash_fired = true;
                    pc = Pc::Drain;
                    return Step::Ready;
                }
                scan_epoch = s.epoch;
                pc = match s.queues[w].pop_front() {
                    Some(u) => Pc::Run(u),
                    None => Pc::Shared,
                };
            }
            Pc::Shared => {
                pc = match s.shared.pop_front() {
                    Some(u) => Pc::Run(u),
                    None if n > 1 => Pc::Steal(1),
                    None => Pc::Idle,
                };
            }
            Pc::Steal(off) => {
                pc = match s.queues[(w + off) % n].pop_front() {
                    Some(u) => Pc::Run(u),
                    None if off + 1 < n => Pc::Steal(off + 1),
                    None => Pc::Idle,
                };
            }
            Pc::Run(u) => {
                // the body, its retries, the result-slot write and
                // remaining.fetch_sub, all by the worker that popped `u`
                s.runs[u] += 1;
                s.dead_ran |= !s.alive[w];
                s.remaining -= 1;
                s.epoch += 1;
                done += 1;
                pc = Pc::Top;
            }
            Pc::Idle => {
                if s.remaining == 0 {
                    return Step::Done;
                }
                if s.epoch == scan_epoch {
                    return Step::Blocked;
                }
                pc = Pc::Top;
            }
            Pc::Drain => {
                pc = match s.queues[w].pop_front() {
                    Some(u) => Pc::DrainPush(u),
                    None => Pc::Dead,
                };
            }
            Pc::DrainPush(u) => {
                s.shared.push_back(u);
                s.epoch += 1;
                pc = Pc::Drain;
            }
            Pc::Dead => {
                // alive[w].store(false, Release), then the worker returns
                s.alive[w] = false;
                return Step::Done;
            }
        }
        Step::Ready
    }
}

/// Work stealing with a crash drain (scheduler.rs): each unit index sits
/// in exactly one queue, once, and the worker that pops it runs it. Worker
/// 0 owns three units and crashes after finishing one of them, draining
/// the rest into the shared queue at that unit boundary; worker 1 owns one
/// unit and steals from worker 0's queue and the shared queue; worker 2
/// owns nothing and only steals. Certificate: every unit runs exactly once
/// (none runs twice and none is lost — a lost unit also surfaces as a
/// deadlock of the idle workers), and the crashed node runs nothing after
/// its `alive` flag clears.
#[test]
fn steal_and_crash_drain_run_each_unit_once() {
    let crashed = Rc::new(Cell::new(0u64));
    let seen = Rc::clone(&crashed);
    let ex = check("steal-crash-drain", move || {
        let seen = Rc::clone(&seen);
        ModelInstance::new(QueueState::new(vec![vec![0, 1, 2], vec![3], vec![]]))
            .thread(queue_worker(0, Some(1)))
            .thread(queue_worker(1, None))
            .thread(queue_worker(2, None))
            .invariant(|s| {
                if let Some(u) = s.runs.iter().position(|&r| r > 1) {
                    return Err(format!("unit {u} ran {} times", s.runs[u]));
                }
                if s.dead_ran {
                    return Err("a crashed node ran a unit".to_owned());
                }
                Ok(())
            })
            .finally(move |s| {
                if let Some(u) = s.runs.iter().position(|&r| r != 1) {
                    return Err(format!("unit {u} ran {} times", s.runs[u]));
                }
                let queued = s.shared.len() + s.queues.iter().map(VecDeque::len).sum::<usize>();
                if s.remaining != 0 || queued != 0 {
                    return Err("work left behind".to_owned());
                }
                if s.crash_fired == s.alive[0] {
                    return Err("crash latch and alive flag disagree".to_owned());
                }
                seen.set(seen.get() + u64::from(s.crash_fired));
                Ok(())
            })
    });
    assert!(ex.exhausted, "exploration must be exhaustive within bounds");
    assert!(
        crashed.get() > 0 && crashed.get() < ex.schedules,
        "schedules must cover both a crash and thieves emptying the queue first"
    );
}

/// Shared scaffolding for the two `ColumnCache` models: an explicit heap
/// of `Arc<ColumnSet>` allocations so in-place mutation of a snapshot a
/// caller or a clone still holds is observable.
#[derive(Default)]
struct CacheState {
    /// Outstanding `&Relation` shared borrows — `patch` runs under
    /// `&mut Relation`, so it blocks while any reader is inside.
    borrows: u32,
    version: u64,
    truth: u64,
    /// Arc allocations (ColumnSet payloads), addressed by index.
    heap: Vec<u64>,
    /// The cache slot: (keyed version, heap index).
    snapshot: Option<(u64, usize)>,
    /// Arcs held outside the cache slot — by callers, and by the cache of
    /// a cloned relation: (heap index, value observed when taken). Entries
    /// outlive the borrow — callers keep the Arc after returning.
    holds: Vec<(usize, u64)>,
}

impl CacheState {
    fn arc_is_unique(&self, idx: usize) -> bool {
        !self.holds.iter().any(|(i, _)| *i == idx)
    }

    /// `ColumnCache::patch` under `&mut Relation`: mutate the row, then
    /// patch a version-fresh snapshot — in place when the cache holds the
    /// only Arc (`Arc::make_mut`), else on a copy installed under the same
    /// version — or invalidate a stale or absent one.
    /// `check_unique: false` is the broken protocol of the negative control.
    fn patch(&mut self, check_unique: bool) {
        self.truth += 1;
        match self.snapshot {
            Some((ver, idx)) if ver == self.version => {
                if !check_unique || self.arc_is_unique(idx) {
                    self.heap[idx] = self.truth;
                } else {
                    self.heap.push(self.truth);
                    self.snapshot = Some((ver, self.heap.len() - 1));
                }
            }
            _ => {
                self.version += 1;
                self.snapshot = None;
            }
        }
    }
}

/// A writer thread: one patch under `&mut Relation` (blocked while any
/// shared borrow is out).
fn cache_writer(check_unique: bool) -> impl FnMut(&mut CacheState) -> Step {
    move |s: &mut CacheState| {
        if s.borrows > 0 {
            return Step::Blocked; // &mut Relation excludes readers
        }
        s.patch(check_unique);
        Step::Done
    }
}

/// `Relation::clone` under a shared borrow: the clone's cache shares a
/// version-fresh snapshot (one more Arc). Then the clone, owned by this
/// thread, writes its own row: its cache patches in place only when no
/// one else holds the allocation, on a copy otherwise. The original's
/// snapshot must never see the clone's write.
fn cache_cloner() -> impl FnMut(&mut CacheState) -> Step {
    let mut pc = 0;
    let mut shared: Option<(usize, u64)> = None;
    move |s: &mut CacheState| match pc {
        0 => {
            s.borrows += 1;
            pc = 1;
            Step::Ready
        }
        1 => {
            // ColumnCache::clone: read lock, share the fresh snapshot
            if let Some((ver, idx)) = s.snapshot {
                if ver == s.version {
                    shared = Some((idx, s.heap[idx]));
                    s.holds.push((idx, s.heap[idx]));
                }
            }
            s.borrows -= 1;
            pc = 2;
            Step::Ready
        }
        _ => {
            // the clone's own patch, then the clone is dropped
            if let Some(entry) = shared.take() {
                if let Some(pos) = s.holds.iter().position(|e| *e == entry) {
                    s.holds.remove(pos);
                }
                let (idx, seen) = entry;
                let in_cache = s.snapshot.is_some_and(|(_, i)| i == idx);
                if s.arc_is_unique(idx) && !in_cache {
                    s.heap[idx] = seen + 1;
                } else {
                    s.heap.push(seen + 1);
                }
            }
            Step::Done
        }
    }
}

fn cache_reader() -> impl FnMut(&mut CacheState) -> Step {
    let mut pc = 0;
    let mut v = 0u64;
    let mut held: Option<(usize, u64)> = None;
    move |s: &mut CacheState| match pc {
        0 => {
            // enter get_or_build: take the shared borrow, Acquire-load
            // the version (nothing bumps it while the borrow is out)
            s.borrows += 1;
            v = s.version;
            pc = 1;
            Step::Ready
        }
        1 => {
            // read lock: serve on version match, cloning the Arc out
            if let Some((ver, idx)) = s.snapshot {
                if ver == v {
                    held = Some((idx, s.heap[idx]));
                    s.holds.push((idx, s.heap[idx]));
                    pc = 3;
                    return Step::Ready;
                }
            }
            pc = 2;
            Step::Ready
        }
        2 => {
            // miss: build a private allocation from the rows, then take
            // the write lock and install last-write-wins, keyed by v;
            // the caller keeps its own clone of the installed Arc
            let idx = s.heap.len();
            s.heap.push(s.truth);
            s.snapshot = Some((v, idx));
            held = Some((idx, s.heap[idx]));
            s.holds.push((idx, s.heap[idx]));
            pc = 3;
            Step::Ready
        }
        3 => {
            // return: release the borrow, Arc clone still held
            s.borrows -= 1;
            pc = 4;
            Step::Ready
        }
        _ => {
            // caller eventually drops its clone
            if let Some(entry) = held.take() {
                if let Some(pos) = s.holds.iter().position(|e| *e == entry) {
                    s.holds.remove(pos);
                }
            }
            Step::Done
        }
    }
}

/// The `ColumnCache` certificate: a snapshot matching the current version
/// always equals the current data, and an Arc a caller or a clone holds
/// never mutates under it — the clone's own writes included.
fn column_cache_certified(m: ModelInstance<CacheState>) -> ModelInstance<CacheState> {
    m.invariant(|s| {
        if let Some((ver, idx)) = s.snapshot {
            if ver == s.version && s.heap[idx] != s.truth {
                return Err(format!(
                    "version-matched snapshot is stale: holds {}, truth {}",
                    s.heap[idx], s.truth
                ));
            }
        }
        for (idx, seen) in &s.holds {
            if s.heap[*idx] != *seen {
                return Err(format!(
                    "shared snapshot mutated under its holder: saw {seen}, now {}",
                    s.heap[*idx]
                ));
            }
        }
        Ok(())
    })
    .finally(|s| {
        if s.borrows != 0 || !s.holds.is_empty() {
            return Err("borrow or Arc clone leaked".to_owned());
        }
        Ok(())
    })
}

/// `ColumnCache` (rock-data column.rs): readers race to rebuild a
/// version-keyed snapshot under a shared borrow and install it
/// last-write-wins; a clone of the relation shares the snapshot; `patch`
/// runs under `&mut Relation` (modeled: blocks until no borrows are out)
/// and patches a version-fresh snapshot in place only when it is uniquely
/// owned (`Arc::make_mut`), installing a patched copy under the same
/// version otherwise, and invalidates a stale one. Five threads exceed the
/// explorer's bounds, so two instances share the certificate: two racing
/// readers, a cloner and a writer (the slot holds one rebuilt Arc while
/// the other reader and the clone hold others), and a reader, a cloner and
/// two writers (a patched copy is itself patched). The companion test
/// below shows the uniqueness check is load-bearing.
#[test]
fn column_cache_version_protocol() {
    let racing_readers = check("column-cache-version", || {
        column_cache_certified(
            ModelInstance::new(CacheState::default())
                .thread(cache_reader())
                .thread(cache_reader())
                .thread(cache_cloner())
                .thread(cache_writer(true)),
        )
    });
    assert!(racing_readers.exhausted);
    assert!(
        racing_readers.schedules >= 3,
        "reader/reader/cloner/writer races must interleave"
    );
    let racing_writers = check("column-cache-version-writers", || {
        column_cache_certified(
            ModelInstance::new(CacheState::default())
                .thread(cache_reader())
                .thread(cache_cloner())
                .thread(cache_writer(true))
                .thread(cache_writer(true)),
        )
    });
    assert!(racing_writers.exhausted);
    assert!(
        racing_writers.schedules >= 3,
        "reader/cloner/writer/writer races must interleave"
    );
}

/// Registry memo (rock-ml registry.rs): predictions are memoized in
/// sharded maps. Two threads race the same key (same shard) while a third
/// works an independent shard. Certificate: whether a thread takes the hit
/// path or the miss path, it returns the oracle value, and shards only
/// ever hold oracle entries (adopt-on-race, never overwrite).
#[test]
fn sharded_memo_hit_and_miss_agree() {
    const fn oracle(k: u64) -> u64 {
        k * 10 + 7
    }
    #[derive(Default)]
    struct S {
        shards: [Option<(u64, u64)>; 2],
        results: Vec<(u64, u64)>,
    }
    let prober = |key: u64| {
        let mut pc = 0;
        let mut computed = 0u64;
        move |s: &mut S| {
            let shard = (key % 2) as usize;
            match pc {
                0 => {
                    // locked shard probe
                    if let Some((k, v)) = s.shards[shard] {
                        if k == key {
                            s.results.push((key, v)); // hit path
                            return Step::Done;
                        }
                    }
                    pc = 1;
                    Step::Ready
                }
                1 => {
                    computed = oracle(key); // model evaluation, off-lock
                    pc = 2;
                    Step::Ready
                }
                _ => {
                    // locked insert: adopt a racing winner's entry
                    match s.shards[shard] {
                        Some((k, v)) if k == key => s.results.push((key, v)),
                        _ => {
                            s.shards[shard] = Some((key, computed));
                            s.results.push((key, computed));
                        }
                    }
                    Step::Done
                }
            }
        }
    };
    let ex = check("sharded-memo", || {
        ModelInstance::new(S::default())
            .thread(prober(0))
            .thread(prober(0)) // same key: races the same shard
            .thread(prober(1)) // independent shard
            .invariant(|s| {
                for entry in s.shards.iter().flatten() {
                    let (k, v) = *entry;
                    if v != oracle(k) {
                        return Err(format!("shard holds ({k}, {v}), oracle {}", oracle(k)));
                    }
                }
                Ok(())
            })
            .finally(|s| {
                if s.results.len() != 3 {
                    return Err(format!("{} results, expected 3", s.results.len()));
                }
                for (k, v) in &s.results {
                    if *v != oracle(*k) {
                        return Err(format!("probe({k}) returned {v}, oracle {}", oracle(*k)));
                    }
                }
                Ok(())
            })
    });
    assert!(ex.exhausted);
}

/// Negative control: break the column-cache protocol by removing the
/// `Arc::make_mut` uniqueness check — patch a version-fresh snapshot in
/// place even while a caller still holds a clone of it. The explorer must
/// find the interleaving where the caller's supposedly-immutable snapshot
/// mutates under it. This pins the explorer's power — if this test ever
/// passes silently, the models above prove nothing.
#[test]
fn column_cache_without_uniqueness_check_fails() {
    let result = rock_crystal::model::Explorer::from_env().check("column-cache-broken", || {
        ModelInstance::new(CacheState::default())
            .thread(cache_reader())
            .thread(cache_writer(false))
            .invariant(|s| {
                for (idx, seen) in &s.holds {
                    if s.heap[*idx] != *seen {
                        return Err(format!(
                            "served snapshot mutated under the caller: saw {seen}, now {}",
                            s.heap[*idx]
                        ));
                    }
                }
                Ok(())
            })
    });
    let violation = result.expect_err("the broken protocol must be caught");
    assert_eq!(
        violation.kind,
        rock_crystal::model::ViolationKind::Invariant,
        "expected the mutated-under-caller invariant to fire: {violation}"
    );
}
