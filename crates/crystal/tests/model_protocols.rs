//! Bounded model-checking certificates for the four concurrency protocols
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
//! | `steal-quarantine-alive`  | scheduler work-stealing + crash quarantine + alive-bitmap handshake: first `settled` swap wins, unit commits exactly once |
//! | `speculative-first-writer`| speculative chase commit: two executors, one cell — first writer wins, no torn or double commit |
//! | `column-cache-version`    | `ColumnCache` version keying and copy-on-write patches: a version-matched snapshot never serves stale data, and a snapshot shared with a reader or a clone never changes under it (uniqueness check load-bearing); two readers race to rebuild beside a cloner and a writer |
//! | `column-cache-version-writers` | the same certificate with one reader, a cloner and two writers: a patched copy is patched again |
//! | `sharded-memo`            | 16-shard (modeled: 2) registry memo: hit and miss paths agree with the oracle under shard races |

use rock_crystal::model::{check, ModelInstance, Step};

/// Scheduler handshake (scheduler.rs): a worker publishes liveness via the
/// alive bitmap; the failure detector quarantines units of workers it
/// suspects dead and resubmits them. Both the original execution and the
/// resubmission race to commit through one `settled` swap (AcqRel in the
/// implementation). Certificate: the unit commits exactly once in every
/// interleaving — no double execution, no lost unit.
#[test]
fn steal_quarantine_alive_handshake() {
    #[derive(Default)]
    struct S {
        alive: bool,
        settled: bool,
        commits: u32,
        result: Option<u64>,
    }
    let ex = check("steal-quarantine-alive", || {
        ModelInstance::new(S::default())
            .thread({
                // worker: heartbeat, execute, then settle-or-lose
                let mut pc = 0;
                let mut computed = 0u64;
                move |s: &mut S| match pc {
                    0 => {
                        s.alive = true; // Release store in the implementation
                        pc = 1;
                        Step::Ready
                    }
                    1 => {
                        computed = 42; // run the unit (no shared state)
                        pc = 2;
                        Step::Ready
                    }
                    _ => {
                        // settled.swap(true, AcqRel): first swapper commits
                        if !s.settled {
                            s.settled = true;
                            s.commits += 1;
                            s.result = Some(computed);
                        }
                        Step::Done
                    }
                }
            })
            .thread({
                // failure detector: suspect, quarantine, resubmit elsewhere
                let mut pc = 0;
                let mut suspected = false;
                move |s: &mut S| match pc {
                    0 => {
                        // Acquire load of the alive bit: a worker observed
                        // alive is left alone
                        suspected = !s.alive;
                        pc = 1;
                        Step::Ready
                    }
                    _ => {
                        if suspected && !s.settled {
                            // resubmitted unit executed on another node,
                            // committing through the same settled swap
                            s.settled = true;
                            s.commits += 1;
                            s.result = Some(42);
                        }
                        Step::Done
                    }
                }
            })
            .invariant(|s| {
                if s.commits <= 1 {
                    Ok(())
                } else {
                    Err(format!("unit committed {} times", s.commits))
                }
            })
            .finally(|s| match (s.commits, s.result) {
                (1, Some(42)) => Ok(()),
                (c, r) => Err(format!("unit lost or torn: commits={c} result={r:?}")),
            })
    });
    assert!(ex.exhausted, "exploration must be exhaustive within bounds");
}

/// Speculative chase commit: two speculative executors compute a repair
/// for the same cell and race to commit. The commit is a single swap on a
/// claim word (first-writer-wins); the loser discards its result.
/// Certificate: exactly one commit, and the committed value is the
/// winner's own — never a torn mix.
#[test]
fn speculative_first_writer_wins() {
    #[derive(Default)]
    struct S {
        claimed_by: Option<usize>,
        cell: Option<(usize, u64)>,
        commits: u32,
    }
    let speculator = |id: usize| {
        let mut pc = 0;
        let mut value = 0u64;
        move |s: &mut S| match pc {
            0 => {
                value = 10 + id as u64; // speculative evaluation, private
                pc = 1;
                Step::Ready
            }
            _ => {
                // claim.swap: first writer installs value and id together
                if s.claimed_by.is_none() {
                    s.claimed_by = Some(id);
                    s.cell = Some((id, value));
                    s.commits += 1;
                }
                Step::Done
            }
        }
    };
    let ex = check("speculative-first-writer", || {
        ModelInstance::new(S::default())
            .thread(speculator(0))
            .thread(speculator(1))
            .invariant(|s| {
                if s.commits > 1 {
                    return Err("double commit".to_owned());
                }
                match (s.claimed_by, s.cell) {
                    (Some(w), Some((id, v))) if id != w || v != 10 + w as u64 => {
                        Err(format!("torn commit: winner {w}, cell ({id}, {v})"))
                    }
                    (None, Some(_)) => Err("cell written without a claim".to_owned()),
                    _ => Ok(()),
                }
            })
            .finally(|s| {
                if s.commits == 1 {
                    Ok(())
                } else {
                    Err(format!("{} commits", s.commits))
                }
            })
    });
    assert!(ex.exhausted);
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
