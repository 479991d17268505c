//! Concurrency shim: every lock and atomic in the workspace goes through
//! this module.
//!
//! Three jobs, one choke point:
//!
//! 1. **One import site.** The atomic types, [`Arc`], [`Once`]/[`OnceLock`]
//!    and the [`Backoff`] spin helper are re-exported (or defined) here, so
//!    a concurrency primitive in use anywhere in the workspace is one
//!    `grep` away. The backend is `std::sync`, and only that; bounded
//!    interleaving exploration is the job of the in-tree explorer in
//!    [`crate::model`] (`--cfg rock_model` widens its bounds).
//! 2. **Static lock ranks.** [`RankedMutex`]/[`RankedRwLock`] carry a
//!    [`LockRank`] from a single workspace-wide total order. Debug builds
//!    keep a thread-local stack of held ranks and panic the moment any
//!    thread acquires a lock whose rank is not strictly above everything
//!    it already holds — turning a potential deadlock into a deterministic
//!    unit-test failure. Release builds compile the check away.
//! 3. **No poisoning.** `std::sync` locks poison when a holder panics; the
//!    ranked wrappers recover the guard (`PoisonError::into_inner`) on
//!    every acquisition, so a quarantined worker that dies
//!    mid-critical-section (see `fault::ClusterConfig`) leaves the lock
//!    usable for survivors and no call site carries poison plumbing. That
//!    is sound here because every guarded structure is valid after each
//!    individual update (maps, logs, result slots), never mid-way through
//!    a multi-step invariant.
//!
//! The lint companion (`rock-lint`, L001) rejects direct `std::sync`
//! primitive use anywhere outside this file, and L002 re-derives the rank
//! order statically from the `RankedMutex::new(LockRank::…)` declarations.

use std::sync::{self, PoisonError, TryLockError};

pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
pub use std::sync::Arc;
pub use std::sync::{Once, OnceLock};

/// Spin-then-yield helper for retry loops (work stealing, speculative
/// commit): exponentially longer spins, then `yield_now`, then
/// [`is_completed`](Backoff::is_completed) tells the caller to block.
#[derive(Debug, Default)]
pub struct Backoff {
    step: std::cell::Cell<u32>,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    pub fn reset(&self) {
        self.step.set(0);
    }

    pub fn snooze(&self) {
        let step = self.step.get();
        if step <= Self::SPIN_LIMIT {
            for _ in 0..1u32 << step {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if step <= Self::YIELD_LIMIT {
            self.step.set(step + 1);
        }
    }

    pub fn is_completed(&self) -> bool {
        self.step.get() > Self::YIELD_LIMIT
    }
}

/// The workspace-wide lock order. A thread may only acquire a lock whose
/// rank is **strictly greater** than every rank it already holds; debug
/// builds enforce this per-thread and panic on violation. Gaps of 10
/// leave room to splice new locks without renumbering.
///
/// The order is derived from the real nesting paths in the code (the
/// table in DESIGN.md §Concurrency model walks each edge):
///
/// * `scheduler::Membership` holds its lease table across KV-store calls
///   (`register_leased`), so every `Membership*` rank precedes every
///   `Kv*` rank.
/// * `ModelRegistry::register` takes the model table then the name index,
///   so `RegistryModels < RegistryNames`.
/// * Everything else is verified leaf-only (guards are statement
///   temporaries or dropped before the next lock), and the rank values
///   pin that status: an accidental future nesting in the wrong
///   direction fails tests immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum LockRank {
    /// `scheduler::Membership.ring` — consistent-hash ring under churn.
    MembershipRing = 10,
    /// `scheduler::Membership.leases` — worker → lease-id table; held
    /// across KV lease calls, hence below every `Kv*` rank.
    MembershipLeases = 20,
    /// `kvstore::KvStore.leases` — lease table (grant/keepalive/expiry).
    KvLeases = 30,
    /// `kvstore::KvStore.inner` — the key → value map itself.
    KvMap = 40,
    /// `kvstore::KvStore.events` — prefix-watch event log.
    KvEvents = 50,
    /// `blocks::BlockStore.objects` — object → block-list directory.
    BlockObjects = 60,
    /// `blocks::BlockStore.blocks` — block-id → bytes map.
    BlockData = 70,
    /// `ml::registry` model table; held while the name index is taken.
    RegistryModels = 80,
    /// `ml::registry` name → id index.
    RegistryNames = 90,
    /// `ml::registry` per-relation block filters.
    RegistryFilters = 100,
    /// `ml::registry` 16-way sharded inference memo (one rank for all
    /// shards: a thread never holds two shards at once).
    RegistryMemo = 110,
    /// `discovery::BitsetCache.inner` — LRU state; the build closure runs
    /// *outside* this lock by construction.
    DiscoveryCache = 120,
    /// `data::ColumnCache.snapshot` — versioned columnar snapshot slot.
    ColumnSnapshot = 130,
    /// `scheduler` task queues (per-worker and the shared re-queue); one
    /// rank for all: every queue operation locks and unlocks by itself.
    SchedQueue = 135,
    /// `scheduler` per-unit result slot (first-writer-wins commit).
    SchedResultSlot = 140,
    /// `scheduler` failure log.
    SchedFailures = 150,
    /// `storage::FaultVfs` I/O trace buffer.
    StorageTrace = 160,
}

impl LockRank {
    #[inline]
    pub fn value(self) -> u16 {
        self as u16
    }
}

// ---------------------------------------------------------------------------
// Debug-build held-rank tracking
// ---------------------------------------------------------------------------

#[cfg(debug_assertions)]
mod rank_check {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks currently held by this thread, in acquisition order.
        /// Strict monotonicity means each value appears at most once.
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Record an acquisition, panicking if `rank` is not strictly above
    /// everything already held by this thread.
    pub fn acquire(rank: LockRank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&worst) = held.iter().max() {
                assert!(
                    rank > worst,
                    "lock rank violation: acquiring {rank:?} (rank {}) while holding {worst:?} \
                     (rank {}); the static order in rock_crystal::sync::LockRank forbids this \
                     nesting",
                    rank.value(),
                    worst.value(),
                );
            }
            held.push(rank);
        });
    }

    /// Record a release. Guards may drop out of acquisition order, so we
    /// remove by value (each rank is held at most once per thread).
    pub fn release(rank: LockRank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&r| r == rank) {
                held.remove(pos);
            }
        });
    }

    /// Snapshot of this thread's held ranks, for tests.
    pub fn held() -> Vec<LockRank> {
        HELD.with(|held| held.borrow().clone())
    }
}

#[cfg(debug_assertions)]
pub use rank_check::held as held_ranks;

#[cfg(not(debug_assertions))]
#[inline(always)]
fn rank_acquire(_rank: LockRank) {}
#[cfg(not(debug_assertions))]
#[inline(always)]
fn rank_release(_rank: LockRank) {}

#[cfg(debug_assertions)]
#[inline]
fn rank_acquire(rank: LockRank) {
    rank_check::acquire(rank);
}
#[cfg(debug_assertions)]
#[inline]
fn rank_release(rank: LockRank) {
    rank_check::release(rank);
}

// ---------------------------------------------------------------------------
// Ranked mutex
// ---------------------------------------------------------------------------

/// A mutex that participates in the workspace lock order. Never poisoned:
/// a panicking critical section leaves the lock usable, which the
/// scheduler's quarantine model requires.
#[derive(Debug)]
pub struct RankedMutex<T: ?Sized> {
    rank: LockRank,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`RankedMutex`]; releases the rank slot on drop.
pub struct RankedMutexGuard<'a, T: ?Sized> {
    rank: LockRank,
    guard: sync::MutexGuard<'a, T>,
}

impl<T> RankedMutex<T> {
    pub fn new(rank: LockRank, value: T) -> Self {
        RankedMutex {
            rank,
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RankedMutex<T> {
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Blocking acquire. Debug builds panic if the rank order is violated
    /// *before* blocking, so the misordering is reported even when the
    /// schedule happens not to deadlock.
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        rank_acquire(self.rank);
        RankedMutexGuard {
            rank: self.rank,
            guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Non-blocking acquire; still rank-checked on success path entry so a
    /// misordered `try_lock` is caught in tests even though it cannot
    /// deadlock by itself (it can still invert the order for a later
    /// blocking acquire).
    pub fn try_lock(&self) -> Option<RankedMutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        rank_acquire(self.rank);
        Some(RankedMutexGuard {
            rank: self.rank,
            guard,
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::ops::Deref for RankedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for RankedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for RankedMutexGuard<'_, T> {
    fn drop(&mut self) {
        rank_release(self.rank);
    }
}

// ---------------------------------------------------------------------------
// Ranked rwlock
// ---------------------------------------------------------------------------

/// A reader-writer lock in the workspace lock order. Read and write
/// acquisitions check the same rank: the order protects against
/// lock-graph cycles, where reader/writer distinction does not help.
#[derive(Debug)]
pub struct RankedRwLock<T: ?Sized> {
    rank: LockRank,
    inner: sync::RwLock<T>,
}

/// Shared-read RAII guard for [`RankedRwLock`].
pub struct RankedReadGuard<'a, T: ?Sized> {
    rank: LockRank,
    guard: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write RAII guard for [`RankedRwLock`].
pub struct RankedWriteGuard<'a, T: ?Sized> {
    rank: LockRank,
    guard: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RankedRwLock<T> {
    pub fn new(rank: LockRank, value: T) -> Self {
        RankedRwLock {
            rank,
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RankedRwLock<T> {
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    pub fn read(&self) -> RankedReadGuard<'_, T> {
        rank_acquire(self.rank);
        RankedReadGuard {
            rank: self.rank,
            guard: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn write(&self) -> RankedWriteGuard<'_, T> {
        rank_acquire(self.rank);
        RankedWriteGuard {
            rank: self.rank,
            guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::ops::Deref for RankedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Drop for RankedReadGuard<'_, T> {
    fn drop(&mut self) {
        rank_release(self.rank);
    }
}

impl<T: ?Sized> std::ops::Deref for RankedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for RankedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for RankedWriteGuard<'_, T> {
    fn drop(&mut self) {
        rank_release(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_strictly_ordered() {
        let all = [
            LockRank::MembershipRing,
            LockRank::MembershipLeases,
            LockRank::KvLeases,
            LockRank::KvMap,
            LockRank::KvEvents,
            LockRank::BlockObjects,
            LockRank::BlockData,
            LockRank::RegistryModels,
            LockRank::RegistryNames,
            LockRank::RegistryFilters,
            LockRank::RegistryMemo,
            LockRank::DiscoveryCache,
            LockRank::ColumnSnapshot,
            LockRank::SchedQueue,
            LockRank::SchedResultSlot,
            LockRank::SchedFailures,
            LockRank::StorageTrace,
        ];
        for w in all.windows(2) {
            assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
        }
        assert_eq!(all.len(), 17);
    }

    #[test]
    fn in_order_nesting_is_allowed() {
        let a = RankedMutex::new(LockRank::KvLeases, 1u32);
        let b = RankedMutex::new(LockRank::KvMap, 2u32);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
        drop(gb);
        drop(ga);
        #[cfg(debug_assertions)]
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn guards_may_drop_out_of_order() {
        let a = RankedRwLock::new(LockRank::BlockObjects, ());
        let b = RankedRwLock::new(LockRank::BlockData, ());
        let ga = a.read();
        let gb = b.read();
        drop(ga); // release the lower rank first
        drop(gb);
        let gb2 = b.write();
        drop(gb2);
        #[cfg(debug_assertions)]
        assert!(held_ranks().is_empty());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock rank violation"))]
    fn out_of_order_nesting_panics_in_debug() {
        let a = RankedMutex::new(LockRank::KvMap, ());
        let b = RankedMutex::new(LockRank::KvLeases, ());
        let _ga = a.lock();
        #[cfg(debug_assertions)]
        let _gb = b.lock(); // rank 30 under rank 40: must panic
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock rank violation"))]
    fn equal_rank_reacquisition_panics_in_debug() {
        let a = RankedMutex::new(LockRank::SchedFailures, ());
        let b = RankedMutex::new(LockRank::SchedFailures, ());
        let _ga = a.lock();
        #[cfg(debug_assertions)]
        let _gb = b.lock();
    }

    #[test]
    fn try_lock_contended_returns_none_without_rank_leak() {
        let a = Arc::new(RankedMutex::new(LockRank::RegistryMemo, 7u32));
        let g = a.lock();
        let a2 = Arc::clone(&a);
        let handle = std::thread::spawn(move || a2.try_lock().is_none());
        assert!(handle.join().unwrap_or(false));
        drop(g);
        assert_eq!(*a.lock(), 7);
    }

    /// A panic inside a critical section must leave the lock usable: the
    /// std backend poisons, the ranked wrappers recover on every path.
    #[test]
    fn locks_stay_usable_after_a_critical_section_panic() {
        let m = Arc::new(RankedMutex::new(LockRank::KvMap, 0u32));
        let l = Arc::new(RankedRwLock::new(LockRank::KvEvents, 0u32));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let res = std::thread::spawn(move || {
            let mut gm = m2.lock();
            let mut gl = l2.write();
            *gm = 9;
            *gl = 9;
            panic!("die holding both locks");
        })
        .join();
        assert!(res.is_err());
        // Survivors keep going, through every acquisition path.
        assert_eq!(*m.lock(), 9);
        assert_eq!(m.try_lock().map(|g| *g), Some(9));
        assert_eq!(*l.read(), 9);
        *l.write() += 1;
        assert_eq!(*l.read(), 10);
        let (mut m, mut l) = (m, l);
        assert_eq!(Arc::get_mut(&mut m).map(|m| *m.get_mut()), Some(9));
        assert_eq!(Arc::get_mut(&mut l).map(|l| *l.get_mut()), Some(10));
        assert_eq!(
            Arc::try_unwrap(m).map(RankedMutex::into_inner).ok(),
            Some(9)
        );
        assert_eq!(
            Arc::try_unwrap(l).map(RankedRwLock::into_inner).ok(),
            Some(10)
        );
        // This thread's rank stack is unaffected by the other thread's death.
        let b = RankedMutex::new(LockRank::KvLeases, ());
        drop(b.lock());
    }
}
