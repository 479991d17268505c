//! Stand-in for `crossbeam` 0.8: `deque::{Injector, Worker, Stealer,
//! Steal}`, `scope` and `utils::Backoff`, std only.
//!
//! The deques are mutex-guarded `VecDeque`s, not the lock-free
//! Chase–Lev deque, so per-unit scheduling cost measured through this
//! crate is an upper bound on what the published crate would show.

pub use thread::scope;

pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex, PoisonError};

    type Queue<T> = Arc<Mutex<VecDeque<T>>>;

    fn pop_front<T>(q: &Queue<T>) -> Option<T> {
        q.lock().unwrap_or_else(PoisonError::into_inner).pop_front()
    }

    fn push_back<T>(q: &Queue<T>, task: T) {
        q.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(task)
    }

    #[derive(Debug, PartialEq, Eq)]
    pub enum Steal<T> {
        Empty,
        Success(T),
        /// Never produced here: a mutex-guarded queue has no lost races.
        Retry,
    }

    impl<T> From<Option<T>> for Steal<T> {
        fn from(t: Option<T>) -> Self {
            t.map_or(Steal::Empty, Steal::Success)
        }
    }

    /// A worker's own FIFO queue; others take from it through a `Stealer`.
    pub struct Worker<T>(Queue<T>);

    impl<T> Worker<T> {
        pub fn new_fifo() -> Self {
            Worker(Queue::default())
        }
        pub fn stealer(&self) -> Stealer<T> {
            Stealer(Arc::clone(&self.0))
        }
        pub fn push(&self, task: T) {
            push_back(&self.0, task)
        }
        pub fn pop(&self) -> Option<T> {
            pop_front(&self.0)
        }
    }

    pub struct Stealer<T>(Queue<T>);

    impl<T> Stealer<T> {
        pub fn steal(&self) -> Steal<T> {
            pop_front(&self.0).into()
        }
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer(Arc::clone(&self.0))
        }
    }

    /// A FIFO queue every worker may push to and steal from.
    pub struct Injector<T>(Queue<T>);

    impl<T> Injector<T> {
        pub fn new() -> Self {
            Injector(Queue::default())
        }
        pub fn push(&self, task: T) {
            push_back(&self.0, task)
        }
        pub fn steal(&self) -> Steal<T> {
            pop_front(&self.0).into()
        }
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Injector::new()
        }
    }
}

pub mod thread {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub type ScopedJoinHandle<'scope, T> = std::thread::ScopedJoinHandle<'scope, T>;

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// As in crossbeam, the closure receives the scope so it can spawn
        /// further threads.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Runs `f`, joins every thread it spawned, and returns `Err` with the
    /// panic payload if `f` or an unjoined thread panicked (std's scope
    /// would re-raise instead).
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}

pub mod utils {
    use std::cell::Cell;

    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    /// Exponential backoff for spin loops: spin, then yield, then report
    /// `is_completed` so the caller can block instead.
    #[derive(Debug, Default)]
    pub struct Backoff {
        step: Cell<u32>,
    }

    impl Backoff {
        pub fn new() -> Self {
            Backoff::default()
        }

        pub fn reset(&self) {
            self.step.set(0);
        }

        pub fn snooze(&self) {
            let step = self.step.get();
            if step <= SPIN_LIMIT {
                for _ in 0..1u32 << step {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
            if step <= YIELD_LIMIT {
                self.step.set(step + 1);
            }
        }

        pub fn is_completed(&self) -> bool {
            self.step.get() > YIELD_LIMIT
        }
    }
}

#[cfg(test)]
mod tests {
    use super::deque::{Injector, Steal, Worker};
    use super::utils::Backoff;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn queues_are_fifo_and_stealable() {
        let w = Worker::new_fifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(1));
        assert_eq!(s.steal(), Steal::Success(2));
        assert_eq!(s.clone().steal(), Steal::Success(3));
        assert_eq!(s.steal(), Steal::Empty);
        let g = Injector::new();
        g.push(9);
        assert_eq!(g.steal(), Steal::Success(9));
        assert_eq!(g.steal(), Steal::Empty);
    }

    #[test]
    fn scope_joins_borrows_and_reports_panics() {
        let n = AtomicUsize::new(0);
        let r = super::scope(|s| {
            for _ in 0..4 {
                s.spawn(|s2| {
                    s2.spawn(|_| n.fetch_add(1, Ordering::Relaxed));
                    n.fetch_add(1, Ordering::Relaxed);
                });
            }
            7
        });
        assert_eq!(r.ok(), Some(7));
        assert_eq!(n.load(Ordering::Relaxed), 8);
        let r = super::scope(|s| {
            s.spawn(|_| panic!("worker dies"));
        });
        assert!(r.is_err());
    }

    #[test]
    fn backoff_completes_and_resets() {
        let b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..11 {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }
}
