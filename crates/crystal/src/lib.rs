//! # rock-crystal — the distributed substrate (paper §5.1–§5.2)
//!
//! Rock stores and schedules everything on **Crystal**, "a distributed file
//! system to support internet-scale dynamic load across nodes". This crate
//! reproduces Crystal's architecture as an in-process multi-worker
//! simulation (DESIGN.md §1 explains why this preserves the scaling
//! experiments):
//!
//! * [`crc32`] — the CRC-32 used to hash node addresses onto the ring
//!   (implemented from scratch; standard reflected polynomial 0xEDB88320).
//! * [`ring`] — the consistent hash ring assigning data objects and
//!   computing nodes to positions on a virtual ring, minimizing remapped
//!   keys under node churn.
//! * [`kvstore`] — the ETCD-like key-value store registering the
//!   hash-code → node mapping and cluster metadata.
//! * [`blocks`] — the block store with the two-level addressing model
//!   (first-level metadata resident in memory on every node).
//! * [`work`] — work units `T = (φ, D_T)` with metadata-driven cost
//!   estimation (§5.2 load balancing strategies 1–2).
//! * [`scheduler`] — the non-centralized work manager: every node runs the
//!   same engine, units are placed by the hash of `D_T`, idle nodes fetch
//!   units from others (work stealing; §5.2 strategy 3).
//! * [`fault`] — seeded deterministic fault injection (panics, transient
//!   errors, stragglers, node crashes) plus the retry/quarantine/
//!   speculation knobs in [`fault::ClusterConfig`]; see DESIGN.md
//!   §Crystal fault model.
//! * [`storage`] — durable file primitives (fsync-hardened atomic
//!   writes) used by the chase WAL/checkpoints and the bench harness,
//!   plus [`storage::FaultVfs`], the seeded storage fault layer (torn
//!   writes, fsync EIO/ENOSPC, rename failures, read bit-flips,
//!   crash-at-op) behind the crash-consistency harness.
//! * [`sync`] — the workspace-wide concurrency shim over `std::sync`:
//!   [`sync::RankedMutex`]/[`sync::RankedRwLock`] enforcing the static
//!   [`sync::LockRank`] order in debug builds, and poison-free guards.
//!   `rock-lint` (L001) rejects concurrency primitives used anywhere else.
//! * [`hash`], [`rng`], [`json`] — the std-only Fx hasher, seeded
//!   splitmix64 generator and JSON codec the whole workspace uses (this
//!   crate is the bottom of the crate graph; `rock-data` re-exports them).
//! * [`model`] — bounded CHESS-style interleaving explorer certifying
//!   the runtime's five core protocols (work stealing + quarantine,
//!   lease keep-alive vs expiry, speculative first-writer-wins commit,
//!   `ColumnCache` versioning, sharded memo) in the `models` CI job.

// The substrate must never kill a run: recoverable conditions are typed
// errors, and panics are isolated per unit. Test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod blocks;
pub mod crc32;
pub mod fault;
pub mod hash;
pub mod json;
pub mod kvstore;
pub mod model;
pub mod ring;
pub mod rng;
pub mod scheduler;
pub mod storage;
pub mod sync;
pub mod work;

pub use blocks::{BlockId, BlockStore};
pub use crc32::crc32;
pub use fault::{
    ClusterConfig, FaultInjector, FaultPlan, FaultStats, NodeCrash, UnitError, UnitFailure,
};
pub use kvstore::{KvStore, PrefixWatch, WatchEvent};
pub use model::{Exploration, Explorer, ModelInstance, ModelViolation, Step, ViolationKind};
pub use ring::{ConsistentHashRing, NodeId};
pub use scheduler::{Cluster, ExecuteOutcome, SchedulerStats};
pub use storage::{
    fsync_dir, tmp_path, write_atomic_durable, FaultVfs, IoOpKind, StorageFaultPlan,
    StorageFaultStats, TraceOp, VfsFile,
};
pub use sync::{LockRank, RankedMutex, RankedRwLock};
pub use work::{CostEstimator, WorkUnit};
