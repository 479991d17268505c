//! # rock-crystal — the execution substrate (paper §5.1–§5.2)
//!
//! Rock stores and schedules everything on **Crystal**, "a distributed file
//! system to support internet-scale dynamic load across nodes". This crate
//! keeps the part of Crystal the engine executes, in one process: worker
//! threads, placement by the hash of `D_T`, work stealing and fault
//! handling run; the consistent-hash ring, the ETCD metadata store and the
//! block store are not reproduced (DESIGN.md §1 says why the scaling
//! experiments survive that):
//!
//! * [`crc32`] — CRC-32 (implemented from scratch; standard reflected
//!   polynomial 0xEDB88320): the placement hash of a data partition and
//!   the WAL/checkpoint frame checksum.
//! * [`work`] — work units `T = (φ, D_T)` and the partitioning of a
//!   relation into them (§5.2).
//! * [`scheduler`] — the non-centralized work manager: every node runs the
//!   same engine, units are placed by the hash of `D_T`, idle nodes fetch
//!   units from others (work stealing; §5.2 strategy 3).
//! * [`fault`] — seeded deterministic fault injection (panics, transient
//!   errors, stragglers, node crashes) plus the retry/quarantine knobs
//!   in [`fault::ClusterConfig`]; see DESIGN.md §Crystal fault model.
//! * [`storage`] — durable file primitives ([`fsync_dir`], [`tmp_path`])
//!   used by the chase WAL/checkpoints and the bench harness, plus
//!   [`storage::FaultVfs`], the seeded storage fault layer (torn writes,
//!   fsync EIO/ENOSPC, rename failures, read bit-flips, crash-at-op)
//!   behind the crash-consistency harness.
//! * [`sync`] — the workspace-wide concurrency shim over `std::sync`:
//!   [`sync::RankedMutex`]/[`sync::RankedRwLock`] enforcing the static
//!   [`sync::LockRank`] order in debug builds, and poison-free guards.
//!   `rock-lint` (L001) rejects concurrency primitives used anywhere else.
//! * [`hash`], [`rng`], [`json`] — the std-only Fx hasher, seeded
//!   splitmix64 generator and JSON codec the whole workspace uses (this
//!   crate is the bottom of the crate graph; `rock-data` re-exports them).
//! * [`model`] — bounded CHESS-style interleaving explorer certifying
//!   the runtime's core protocols (work stealing + crash drain,
//!   `ColumnCache` versioning, sharded memo) in the `models` CI job.

// The substrate must never kill a run: recoverable conditions are typed
// errors, and panics are isolated per unit. Test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod crc32;
pub mod fault;
pub mod hash;
pub mod json;
pub mod model;
pub mod rng;
pub mod scheduler;
pub mod storage;
pub mod sync;
pub mod work;

pub use crc32::crc32;
pub use fault::{
    ClusterConfig, FaultInjector, FaultPlan, FaultStats, NodeCrash, UnitError, UnitFailure,
};
pub use model::{Exploration, Explorer, ModelInstance, ModelViolation, Step, ViolationKind};
pub use scheduler::{Cluster, ExecuteOutcome, SchedulerStats};
pub use storage::{
    fsync_dir, tmp_path, FaultVfs, IoOpKind, StorageFaultPlan, StorageFaultStats, TraceOp, VfsFile,
};
pub use sync::{LockRank, RankedMutex, RankedRwLock};
pub use work::WorkUnit;
