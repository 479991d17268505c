//! # rock-chase — the unified chase engine (paper §4)
//!
//! Rock corrects errors by *chasing* the data with a set Σ of REE++s and a
//! collection Γ of ground truth, conducting ER, CR, MI and TD **in the same
//! process** so the four tasks feed each other (§4.2 "Interactions").
//!
//! Fixes are maintained in `U = (E=, E⪯)`:
//! * `[EID]=` — entity classes validated to denote the same real-world
//!   entity (a union–find over `(relation, eid)` keys);
//! * `[EID.A]=` — the validated value of each entity attribute;
//! * `[A]⪯` — validated temporal orders per attribute (a DAG with
//!   conflict, i.e. antisymmetry-violation, detection).
//!
//! A chase step `U_i ⇒(φ,h) U_{i+1}` applies a rule to a valuation whose
//! precondition is validated; the consequence extends `U`. Chasing runs in
//! *rounds* (semi-naive): each round collects every proposal from every
//! activated rule, then commits them with deterministic, learning-based
//! conflict resolution (§4.2) — which is what makes the implementation
//! Church–Rosser: the committed state after each round is independent of
//! rule enumeration order (property-tested in `tests/`).
//!
//! Lazy activation (§4.1 "Novelty" (a)): rules are indexed by the
//! `(relation, attribute)` cells their preconditions read; a round only
//! re-evaluates rules whose read-set intersects the cells fixed in the
//! previous round (plus EID-sensitive rules after merges). Batch mode seeds
//! the worklist with every rule; incremental mode seeds it from ΔD.
//!
//! Module map: [`chase`] is the round loop and its activation step,
//! `evaluate` the semi-naive evaluation phase, `commit` the commit phase,
//! `durable` the WAL/checkpoint driver around the loop, and [`reference`]
//! the naive chase the production path is tested against (it shares the
//! valuation leaf in `proposal` and the commit phase, nothing else).
//!
//! Durability (`wal` / `checkpoint` / `provenance`): with
//! [`DurabilityConfig`] set, every committed fix is appended to a
//! CRC-framed, *segmented* write-ahead log at round boundaries alongside
//! periodic checkpoints of the loop state (full snapshots plus CRC-chained
//! incremental deltas), so a crashed chase resumes from its last durable
//! round byte-identically ([`ChaseEngine::resume`]) and every repaired
//! cell can answer "why?" ([`ProvenanceGraph::why`]). Segments fully
//! covered by the latest full checkpoint are compacted away when
//! [`DurabilityConfig::with_compaction`] is on; transient I/O errors are
//! retried with capped backoff and the outcome is surfaced as a typed
//! [`WalHealth`] in [`ChaseResult`].

// The chase commits fixes round-atomically; a panic mid-commit would leave
// a torn fix store, so non-test code must surface errors as values (same
// gate as rock-crystal and rock-rees).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chase;
pub mod checkpoint;
mod commit;
pub mod conflict;
pub mod delta;
mod durable;
mod evaluate;
pub mod fixes;
pub mod order;
mod proposal;
pub mod provenance;
pub mod quality;
pub mod reference;
pub mod wal;

pub use chase::{
    CertViolation, ChaseCertification, ChaseConfig, ChaseEngine, ChaseResult, GateMode, Proposal,
};
pub use checkpoint::{
    checkpoint_chain, locate, ChainEntry, ChaseCheckpoint, CheckpointDelta, CheckpointDoc,
    ResumePoint, CHECKPOINT_VERSION,
};
pub use conflict::ConflictPolicy;
pub use delta::{DeltaSet, RoundStats};
pub use fixes::{EntityKey, FixSnapshot, FixStore};
pub use order::PartialOrderStore;
pub use provenance::{
    replay_witness, ProvenanceChain, ProvenanceGraph, ReplayError, WitnessReplay,
};
pub use quality::QualityReport;
pub use reference::ReferenceResult;
pub use wal::{
    list_segments, read_wal, read_wal_dir, segment_file_name, wal_bytes, DurabilityConfig, FixKind,
    FixRecord, SegmentInfo, WalDirScan, WalError, WalHealth, WalPos, WalRecord, WalSummary,
};
