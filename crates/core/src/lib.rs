//! # rock-core — the Rock system facade
//!
//! Ties the substrates together into the end-to-end pipeline of §3:
//! **rule discovery** (offline) → **error detection** → **error
//! correction** (the chase), plus the data-quality assessment. Also
//! implements the paper's three ablation variants (§6 "Baselines"):
//!
//! * `Rock` — the full system: unified chase over all REE++s.
//! * `RockNoMl` — drops every rule with an ML predicate and the
//!   polynomial-expression pipeline.
//! * `RockSeq` — iterates ER → CR → MI → TD task-by-task until fixpoint
//!   (same final answer as Rock, by Church–Rosser; slower).
//! * `RockNoC` — runs ER, CR, MI, TD once each, sequentially, without the
//!   chase loop (no interaction between the tasks).

pub mod poly;
pub mod system;
pub mod variant;

/// Dense bitset kernels behind discovery's predicate satisfaction cache.
/// The implementation lives in `rock-data` (the one crate below both
/// `rock-rees` and `rock-discovery` in the dependency order) and is
/// re-exported here as the system-level API surface.
pub use rock_data::bitset;

pub use poly::PolyPipeline;
pub use system::{
    conflict_policy, ml_signatures, CorrectionOutcome, DetectionOutcome, DiscoveryOutcome,
    RockConfig, RockSystem,
};
pub use variant::Variant;
