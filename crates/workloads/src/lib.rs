//! # rock-workloads — synthetic applications and evaluation metrics
//!
//! The paper evaluates Rock on three proprietary deployments (§6): **Bank**
//! (11 tables, 1.5B tuples), **Logistics** (1 table, 16M tuples) and
//! **Sales** (13 tables, 0.62B tuples). Those datasets are private; per
//! DESIGN.md §1 this crate generates seeded synthetic equivalents with the
//! same *shape* — the same table/attribute mix, the same task structure
//! (CNC/CIC/TPA/ESClean, RS/RR/SN/RClean, CIN/CCN/TPWT/SClean), the same
//! error classes (typos, conflicts, nulls, stale values, duplicates) — at
//! laptop scale, with every injected error recorded so precision/recall
//! are measured exactly rather than via manual spot checks.
//!
//! * [`namegen`] — deterministic fake names/addresses/companies.
//! * [`inject`] — error injection with ground-truth tracking.
//! * [`metrics`] — precision/recall/F-measure for detection & correction.
//! * [`bank`], [`logistics`], [`sales`] — the three applications: schema,
//!   clean data, knowledge graph, trained models, curated REE++s, tasks.
//! * [`workload`] — the common `Workload` bundle the harness consumes.
//! * [`defects`] — seeded defective-ruleset generator for `rock-analyze`.
//! * [`stream`] — seeded ΔD batches over a workload, for incremental runs.

pub mod bank;
pub mod defects;
pub mod inject;
pub mod logistics;
pub mod metrics;
pub mod namegen;
pub mod sales;
pub mod stream;
pub mod workload;

pub use defects::{inject_defects, DefectKind, InjectedDefect};
pub use inject::{ErrorTruth, Injector};
pub use metrics::{correction_metrics, detection_metrics, Metrics};
pub use workload::{Task, Workload};
