//! # rock-bench — the evaluation harness
//!
//! Regenerates every panel of the paper's Figure 4 (the full evaluation,
//! §6) over the synthetic Bank / Logistics / Sales workloads. See
//! `src/bin/figures.rs` for the CLI and `EXPERIMENTS.md` for the panel
//! index and the paper-vs-measured record.
//!
//! ## The modeled-time metric
//!
//! The paper's runtimes mix a 21-node cluster with transformer-scale
//! models; this reproduction runs on one CPU with feature-based model
//! stand-ins. To preserve the *relative* runtime shapes, every system
//! reports `modeled_seconds = wall_seconds + ml_cost_units · COST_UNIT_SECONDS`,
//! where `ml_cost_units` accumulates each model's declared per-inference
//! cost (a T5-class inference is ~2000 units, an n-gram kernel 1). The
//! unit is calibrated so one cost unit ≈ 50 µs of accelerator time — the
//! same order as the paper's ratio between a BERT forward pass and a
//! string kernel. Parallel-scaling panels report LPT makespans of the
//! measured per-work-unit durations (see
//! `rock_crystal::scheduler::makespan_lpt` — the host has one CPU, so
//! wall-clock cannot show cluster speedup).

pub mod panels;
pub mod runners;
pub mod table;

pub use runners::{modeled_seconds, COST_UNIT_SECONDS};

/// Write `contents` to `path` atomically *and* durably: write a sibling
/// `<name>.tmp`, fsync it, rename it over the target, then fsync the
/// parent directory — an interrupted or crashed harness never leaves a
/// truncated results file where a complete one stood, and a completed
/// write survives power loss (see `rock_crystal::storage`).
pub fn write_atomic(path: &std::path::Path, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = rock_crystal::tmp_path(path);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(contents.as_ref())?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => rock_crystal::fsync_dir(dir),
        _ => Ok(()),
    }
}
