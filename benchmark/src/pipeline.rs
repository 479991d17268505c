//! The pipeline phases, twice: through `RockSystem` (what a user calls, and
//! what the end-to-end numbers time), and as a mirror of `system.rs` that
//! makes the same calls into each layer's public functions with a span
//! around each.
//!
//! The mirror exists because spans inside the engine are a later change;
//! until then the layer split has to be taken from outside. It can drift
//! from `system.rs`, so every traced pass compares its result digest with
//! the `RockSystem` result for the same phase and counts a difference as a
//! failed operation.
//!
//! Configs are built with `..Default::default()` and name none of the
//! engine's path-selection flags, so collapsing those flags does not break
//! the harness.

use crate::stats::timed;
use crate::trace::Tracer;
use rock_chase::{ChaseConfig, ChaseEngine, ChaseResult, ConflictPolicy};
use rock_core::variant::{effective_rules, sorted_rules};
use rock_core::{PolyPipeline, RockConfig, RockSystem, Variant};
use rock_data::{CellRef, Database};
use rock_detect::blocking::{precompute_ml, precompute_ml_indexed, BlockingStats};
use rock_detect::Detector;
use rock_discovery::levelwise::{Discoverer, DiscoveryConfig, DiscoveryReport};
use rock_discovery::sampling::{deviation_bound, sample_database};
use rock_discovery::space::{MlSignature, PredicateSpace, SpaceConfig};
use rock_rees::measures::measure_into;
use rock_rees::{EvalContext, RuleSet};
use rock_workloads::metrics::{correction_metrics, detection_metrics};
use rock_workloads::{Task, Workload};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// What a phase produced, reduced to what the checks and metrics need.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseResult {
    /// Order-independent fingerprint of the phase's output.
    pub digest: u64,
    pub f1: f64,
    /// Quarantined work units; must be 0.
    pub unit_failures: usize,
}

/// Counters of one traced detection pass.
#[derive(Debug, Default)]
pub struct DetectCounters {
    pub blocking: BlockingStats,
    pub violations: usize,
    pub unit_seconds: Vec<f64>,
}

pub fn system(variant: Variant, workers: usize) -> RockSystem {
    RockSystem::new(RockConfig {
        variant,
        workers,
        ..Default::default()
    })
}

/// `DefaultHasher::new()` is SipHash with fixed keys: the same input gives
/// the same digest in every process.
fn digest_of(parts: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

pub fn database_digest(db: &Database) -> u64 {
    let mut h = DefaultHasher::new();
    for (rid, rel) in db.iter() {
        for t in rel.iter() {
            (rid, t.tid, t.eid, &t.values).hash(&mut h);
        }
    }
    h.finish()
}

fn cells_digest(cells: impl IntoIterator<Item = CellRef>, violations: usize) -> u64 {
    let mut cells: Vec<CellRef> = cells.into_iter().collect();
    cells.sort_unstable_by_key(|c| (c.rel, c.tid, c.attr));
    digest_of((cells, violations))
}

fn rules_digest(w: &Workload, rules: &RuleSet) -> u64 {
    let schema = w.dirty.schema();
    let mut lines: Vec<String> = rules
        .iter()
        .map(|r| {
            format!(
                "{} {} {:016x} {:016x}",
                r.name,
                r.display(&schema),
                r.support.to_bits(),
                r.confidence.to_bits()
            )
        })
        .collect();
    lines.sort_unstable();
    digest_of(lines)
}

fn task_rules(w: &Workload, task: &Task, variant: Variant) -> RuleSet {
    sorted_rules(&effective_rules(variant, &w.rules_for(task)))
}

pub fn conflict_policy(w: &Workload) -> ConflictPolicy {
    ConflictPolicy {
        mc: w.registry.id("Mc"),
        mrank: ["Mstatus", "Mtier", "Mrank"]
            .iter()
            .find_map(|n| w.registry.id(n)),
    }
}

// ---------------------------------------------------------------------------
// Through RockSystem
// ---------------------------------------------------------------------------

// Each returns the seconds the system call took; reducing its output to a
// `PhaseResult` (and dropping it) happens after the clock is read.

pub fn detect(sys: &RockSystem, w: &Workload, task: &Task) -> (f64, PhaseResult) {
    let (secs, out) = timed(|| sys.detect(w, task));
    let result = PhaseResult {
        digest: cells_digest(out.report.flagged_cells.iter().copied(), out.report.count()),
        f1: out.metrics.f1(),
        unit_failures: out.report.unit_failures.len(),
    };
    (secs, result)
}

pub fn correct(sys: &RockSystem, w: &Workload, task: &Task) -> (f64, PhaseResult) {
    let (secs, out) = timed(|| sys.correct(w, task));
    let result = PhaseResult {
        digest: database_digest(&out.repaired),
        f1: out.metrics.f1(),
        unit_failures: out.unit_failures.len(),
    };
    (secs, result)
}

pub fn discover(sys: &RockSystem, w: &Workload) -> (f64, PhaseResult) {
    let (secs, out) = timed(|| sys.discover(w));
    let result = PhaseResult {
        digest: rules_digest(w, &out.rules),
        f1: 0.0,
        unit_failures: 0,
    };
    (secs, result)
}

// ---------------------------------------------------------------------------
// The traced mirror of system.rs
// ---------------------------------------------------------------------------

/// Mirror of `RockSystem::detect`.
pub fn detect_traced(
    t: &mut Tracer,
    w: &Workload,
    task: &Task,
    variant: Variant,
) -> (PhaseResult, DetectCounters) {
    let cfg = RockConfig::default();
    t.span("detect", |t| {
        let rules = t.span("core.rules", |_| task_rules(w, task, variant));
        let blocking = if variant.uses_ml() {
            t.span("detect.blocking", |_| {
                precompute_ml(&w.dirty, &rules, &w.registry)
            })
        } else {
            BlockingStats::default()
        };
        let mut report = t.span("detect.scan", |_| {
            let mut detector = Detector::new(&rules, &w.registry);
            if let Some(g) = &w.graph {
                detector = detector.with_graph(g);
            }
            detector.detect(&w.dirty)
        });
        if variant.uses_ml() {
            if let Some((rel, attr)) = task.polynomial_target {
                t.span("core.poly", |_| {
                    if let Some(pipe) =
                        PolyPipeline::fit(&w.dirty, rel, attr, &w.trusted, cfg.poly_tolerance)
                    {
                        report.flagged_cells.extend(pipe.detect(&w.dirty));
                    }
                });
            }
        }
        let metrics = t.span("core.score", |_| {
            detection_metrics(&report.flagged_cells, &w.truth, task.scope.as_ref())
        });
        let result = t.span("harness.digest", |_| PhaseResult {
            digest: cells_digest(report.flagged_cells.iter().copied(), report.count()),
            f1: metrics.f1(),
            unit_failures: report.unit_failures.len(),
        });
        let counters = DetectCounters {
            blocking,
            violations: report.count(),
            unit_seconds: report.unit_seconds,
        };
        (result, counters)
    })
}

/// Mirror of `RockSystem::correct` for the chase-to-fixpoint variants.
/// Returns the chase's own result so the caller can read its counters.
pub fn correct_traced(
    t: &mut Tracer,
    w: &Workload,
    task: &Task,
    variant: Variant,
    workers: usize,
) -> (PhaseResult, ChaseResult) {
    let cfg = RockConfig::default();
    t.span("correct", |t| {
        let rules = t.span("core.rules", |_| task_rules(w, task, variant));
        let block_index = variant.uses_ml().then(|| {
            t.span("detect.blocking_index", |_| {
                precompute_ml_indexed(&w.dirty, &rules, &w.registry).1
            })
        });
        let mut res = t.span("chase.run", |_| {
            let engine = ChaseEngine::new(
                &rules,
                &w.registry,
                ChaseConfig {
                    workers,
                    policy: conflict_policy(w),
                    ..Default::default()
                },
            );
            let engine = match &w.graph {
                Some(g) => engine.with_graph(g),
                None => engine,
            };
            let engine = match &block_index {
                Some(idx) => engine.with_blocking(idx),
                None => engine,
            };
            engine.run(&w.dirty, &w.trusted)
        });
        if variant.uses_ml() {
            if let Some((rel, attr)) = task.polynomial_target {
                t.span("core.poly", |_| {
                    if let Some(pipe) =
                        PolyPipeline::fit(&res.db, rel, attr, &w.trusted, cfg.poly_tolerance)
                    {
                        pipe.correct(&mut res.db);
                    }
                });
            }
        }
        let metrics = t.span("core.score", |_| {
            correction_metrics(&w.dirty, &res.db, &w.clean, &w.truth, task.scope.as_ref())
        });
        let result = t.span("harness.digest", |_| PhaseResult {
            digest: database_digest(&res.db),
            f1: metrics.f1(),
            unit_failures: res.unit_failures.len(),
        });
        (result, res)
    })
}

/// Mirror of `RockSystem::discover` (and of `mine_with_sampling`, whose
/// sample, mine and verify steps are timed apart here). Returns one
/// report per mined relation, rules already verified.
pub fn discover_traced(
    t: &mut Tracer,
    w: &Workload,
    variant: Variant,
) -> (PhaseResult, Vec<DiscoveryReport>) {
    let cfg = RockConfig::default();
    t.span("discover", |t| {
        let schema = w.dirty.schema();
        let sigs: Vec<MlSignature> = if variant.uses_ml() {
            w.ml_hints
                .iter()
                .filter_map(|h| {
                    let rel = schema.rel_id(&h.rel)?;
                    let attrs = h
                        .attrs
                        .iter()
                        .filter_map(|a| schema.relation(rel).attr_id(a))
                        .collect();
                    Some(MlSignature {
                        model: h.model.clone(),
                        rel,
                        attrs,
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        let disc_cfg = DiscoveryConfig::default();
        let mut rules = RuleSet::default();
        let mut reports = Vec::new();
        for (rid, rel) in w.dirty.iter() {
            if rel.is_empty() {
                continue;
            }
            let space = t.span("discovery.space_build", |_| {
                PredicateSpace::build(&w.dirty, rid, &sigs, &SpaceConfig::default())
            });
            let report = if rel.len() > 200 && cfg.sample_ratio < 1.0 {
                let sampled = t.span("discovery.sample", |_| {
                    sample_database(&w.dirty, cfg.sample_ratio, 17)
                });
                let n = sampled.relation(rid).len().max(2);
                let eps = deviation_bound(n * n, 0.05).min(0.2);
                let relaxed = Discoverer::new(
                    &w.registry,
                    DiscoveryConfig {
                        min_support: (disc_cfg.min_support - eps).max(0.0),
                        min_confidence: (disc_cfg.min_confidence - eps).max(0.0),
                        ..disc_cfg.clone()
                    },
                );
                let mut report = t.span("discovery.mine", |_| {
                    relaxed.mine_relation(&sampled, rid, &space)
                });
                t.span("discovery.verify", |_| {
                    let ctx = EvalContext::new(&w.dirty, &w.registry);
                    report.rules.rules.retain_mut(|rule| {
                        let m = measure_into(rule, &ctx);
                        m.support() >= disc_cfg.min_support
                            && m.confidence() >= disc_cfg.min_confidence
                    });
                });
                report
            } else {
                t.span("discovery.mine", |_| {
                    Discoverer::new(&w.registry, disc_cfg.clone())
                        .mine_relation(&w.dirty, rid, &space)
                })
            };
            for r in &report.rules.rules {
                rules.push(r.clone());
            }
            reports.push(report);
        }
        let result = t.span("harness.digest", |_| PhaseResult {
            digest: rules_digest(w, &rules),
            f1: 0.0,
            unit_failures: reports.iter().map(|r| r.unit_failures.len()).sum(),
        });
        (result, reports)
    })
}
