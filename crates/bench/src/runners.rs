//! Per-system runners: uniform `(f1-metrics, modeled-time)` interfaces over
//! Rock (all variants), ES, T5s, RB and the SQL-engine simulators.

use rock_baselines::es::{es_correct, EsMiner};
use rock_baselines::rb::RbCleaner;
use rock_baselines::sqlengine::{SqlEngine, SqlEngineKind};
use rock_baselines::t5s::T5sModel;
use rock_core::{RockConfig, RockSystem, Variant};
use rock_data::{CellRef, Database, FxHashSet, GlobalTid, RelId, TupleId};
use rock_detect::Detector;
use rock_discovery::sampling::sample_database;
use rock_discovery::space::{PredicateSpace, SpaceConfig};
use rock_rees::RuleSet;
use rock_workloads::metrics::{correction_metrics, detection_metrics, Metrics};
use rock_workloads::{Task, Workload};

/// Seconds of modeled accelerator time per ML cost unit (see the crate
/// docs for the calibration rationale).
pub const COST_UNIT_SECONDS: f64 = 50e-6;

/// Combine wall time and metered ML cost into one comparable number.
pub fn modeled_seconds(wall: f64, cost_units: f64) -> f64 {
    wall + cost_units * COST_UNIT_SECONDS
}

/// Result of one (system, task) run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub system: String,
    pub metrics: Metrics,
    pub modeled_seconds: f64,
    /// Per-work-unit durations (only for Rock — drives scaling panels).
    pub unit_seconds: Vec<f64>,
    /// Modeled ML seconds included in `modeled_seconds` (parallelizable —
    /// inference distributes across workers).
    pub ml_cost_seconds: f64,
}

/// Rock (any variant) — rule discovery timing for one task.
pub fn rock_discovery_time(w: &Workload, variant: Variant) -> f64 {
    let sys = RockSystem::new(RockConfig {
        variant,
        discovery: rock_discovery::levelwise::DiscoveryConfig {
            min_support: 1e-6,
            min_confidence: 0.9,
            max_preconditions: 2,
            ..Default::default()
        },
        sample_ratio: 0.1,
        ..RockConfig::default()
    });
    let cost0 = w.registry.meter.cost();
    let out = sys.discover(w);
    modeled_seconds(out.wall_seconds, w.registry.meter.cost() - cost0)
}

/// ES — rule discovery over every relation, full evidence sets.
pub fn es_discovery(w: &Workload) -> (RuleSet, f64) {
    let miner = EsMiner::new(&w.registry);
    let mut rules = RuleSet::default();
    let mut wall = 0.0;
    let cost0 = w.registry.meter.cost();
    for (rid, rel) in w.dirty.iter() {
        if rel.is_empty() {
            continue;
        }
        let space = PredicateSpace::build(&w.dirty, rid, &[], &SpaceConfig);
        let report = miner.mine(&w.dirty, rid, &space.preconditions(), &space.consequences);
        wall += report.wall_seconds;
        for r in report.rules.rules {
            rules.push(r);
        }
    }
    (
        rules,
        modeled_seconds(wall, w.registry.meter.cost() - cost0),
    )
}

/// T5s — "fine-tune" on a 10% sample of the dirty data.
pub fn t5s_train(w: &Workload) -> (T5sModel, f64) {
    let sample = sample_database(&w.dirty, 0.1, 99);
    let model = T5sModel::train(&sample, 3);
    let t = modeled_seconds(model.train_seconds, model.meter.cost());
    model.meter.reset();
    (model, t)
}

/// RB — train one cleaner per relation on a 10% labeled prefix.
pub fn rb_train(w: &Workload) -> (Vec<RbForRel>, f64) {
    let mut cleaners = Vec::new();
    let mut time = 0.0;
    for (rid, rel) in w.dirty.iter() {
        if rel.len() < 20 {
            continue;
        }
        // labeled sample: the first 10% of tuples with their clean oracle
        let n = (rel.len() / 10).max(10) as u32;
        let mut dirty_sub = rock_data::Relation::new(rel.schema.clone());
        let mut clean_sub = rock_data::Relation::new(rel.schema.clone());
        let arity = rel.schema.arity();
        for tid in rel.tids().take(n as usize) {
            // Both rows or neither: tuple i of `clean_sub` labels tuple i of
            // `dirty_sub`. An insert fails only on arity, checked here first.
            if let (Some(d), Some(c)) = (rel.get(tid), w.clean.relation(rid).get(tid)) {
                if d.values.len() == arity && c.values.len() == arity {
                    dirty_sub
                        .insert(d.eid, d.values.clone())
                        .expect("arity checked");
                    clean_sub
                        .insert(c.eid, c.values.clone())
                        .expect("arity checked");
                }
            }
        }
        let d = Database::from_relations(vec![dirty_sub]);
        let c = Database::from_relations(vec![clean_sub]);
        let rb = RbCleaner::train(&c, &d, RelId(0));
        time += modeled_seconds(rb.train_seconds, rb.meter.cost());
        rb.meter.reset();
        cleaners.push(remap_rb(rb, rid));
    }
    (cleaners, time)
}

// RbCleaner trains on a projected single-relation db (RelId(0)); detection
// must run against the workload's real relation id. RbCleaner keeps its
// relation id private, so we retrain against a view instead: cheaper to
// just store the mapping alongside.
pub struct RbForRel {
    pub cleaner: RbCleaner,
    pub rel: RelId,
}

fn remap_rb(cleaner: RbCleaner, rel: RelId) -> RbForRel {
    RbForRel { cleaner, rel }
}

impl RbForRel {
    /// Detect over the workload's relation by projecting it to RelId(0).
    pub fn detect(&self, db: &Database) -> (FxHashSet<CellRef>, f64) {
        let view = project(db, self.rel);
        let (cells, wall) = self.cleaner.detect(&view);
        (
            cells
                .into_iter()
                .map(|c| CellRef::new(self.rel, c.tid, c.attr))
                .collect(),
            wall,
        )
    }

    /// Correct over the workload's relation.
    pub fn correct(&self, db: &Database) -> (Database, f64) {
        let view = project(db, self.rel);
        let (fixed_view, wall) = self.cleaner.correct(&view);
        let mut out = db.clone();
        for t in fixed_view.relation(RelId(0)).iter() {
            for a in 0..t.values.len() {
                let attr = rock_data::AttrId(a as u16);
                if out.cell(self.rel, t.tid, attr) != Some(t.get(attr)) {
                    out.relation_mut(self.rel)
                        .set_cell(t.tid, attr, t.get(attr).clone());
                }
            }
        }
        (out, wall)
    }
}

fn project(db: &Database, rel: RelId) -> Database {
    let mut sub = rock_data::Relation::new(db.relation(rel).schema.clone());
    // preserve tuple ids by inserting in id order including tombstone gaps
    for tid in 0..db.relation(rel).capacity() as u32 {
        match db.relation(rel).get(TupleId(tid)) {
            Some(t) => {
                sub.insert(t.eid, t.values.clone())
                    .expect("projected row keeps its source arity");
            }
            None => {
                let arity = sub.schema.arity();
                let placeholder = sub
                    .insert(
                        rock_data::Eid(u32::MAX),
                        vec![rock_data::Value::Null; arity],
                    )
                    .expect("placeholder row matches schema arity");
                sub.delete(placeholder);
            }
        }
    }
    Database::from_relations(vec![sub])
}

/// Rock detection run for one task.
pub fn rock_detect(w: &Workload, task: &Task, variant: Variant, workers: usize) -> RunResult {
    rock_detect_parts(w, task, variant, workers, 4)
}

/// Rock detection with explicit work-unit granularity (scaling panels use
/// finer partitions so 20 modeled workers have units to balance).
pub fn rock_detect_parts(
    w: &Workload,
    task: &Task,
    variant: Variant,
    workers: usize,
    partitions_per_rule: u32,
) -> RunResult {
    let cost0 = w.registry.meter.cost();
    let sys = RockSystem::new(RockConfig {
        variant,
        workers,
        chase: rock_chase::ChaseConfig {
            partitions_per_rule,
            ..Default::default()
        },
        ..RockConfig::default()
    });
    let out = sys.detect(w, task);
    let ml = (w.registry.meter.cost() - cost0) * COST_UNIT_SECONDS;
    RunResult {
        system: variant.name().to_string(),
        metrics: out.metrics,
        modeled_seconds: out.wall_seconds + ml,
        unit_seconds: out.unit_seconds,
        ml_cost_seconds: ml,
    }
}

/// Rock correction run for one task; also returns the repaired database
/// (panels compute per-task ER/CR/MI/TD metrics from it).
pub fn rock_correct(
    w: &Workload,
    task: &Task,
    variant: Variant,
    workers: usize,
) -> (RunResult, Database) {
    rock_correct_parts(w, task, variant, workers, 4)
}

/// Rock correction with explicit work-unit granularity.
pub fn rock_correct_parts(
    w: &Workload,
    task: &Task,
    variant: Variant,
    workers: usize,
    partitions_per_rule: u32,
) -> (RunResult, Database) {
    let cost0 = w.registry.meter.cost();
    let sys = RockSystem::new(RockConfig {
        variant,
        workers,
        chase: rock_chase::ChaseConfig {
            partitions_per_rule,
            ..Default::default()
        },
        ..RockConfig::default()
    });
    let out = sys.correct(w, task);
    let ml = (w.registry.meter.cost() - cost0) * COST_UNIT_SECONDS;
    let result = RunResult {
        system: variant.name().to_string(),
        metrics: out.metrics,
        modeled_seconds: out.wall_seconds + ml,
        unit_seconds: out.unit_seconds,
        ml_cost_seconds: ml,
    };
    (result, out.repaired)
}

/// Duplicate pairs Rock identifies for an ER metric: run the chase engine
/// directly and read its merged pairs.
pub fn rock_merged_pairs(w: &Workload, task: &Task) -> Vec<(GlobalTid, GlobalTid)> {
    use rock_chase::{ChaseConfig, ChaseEngine};
    let rules = rock_core::variant::sorted_rules(&w.rules_for(task));
    let engine = ChaseEngine::new(&rules, &w.registry, ChaseConfig::default());
    let engine = match &w.graph {
        Some(g) => engine.with_graph(g),
        None => engine,
    };
    engine.run(&w.dirty, &w.trusted).merged_pairs
}

/// ES detection for one task.
pub fn es_detect(w: &Workload, task: &Task, rules: &RuleSet) -> RunResult {
    let cost0 = w.registry.meter.cost();
    let det = Detector::new(rules, &w.registry);
    let report = det.detect(&w.dirty);
    let metrics = detection_metrics(&report.flagged_cells, &w.truth, task.scope.as_ref());
    RunResult {
        system: "ES".into(),
        metrics,
        modeled_seconds: modeled_seconds(report.wall_seconds, w.registry.meter.cost() - cost0),
        unit_seconds: Vec::new(),
        ml_cost_seconds: 0.0,
    }
}

/// ES correction for one task.
pub fn es_correct_run(w: &Workload, task: &Task, rules: &RuleSet) -> RunResult {
    let cost0 = w.registry.meter.cost();
    let start = std::time::Instant::now();
    let repaired = es_correct(&w.dirty, rules, &w.registry);
    let metrics = correction_metrics(&w.dirty, &repaired, &w.clean, &w.truth, task.scope.as_ref());
    RunResult {
        system: "ES".into(),
        metrics,
        modeled_seconds: modeled_seconds(
            start.elapsed().as_secs_f64(),
            w.registry.meter.cost() - cost0,
        ),
        unit_seconds: Vec::new(),
        ml_cost_seconds: 0.0,
    }
}

/// T5s detection for one task.
pub fn t5s_detect(w: &Workload, task: &Task, model: &T5sModel) -> RunResult {
    model.meter.reset();
    let (flagged, wall) = model.detect(&w.dirty);
    let metrics = detection_metrics(&flagged, &w.truth, task.scope.as_ref());
    RunResult {
        system: "T5s".into(),
        metrics,
        modeled_seconds: modeled_seconds(wall, model.meter.cost()),
        unit_seconds: Vec::new(),
        ml_cost_seconds: 0.0,
    }
}

/// T5s correction for one task.
pub fn t5s_correct(w: &Workload, task: &Task, model: &T5sModel) -> RunResult {
    model.meter.reset();
    let (repaired, wall) = model.correct(&w.dirty);
    let metrics = correction_metrics(&w.dirty, &repaired, &w.clean, &w.truth, task.scope.as_ref());
    RunResult {
        system: "T5s".into(),
        metrics,
        modeled_seconds: modeled_seconds(wall, model.meter.cost()),
        unit_seconds: Vec::new(),
        ml_cost_seconds: 0.0,
    }
}

/// RB detection for one task.
pub fn rb_detect(w: &Workload, task: &Task, cleaners: &[RbForRel]) -> RunResult {
    let mut flagged = FxHashSet::default();
    let mut wall = 0.0;
    let mut cost = 0.0;
    for rb in cleaners {
        rb.cleaner.meter.reset();
        let (cells, t) = rb.detect(&w.dirty);
        flagged.extend(cells);
        wall += t;
        cost += rb.cleaner.meter.cost();
    }
    let metrics = detection_metrics(&flagged, &w.truth, task.scope.as_ref());
    RunResult {
        system: "RB".into(),
        metrics,
        modeled_seconds: modeled_seconds(wall, cost),
        unit_seconds: Vec::new(),
        ml_cost_seconds: 0.0,
    }
}

/// RB correction for one task.
pub fn rb_correct(w: &Workload, task: &Task, cleaners: &[RbForRel]) -> RunResult {
    let mut repaired = w.dirty.clone();
    let mut wall = 0.0;
    let mut cost = 0.0;
    for rb in cleaners {
        rb.cleaner.meter.reset();
        let (out, t) = rb.correct(&repaired);
        repaired = out;
        wall += t;
        cost += rb.cleaner.meter.cost();
    }
    let metrics = correction_metrics(&w.dirty, &repaired, &w.clean, &w.truth, task.scope.as_ref());
    RunResult {
        system: "RB".into(),
        metrics,
        modeled_seconds: modeled_seconds(wall, cost),
        unit_seconds: Vec::new(),
        ml_cost_seconds: 0.0,
    }
}

/// SQL-engine detection (whole-app rules).
pub fn sql_detect(w: &Workload, task: &Task, kind: SqlEngineKind) -> RunResult {
    let engine = SqlEngine::new(kind, &w.registry);
    let rules = w.rules_for(task);
    let report = engine.detect(&w.dirty, &rules);
    let metrics = detection_metrics(&report.flagged_cells, &w.truth, task.scope.as_ref());
    RunResult {
        system: kind.name().into(),
        metrics,
        modeled_seconds: modeled_seconds(report.wall_seconds, engine.meter.cost()),
        unit_seconds: Vec::new(),
        ml_cost_seconds: 0.0,
    }
}

/// SQL-engine correction.
pub fn sql_correct(w: &Workload, task: &Task, kind: SqlEngineKind) -> RunResult {
    let engine = SqlEngine::new(kind, &w.registry);
    let rules = w.rules_for(task);
    let (repaired, report) = engine.correct(&w.dirty, &rules, 8);
    let metrics = correction_metrics(&w.dirty, &repaired, &w.clean, &w.truth, task.scope.as_ref());
    RunResult {
        system: kind.name().into(),
        metrics,
        modeled_seconds: modeled_seconds(report.wall_seconds, engine.meter.cost()),
        unit_seconds: Vec::new(),
        ml_cost_seconds: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_workloads::workload::GenConfig;

    fn wl() -> Workload {
        rock_workloads::logistics::generate(&GenConfig {
            rows: 120,
            error_rate: 0.1,
            seed: 2,
            trusted_per_rel: 12,
        })
    }

    #[test]
    fn modeled_time_combines_wall_and_cost() {
        assert!((modeled_seconds(1.0, 1000.0) - 1.05).abs() < 1e-9);
    }

    #[test]
    fn rock_runner_produces_metrics() {
        let w = wl();
        let task = w.task("RClean").unwrap().clone();
        let r = rock_detect(&w, &task, Variant::Rock, 1);
        assert!(r.metrics.f1() > 0.0);
        assert!(r.modeled_seconds > 0.0);
    }

    #[test]
    fn baseline_runners_work_end_to_end() {
        let w = wl();
        let task = w.task("RClean").unwrap().clone();
        let (t5s, t5s_time) = t5s_train(&w);
        assert!(t5s_time > 0.0);
        let d = t5s_detect(&w, &task, &t5s);
        assert!(d.metrics.tp + d.metrics.fp + d.metrics.fn_ > 0);
        let (rbs, rb_time) = rb_train(&w);
        assert!(rb_time > 0.0);
        assert!(!rbs.is_empty());
        let d = rb_detect(&w, &task, &rbs);
        assert!(d.metrics.tp + d.metrics.fp + d.metrics.fn_ > 0);
        let (rules, es_time) = es_discovery(&w);
        assert!(es_time > 0.0);
        let d = es_detect(&w, &task, &rules);
        let _ = d;
    }

    #[test]
    fn rb_projection_preserves_tuple_ids() {
        let w = wl();
        let view = project(&w.dirty, RelId(0));
        assert_eq!(
            view.relation(RelId(0)).len(),
            w.dirty.relation(RelId(0)).len()
        );
        for t in w.dirty.relation(RelId(0)).iter().take(5) {
            assert_eq!(
                view.relation(RelId(0)).get(t.tid).map(|u| u.values.clone()),
                Some(t.values.clone())
            );
        }
    }
}
