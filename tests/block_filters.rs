//! A detection or correction pass removes the block filters its blocking
//! installed, and discovery never reads one. A filter answers `false` for
//! every pair its pass did not score, so one left in the workload's model
//! registry would change what any later call on that workload computes:
//! discovery would lose the ML rules whose pairs the filter never saw, and
//! an incremental correction would decide new pairs from a filter built
//! for the old database.
//!
//! Each comparison runs every call on its own freshly generated Sales
//! workload (400 rows, seed 42), so the registries are never shared.

use rock::core::{RockConfig, RockSystem};
use rock::data::{Delta, TupleId, Update, Value};
use rock::detect::blocking::precompute_ml;
use rock::workloads::workload::GenConfig;
use rock::workloads::Workload;

fn sales() -> Workload {
    rock::workloads::sales::generate(&GenConfig::default())
}

fn system() -> RockSystem {
    RockSystem::new(RockConfig::default())
}

/// Run a whole-database correction on `w`, for the filters it would
/// leave behind.
fn correct(w: &Workload) {
    let task = w.task("SClean").unwrap().clone();
    system().correct(w, &task);
}

fn rule_texts(w: &Workload) -> Vec<String> {
    let schema = w.dirty.schema();
    let rules = system().discover(w).rules;
    rules
        .iter()
        .map(|r| r.display(&schema).to_string())
        .collect()
}

#[test]
fn discovery_after_correction_mines_the_same_rules() {
    let alone = rule_texts(&sales());
    let w = sales();
    correct(&w);
    assert_eq!(rule_texts(&w), alone);
    // discovery measures ML predicates by their models, so not even a
    // blocking pass whose filters are still installed changes a rule
    let w = sales();
    precompute_ml(&w.dirty, &w.rules, &w.registry);
    assert_eq!(rule_texts(&w), alone);
}

/// Renames a few Item and Firm tuples to variants of their neighbours'
/// names: new values that no earlier blocking pass scored.
fn renames(w: &Workload) -> Delta {
    let schema = w.dirty.schema();
    let mut updates = Vec::new();
    for rel in ["Item", "Firm"] {
        let rid = schema.rel_id(rel).unwrap();
        let name = schema.relation(rid).attr_id("name").unwrap();
        let r = w.dirty.relation(rid);
        for tid in (0..8).map(TupleId) {
            let Some(next) = r.get(TupleId(tid.0 + 1)) else {
                continue;
            };
            let value = Value::str(format!("{} co", next.get(name)));
            updates.push(Update::SetCell {
                rel: rid,
                tid,
                attr: name,
                value,
            });
        }
    }
    Delta::new(updates)
}

#[test]
fn incremental_correction_after_correction_repairs_the_same() {
    let incremental = |w: &Workload| {
        let task = w.task("SClean").unwrap().clone();
        system()
            .correct_incremental(w, &task, &renames(w))
            .unwrap()
            .repaired
    };
    let alone = incremental(&sales());
    let w = sales();
    correct(&w);
    assert!(
        incremental(&w) == alone,
        "a correction's block filters changed a later incremental repair"
    );
}
