//! A detection or correction pass removes the block filters its blocking
//! installed, and discovery never reads one. A filter answers `false` for
//! every pair its pass did not score, so one left in the workload's model
//! registry would change what any later call on that workload computes:
//! discovery would lose the ML rules whose pairs the filter never saw, and
//! an incremental correction would decide new pairs from a filter built
//! for the old database.
//!
//! The registry keeps the last blocking pass, so `correct` after `detect`
//! on an unchanged database reinstalls detection's filters instead of
//! scoring again. The key is the identity of the column snapshots the pass
//! read: an edited database gets a fresh pass, equal to one run from
//! scratch, and nothing is kept once `correct` returns.
//!
//! Each comparison runs every call on its own freshly generated Sales
//! workload (400 rows, seed 42), so the registries are never shared.

use rock::core::variant::{effective_rules, sorted_rules};
use rock::core::{RockConfig, RockSystem};
use rock::crystal::json;
use rock::data::{Database, Delta, TupleId, Update, Value};
use rock::detect::blocking::precompute_ml;
use rock::ml::{BlockingPass, ModelRegistry};
use rock::rees::RuleSet;
use rock::workloads::workload::GenConfig;
use rock::workloads::{Task, Workload};

fn sales() -> Workload {
    rock::workloads::sales::generate(&GenConfig::default())
}

fn system() -> RockSystem {
    RockSystem::new(RockConfig::default())
}

/// Run a whole-database correction on `w`, for the filters it would
/// leave behind.
fn correct(w: &Workload) {
    system().correct(w, &whole(w));
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
    // detection keeps its blocking pass in the registry, uninstalled
    let w = sales();
    system().detect(&w, &whole(&w));
    assert!(w.registry.blocking_pass().is_some());
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

fn whole(w: &Workload) -> Task {
    w.task("SClean").unwrap().clone()
}

/// The rules `RockSystem` runs for `task` with the default variant.
fn task_rules(w: &Workload, task: &Task) -> RuleSet {
    sorted_rules(&effective_rules(
        RockConfig::default().variant,
        &w.rules_for(task),
    ))
}

/// Whether no model of `rules` has a block filter installed.
fn no_filters(rules: &RuleSet, reg: &ModelRegistry) -> bool {
    rules.iter().all(|r| {
        r.all_predicates().all(|p| match p {
            rock::rees::Predicate::Ml { model, .. } => reg.block_filter(model.resolved()).is_none(),
            _ => true,
        })
    })
}

/// A pass's filters as sorted `(model, left key, right key, verdict)`.
fn verdicts(pass: &BlockingPass) -> Vec<(u32, u64, u64, bool)> {
    let mut out: Vec<_> = pass
        .filters
        .iter()
        .flat_map(|(id, f)| f.iter().map(move |((l, r), v)| (id.0, l, r, v)))
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn correction_after_detection_reuses_its_blocking_pass() {
    let w = sales();
    let task = whole(&w);
    let rules = task_rules(&w, &task);
    let detected = system().detect(&w, &task).blocking;
    assert!(detected.as_ref().is_some_and(|b| b.candidate_pairs > 0));
    assert!(
        no_filters(&rules, &w.registry),
        "detect uninstalls its filters"
    );
    let kept = w.registry.blocking_pass().expect("detect keeps its pass");

    // correct's blocking on the same snapshots reinstalls the kept pass
    // and runs no inference
    let inferences = w.registry.meter.inferences();
    let stats = precompute_ml(&w.dirty, &rules, &w.registry);
    assert_eq!(w.registry.meter.inferences(), inferences);
    assert_eq!(Some(stats), detected);
    let reinstalled = w.registry.blocking_pass().unwrap();
    assert!(std::sync::Arc::ptr_eq(&kept, &reinstalled));
    assert!(!no_filters(&rules, &w.registry));

    // the pass is the one a fresh workload's detection runs
    let fresh = sales();
    assert_eq!(system().detect(&fresh, &task).blocking, detected);
    assert_eq!(
        verdicts(&fresh.registry.blocking_pass().unwrap()),
        verdicts(&kept)
    );
}

#[test]
fn correction_repairs_the_same_with_or_without_detection_and_keeps_nothing() {
    let alone = sales();
    let task = whole(&alone);
    let rules = task_rules(&alone, &task);
    let expected = json::to_vec(&system().correct(&alone, &task).repaired);
    let w = sales();
    system().detect(&w, &task);
    let repaired = json::to_vec(&system().correct(&w, &task).repaired);
    assert!(repaired == expected, "detection changed the repair");
    for w in [&alone, &w] {
        assert!(
            w.registry.blocking_pass().is_none(),
            "correct keeps no pass"
        );
        assert!(no_filters(&rules, &w.registry));
    }
}

/// `w.dirty` with the first Firm's name replaced by a value no pass has
/// scored. The copy shares every snapshot until the write.
fn renamed_firm(w: &Workload) -> Database {
    let schema = w.dirty.schema();
    let firm = schema.rel_id("Firm").unwrap();
    let name = schema.relation(firm).attr_id("name").unwrap();
    let mut db = w.dirty.clone();
    let tid = db.relation(firm).iter().next().unwrap().tid;
    assert!(db
        .relation_mut(firm)
        .set_cell(tid, name, Value::str("Quixotic Zephyr Holdings")));
    db
}

#[test]
fn an_edited_snapshot_gets_a_fresh_pass() {
    let w = sales();
    let task = whole(&w);
    let rules = task_rules(&w, &task);
    system().detect(&w, &task);
    let kept = w.registry.blocking_pass().unwrap();

    let edited = renamed_firm(&w);
    let inferences = w.registry.meter.inferences();
    let stats = precompute_ml(&edited, &rules, &w.registry);
    assert!(
        w.registry.meter.inferences() > inferences,
        "no fresh pass ran"
    );
    let pass = w.registry.blocking_pass().unwrap();
    assert!(!std::sync::Arc::ptr_eq(&kept, &pass));
    assert_ne!(verdicts(&pass), verdicts(&kept));

    // equal to the pass over the same edit of a fresh workload
    let fresh = sales();
    let fresh_stats = precompute_ml(&renamed_firm(&fresh), &rules, &fresh.registry);
    assert_eq!(stats, fresh_stats);
    assert_eq!(
        verdicts(&pass),
        verdicts(&fresh.registry.blocking_pass().unwrap())
    );

    // and the unedited database no longer matches the kept pass either
    let inferences = w.registry.meter.inferences();
    precompute_ml(&w.dirty, &rules, &w.registry);
    assert!(w.registry.meter.inferences() > inferences);
    assert_eq!(
        verdicts(&w.registry.blocking_pass().unwrap()),
        verdicts(&kept)
    );
}
