//! Property suite for `rock-analyze` (static ruleset analysis).
//!
//! Two guarantees are pinned down here:
//!
//! 1. **Defect recall** — every defect class seeded by
//!    `rock_workloads::defects` is reported with its expected diagnostic
//!    code on the expected rule, across workloads and seeds (100% recall)
//!    — including the certifier band (`E301`/`W301`/`W302`).
//! 2. **No false positives** — the curated rulesets of all three standard
//!    workloads analyze clean, earn a finite-bound termination
//!    certificate, and injected-defect runs never flag an original
//!    (non-injected) rule.
//!
//! That the chase, which always runs under the schedule these passes
//! derive, commits what unscheduled activation commits — with no more
//! rule × round pairs and inside its certificate — is checked by
//! `tests/engine_equivalence.rs`.

use rock::analyze::Analyzer;
use rock::workloads::workload::{GenConfig, Workload};
use rock::workloads::{inject_defects, DefectKind};
use rock_data::FxHashSet;

/// Defect recall is seed-independent: every injected defect is reported
/// with its expected code on its expected rule, for every injection seed.
#[test]
fn injected_defects_all_flagged() {
    let w = rock::workloads::bank::generate(&GenConfig {
        rows: 40,
        ..GenConfig::default()
    });
    for seed in 0..32 {
        check_recall(&w, seed);
    }
}

fn check_recall(w: &Workload, seed: u64) {
    let schema = w.dirty.schema();
    let (defective, injected) = inject_defects(&w.rules, &schema, seed, &DefectKind::ALL);
    let report = Analyzer::new(&schema).analyze(&defective);
    for d in &injected {
        assert!(
            report
                .diagnostics
                .iter()
                .any(|diag| diag.rule == d.rule_name && diag.code == d.expected),
            "defect {:?} on '{}' not reported as {}; got {:#?}",
            d.kind,
            d.rule_name,
            d.expected.as_str(),
            report.diagnostics
        );
    }
    // no spillover: every diagnostic names an injected rule, never one of
    // the curated originals
    let originals: FxHashSet<&str> = w.rules.iter().map(|r| r.name.as_str()).collect();
    for diag in &report.diagnostics {
        assert!(
            !originals.contains(diag.rule.as_str()),
            "curated rule '{}' falsely flagged: {diag}",
            diag.rule
        );
    }
}

/// 100% recall on every workload's curated base (the test above sweeps
/// seeds on bank; this pins all three workloads).
#[test]
fn injected_defects_flagged_on_all_workloads() {
    let cfg = GenConfig {
        rows: 40,
        ..GenConfig::default()
    };
    for w in [
        rock::workloads::bank::generate(&cfg),
        rock::workloads::logistics::generate(&cfg),
        rock::workloads::sales::generate(&cfg),
    ] {
        for seed in [1, 5, 9] {
            check_recall(&w, seed);
        }
    }
}

/// Zero false positives: the curated rulesets are clean oracles.
#[test]
fn curated_rulesets_analyze_clean() {
    let cfg = GenConfig {
        rows: 40,
        ..GenConfig::default()
    };
    for (name, w) in [
        ("bank", rock::workloads::bank::generate(&cfg)),
        ("logistics", rock::workloads::logistics::generate(&cfg)),
        ("sales", rock::workloads::sales::generate(&cfg)),
    ] {
        let schema = w.dirty.schema();
        let report = Analyzer::new(&schema).analyze(&w.rules);
        assert!(
            report.is_clean(),
            "{name} curated rules flagged: {:#?}",
            report.diagnostics
        );
        assert_eq!(report.exit_code(), 0);
        // every curated ruleset earns a finite-bound termination
        // certificate — the certifier never refuses a bound on them
        assert_ne!(
            report.schedule.class,
            rock::rees::TerminationClass::Unbounded,
            "{name} curated rules must certify as terminating"
        );
        assert!(
            report.schedule.bound.is_some(),
            "{name} curated rules must earn a finite round bound"
        );
    }
}
