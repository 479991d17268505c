//! Logistics at 3k, 6k and 12k rows (seed 42): detection and correction
//! seconds, violations, chase proposals and changed cells at each size.
//! Three of the workload's rules are FD-shaped (`rr_fd`, `rs_street`,
//! `sn_fd`), so their valuations grow quadratically with the rows while
//! their join runs grow linearly; the engine evaluates them per run.
//!
//! At 3k rows the production chase is also checked against the pairwise
//! reference chase (`rock::chase::reference`): the program exits non-zero
//! if the changes, conflicts or steps differ.
//!
//! ```text
//! cargo run --release --example logistics_scale
//! ```

use rock::chase::{reference, ChaseEngine};
use rock::core::variant::{effective_rules, sorted_rules};
use rock::core::{RockConfig, Variant};
use rock::detect::Detector;
use rock::workloads::workload::GenConfig;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let config = RockConfig::default();
    println!(
        "{:>6} {:>9} {:>10} {:>11} {:>10} {:>8}",
        "rows", "detect_s", "correct_s", "violations", "proposals", "changes"
    );
    let mut ok = true;
    for rows in [3_000, 6_000, 12_000] {
        let w = rock::workloads::logistics::generate(&GenConfig {
            rows,
            error_rate: 0.08,
            seed: 42,
            trusted_per_rel: 40,
        });
        let task = w.tasks.last().expect("the whole-database task");
        let rules = sorted_rules(&effective_rules(Variant::RockNoMl, &w.rules_for(task)));

        let start = Instant::now();
        let report = Detector::new(&rules, &w.registry).detect(&w.dirty);
        let detect_s = start.elapsed().as_secs_f64();

        let engine = ChaseEngine::new(&rules, &w.registry, config.chase_config(&w));
        let start = Instant::now();
        let res = engine.run(&w.dirty, &w.trusted);
        let correct_s = start.elapsed().as_secs_f64();
        let proposals: usize = res.round_stats.iter().map(|r| r.proposals).sum();
        println!(
            "{rows:>6} {detect_s:>9.3} {correct_s:>10.3} {:>11} {proposals:>10} {:>8}",
            report.count(),
            res.changes.len()
        );

        if rows == 3_000 {
            let naive = reference::run(&engine, &w.dirty, &w.trusted);
            let same = res.changes == naive.changes
                && res.conflicts == naive.conflicts
                && res.steps == naive.steps;
            println!(
                "       reference chase: {} changes, {} conflicts, {} steps — {}",
                naive.changes.len(),
                naive.conflicts,
                naive.steps,
                if same { "identical" } else { "DIFFERENT" }
            );
            ok &= same;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
