//! Detection and correction at growing sizes (seed 42), for three
//! workloads:
//!
//! * **Logistics** at 3k, 6k and 12k rows, without ML. Three of its rules
//!   are FD-shaped (`rr_fd`, `rs_street`, `sn_fd`), so their valuations
//!   grow quadratically with the rows while their join runs grow linearly;
//!   the engine evaluates them per run.
//! * **Sales** at 1k, 2k and 4k rows, with ML (the `Rock` variant). Blocking
//!   installs each pair model's block filter, and the enumerator joins
//!   `ccn_er_ml` and `er_item` on its accepted pairs. Correction's blocking
//!   reinstalls the pass detection ran. The `memo_hits` column counts the
//!   ML lookups of detection plus the chase answered without inference:
//!   `predict_pair` calls answered by a block filter, and `Mrank` currency
//!   scores (`cin_td_rank`) read from the registry's memo.
//! * **Bank** at 2k, 4k and 8k rows, without ML. `cnc_cid`
//!   (`t.eid = s.eid -> t.cid = s.cid`) pairs every Customer with the
//!   members of its entity class: the enumerator joins `t.eid = s.eid` on
//!   the classes instead of testing it over the cross product.
//!
//! Each line prints detection and correction seconds, violations, chase
//! proposals and changed cells. At the smallest size of each workload the
//! production chase is also checked against the pairwise reference chase
//! (`rock::chase::reference`): the program exits non-zero if the changes,
//! conflicts or steps differ.
//!
//! A last line streams Bank (the `Rock` variant) as 20-update ΔD batches
//! (`rock::workloads::stream`, the benchmark's `bank-stream` draws at seed
//! 42) through `run_incremental`, each result the next batch's base, at 2k
//! and 8k base rows, and prints the per-batch p50 of each and their ratio
//! (reported, not gated: column snapshots, rows and entity classes are
//! patched rather than rebuilt per batch, and each delta unit costs what
//! its chunk holds, but the batch still clones the database it is given,
//! so the p50 still grows with the base; ROADMAP item 7). Both folds are
//! repeated with every base made cold by a JSON round trip; the program
//! exits non-zero if a fold and its cold twin differ in a byte. The
//! `column_patches` test holds the same equivalence on a 240-row instance
//! with every join index built; this check is on the timed folds
//! themselves, with the `Rock` variant's ML rules, so the p50s printed
//! are those of correct folds.
//!
//! ```text
//! cargo run --release --example scale_probe
//! ```

use rock::chase::{reference, ChaseEngine};
use rock::core::variant::{effective_rules, sorted_rules};
use rock::core::{RockConfig, Variant};
use rock::crystal::json;
use rock::detect::blocking::precompute_ml;
use rock::detect::Detector;
use rock::workloads::stream;
use rock::workloads::workload::{GenConfig, Workload};
use std::process::ExitCode;
use std::time::Instant;

fn gen(rows: usize) -> GenConfig {
    GenConfig {
        rows,
        error_rate: 0.08,
        seed: 42,
        trusted_per_rel: 40,
    }
}

/// One workload at one size; returns whether the production chase matched
/// the reference chase (`true` when the reference was not run).
fn probe(w: &Workload, variant: Variant, rows: usize, check: bool) -> bool {
    let config = RockConfig::default();
    let task = w.tasks.last().expect("the whole-database task");
    let rules = sorted_rules(&effective_rules(variant, &w.rules_for(task)));
    w.registry.meter.reset();

    let start = Instant::now();
    if variant.uses_ml() {
        precompute_ml(&w.dirty, &rules, &w.registry);
    }
    let detector = Detector::new(&rules, &w.registry);
    let detector = match &w.graph {
        Some(g) => detector.with_graph(g),
        None => detector,
    };
    let report = detector.detect(&w.dirty);
    let detect_s = start.elapsed().as_secs_f64();

    let engine = ChaseEngine::new(&rules, &w.registry, config.chase_config(w));
    let engine = match &w.graph {
        Some(g) => engine.with_graph(g),
        None => engine,
    };
    let start = Instant::now();
    if variant.uses_ml() {
        precompute_ml(&w.dirty, &rules, &w.registry);
    }
    let res = engine.run(&w.dirty, &w.trusted);
    let correct_s = start.elapsed().as_secs_f64();
    let proposals: usize = res.round_stats.iter().map(|r| r.proposals).sum();
    println!(
        "{:<9} {rows:>6} {detect_s:>9.3} {correct_s:>10.3} {:>11} {proposals:>10} {:>8} {:>9}",
        w.name,
        report.count(),
        res.changes.len(),
        w.registry.meter.memo_hits()
    );
    if !check {
        return true;
    }
    let naive = reference::run(&engine, &w.dirty, &w.trusted);
    let same = res.changes == naive.changes
        && res.conflicts == naive.conflicts
        && res.steps == naive.steps;
    println!(
        "          reference chase: {} changes, {} conflicts, {} steps — {}",
        naive.changes.len(),
        naive.conflicts,
        naive.steps,
        if same { "identical" } else { "DIFFERENT" }
    );
    same
}

/// Fold a Bank stream at `rows` base rows: the p50 seconds of its timed
/// batches, and the bytes of the database after each batch. With `cold`,
/// every base is first made cold by a JSON round trip.
fn stream_fold(rows: usize, cold: bool) -> (f64, Vec<Vec<u8>>) {
    const WARMUP: usize = 5;
    const TIMED: usize = 20;
    let w = rock::workloads::bank::generate(&gen(rows));
    let task = w.tasks.last().expect("the whole-database task");
    let rules = sorted_rules(&effective_rules(Variant::Rock, &w.rules_for(task)));
    let engine = ChaseEngine::new(&rules, &w.registry, RockConfig::default().chase_config(&w));
    let (mut base, deltas) = stream::generate(&w, 42, WARMUP + TIMED);
    let mut batch_s = Vec::new();
    let mut folded = Vec::new();
    for (i, delta) in deltas.iter().enumerate() {
        if cold {
            base = json::from_slice(&json::to_vec(&base)).expect("a database round-trips");
        }
        let start = Instant::now();
        let res = engine
            .run_incremental(&base, &w.trusted, delta)
            .expect("generated batches are well-formed");
        if i >= WARMUP {
            batch_s.push(start.elapsed().as_secs_f64());
        }
        base = res.db;
        folded.push(json::to_vec(&base));
    }
    batch_s.sort_by(f64::total_cmp);
    (batch_s[batch_s.len() / 2], folded)
}

fn main() -> ExitCode {
    println!(
        "{:<9} {:>6} {:>9} {:>10} {:>11} {:>10} {:>8} {:>9}",
        "workload",
        "rows",
        "detect_s",
        "correct_s",
        "violations",
        "proposals",
        "changes",
        "memo_hits"
    );
    let mut ok = true;
    for rows in [3_000, 6_000, 12_000] {
        let w = rock::workloads::logistics::generate(&gen(rows));
        ok &= probe(&w, Variant::RockNoMl, rows, rows == 3_000);
    }
    for rows in [1_000, 2_000, 4_000] {
        let w = rock::workloads::sales::generate(&gen(rows));
        ok &= probe(&w, Variant::Rock, rows, rows == 1_000);
    }
    for rows in [2_000, 4_000, 8_000] {
        let w = rock::workloads::bank::generate(&gen(rows));
        ok &= probe(&w, Variant::RockNoMl, rows, rows == 2_000);
    }
    let (small, carried) = stream_fold(2_000, false);
    let (large, carried_large) = stream_fold(8_000, false);
    let same = carried == stream_fold(2_000, true).1;
    let same_large = carried_large == stream_fold(8_000, true).1;
    let verdict = |same: bool| if same { "identical" } else { "DIFFERENT" };
    println!(
        "bank-stream batch p50: {:.2} ms at 2000 rows, {:.2} ms at 8000 rows, ratio {:.2}; \
         folds vs cold bases: 2000 rows {}, 8000 rows {}",
        small * 1e3,
        large * 1e3,
        large / small,
        verdict(same),
        verdict(same_large)
    );
    ok &= same && same_large;
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
