//! The figure harness: regenerates every panel of the paper's Figure 4.
//!
//! ```text
//! cargo run --release -p rock-bench --bin figures -- all
//! cargo run --release -p rock-bench --bin figures -- f4a f4h
//! ```
//!
//! Panels: f4a f4b f4c (RD time), f4d f4e f4f (ED F1), f4g (ED time),
//! f4h (ED scaling), f4i (EC F1), f4j (Sales-EC per task), f4k (EC time),
//! f4l (EC scaling), rdcache (bitset-cache vs scan discovery throughput),
//! chase-delta (production chase vs reference chase valuation counts),
//! analyze (ruleset static analysis: defect recall + scheduled production
//! chase vs the reference's classic activation),
//! certify (chase certifier: termination class, certified vs observed
//! round bounds, repairs byte-identical to the reference per workload),
//! chaos (fault injection: byte-identical repairs under panics, transient
//! errors, stragglers and a node crash; seed via `ROCK_CHAOS_SEED`),
//! durability (WAL + checkpoint chase: byte-identical durable repairs,
//! resume-from-every-round, provenance query per repaired cell),
//! crashsim (storage fault injection: crash sweep over the recorded I/O
//! trace, WAL disk bound after compaction, degradation ladder; seed via
//! `ROCK_CRASHSIM_SEED`),
//! columnar (typed-column data plane vs row store: byte-identical
//! detections and repairs on all workloads, >=2x vectorized scan speedup).
//! Output is printed and written to `results/` (atomically: temp+rename).
//! Every run also emits `results/BENCH_trajectory.json` — per-panel wall
//! seconds plus the semantic ratio metrics the CI trajectory gate
//! (`scripts/check_trajectory.py`) compares against the committed
//! baseline.

use rock_bench::panels;
use rock_bench::table::Table;
use rock_data::{
    json,
    json::{FromJson, Json},
};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// The §6 "Summary" panel: the paper's headline claims recomputed from
/// fresh runs (see EXPERIMENTS.md for the full record).
fn summary() -> (Table, Json) {
    use rock_bench::runners;
    use rock_core::Variant;
    let mut table = Table::new(
        "§6 Summary — paper claim vs measured",
        &["claim", "paper", "measured"],
    );
    let w = panels::sales();
    let task = w.tasks.last().unwrap().clone();
    let rock = runners::rock_correct(&w, &task, Variant::Rock, 1).0;
    let noml = runners::rock_correct(&w, &task, Variant::RockNoMl, 1).0;
    let seq = runners::rock_correct(&w, &task, Variant::RockSeq, 1).0;
    let noc = runners::rock_correct(&w, &task, Variant::RockNoC, 1).0;
    table.row(vec![
        "Sales EC F1 (Rock)".into(),
        "~0.88–0.97".into(),
        format!("{:.3}", rock.metrics.f1()),
    ]);
    table.row(vec![
        "ML predicates lift (Rock vs RocknoML)".into(),
        "+20.5% avg, up to +59.2%".into(),
        format!("+{:.1}%", (rock.metrics.f1() - noml.metrics.f1()) * 100.0),
    ]);
    table.row(vec![
        "Rockseq F1 == Rock F1".into(),
        "equal".into(),
        format!("{:.3} vs {:.3}", seq.metrics.f1(), rock.metrics.f1()),
    ]);
    table.row(vec![
        "RocknoC (no interactions) trails Rock".into(),
        "23.7% vs 88.5%".into(),
        format!("{:.3} vs {:.3}", noc.metrics.f1(), rock.metrics.f1()),
    ]);
    table.row(vec![
        "Rockseq slower than Rock".into(),
        "32 vs 29 min".into(),
        format!(
            "{:.0}ms vs {:.0}ms",
            seq.modeled_seconds * 1000.0,
            rock.modeled_seconds * 1000.0
        ),
    ]);
    let json = json!({
        "panel": "summary",
        "rock_f1": rock.metrics.f1(),
        "noml_f1": noml.metrics.f1(),
        "seq_f1": seq.metrics.f1(),
        "noc_f1": noc.metrics.f1(),
    });
    (table, json)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let panels_requested: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        [
            "f4a",
            "f4b",
            "f4c",
            "f4d",
            "f4e",
            "f4f",
            "f4g",
            "f4h",
            "f4i",
            "f4j",
            "f4k",
            "f4l",
            "rdcache",
            "chase-delta",
            "analyze",
            "certify",
            "chaos",
            "durability",
            "crashsim",
            "columnar",
            "lint",
            "summary",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    } else {
        args
    };

    fs::create_dir_all("results").expect("create results/");

    let mut trajectory_panels = BTreeMap::<String, Json>::new();
    let mut trajectory_metrics = BTreeMap::<String, Json>::new();
    for p in &panels_requested {
        let started = std::time::Instant::now();
        let (table, json): (Table, Json) = match p.as_str() {
            "f4a" => panels::rd_time("Bank"),
            "f4b" => panels::rd_time("Logistics"),
            "f4c" => panels::rd_time("Sales"),
            "f4d" => panels::ed_f1("Bank"),
            "f4e" => panels::ed_f1("Logistics"),
            "f4f" => panels::ed_f1("Sales"),
            "f4g" => panels::ed_time(),
            "f4h" => panels::ed_scaling(),
            "f4i" => panels::ec_f1(),
            "f4j" => panels::ec_per_task(),
            "f4k" => panels::ec_time(),
            "f4l" => panels::ec_scaling(),
            "rdcache" => panels::rd_cache(),
            "chase-delta" => panels::chase_delta(),
            "analyze" => panels::analyze(),
            "certify" => panels::certify(),
            "chaos" => panels::chaos(),
            "durability" => panels::durability(),
            "crashsim" => panels::crashsim(),
            "columnar" => panels::columnar(),
            "lint" => panels::lint(),
            "summary" => summary(),
            other => {
                eprintln!(
                    "unknown panel '{other}' — expected f4a..f4l, rdcache, chase-delta, analyze, certify, chaos, durability, crashsim, columnar, lint, summary, or all"
                );
                std::process::exit(2);
            }
        };
        let wall = started.elapsed().as_secs_f64();
        trajectory_panels.insert(p.clone(), json!({ "wall_seconds": wall }));
        // semantic ratio metrics (runner-speed invariant) for the gate
        match p.as_str() {
            "durability" => {
                for k in ["overhead_ratio", "resume_points", "checkpoints"] {
                    if let Some(v) = json.get(k) {
                        trajectory_metrics.insert(format!("durability_{k}"), v.clone());
                    }
                }
            }
            "crashsim" => {
                for k in ["wal_disk_bound_ratio", "recovery_wall_ratio"] {
                    if let Some(v) = json.get(k) {
                        trajectory_metrics.insert(k.to_string(), v.clone());
                    }
                }
            }
            "chaos" => {
                let c = json
                    .get("clean_wall_seconds")
                    .and_then(|v| f64::from_json(v).ok());
                let ch = json
                    .get("chaos_wall_seconds")
                    .and_then(|v| f64::from_json(v).ok());
                if let (Some(c), Some(ch)) = (c, ch) {
                    if c > 0.0 {
                        trajectory_metrics.insert("chaos_wall_ratio".into(), json!(ch / c));
                    }
                }
            }
            "chase-delta" => {
                let full = json
                    .get("full_valuations_total")
                    .and_then(|v| f64::from_json(v).ok());
                let semi = json
                    .get("semi_valuations_total")
                    .and_then(|v| f64::from_json(v).ok());
                if let (Some(full), Some(semi)) = (full, semi) {
                    if semi > 0.0 {
                        trajectory_metrics
                            .insert("chase_delta_valuation_ratio".into(), json!(full / semi));
                    }
                }
            }
            "columnar" => {
                if let Some(v) = json.get("scan_speedup") {
                    trajectory_metrics.insert("columnar_scan_speedup_ratio".into(), v.clone());
                }
            }
            "analyze" => {
                if let Some(v) = json.get("rule_rounds_ratio") {
                    trajectory_metrics.insert("analyze_rule_rounds_ratio".into(), v.clone());
                }
            }
            "certify" => {
                if let Some(v) = json.get("bound_margin_ratio") {
                    trajectory_metrics.insert("certify_bound_margin_ratio".into(), v.clone());
                }
            }
            "lint" => {
                // lint_violations is a must-stay-zero metric: the gate
                // fails on any nonzero value regardless of slack
                if let Some(v) = json.get("lint_violations") {
                    trajectory_metrics.insert("lint_violations".into(), v.clone());
                }
                if let Some(v) = json.get("fixture_recall") {
                    trajectory_metrics.insert("lint_fixture_recall_ratio".into(), v.clone());
                }
            }
            _ => {}
        }
        let rendered = table.render();
        println!("{rendered}");
        println!(
            "  [panel {p} regenerated in {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
        let txt_path = Path::new("results").join(format!("{p}.txt"));
        rock_bench::write_atomic(&txt_path, &rendered).expect("write panel text");
        let json_path = Path::new("results").join(format!("{p}.json"));
        rock_bench::write_atomic(&json_path, json.to_pretty()).expect("write panel json");
    }
    // Trajectory record for the CI regression gate: per-panel wall seconds
    // plus the runner-speed-invariant ratio metrics collected above.
    let trajectory = json!({
        "panels": trajectory_panels,
        "metrics": trajectory_metrics,
    });
    let traj_path = Path::new("results").join("BENCH_trajectory.json");
    rock_bench::write_atomic(&traj_path, trajectory.to_pretty()).expect("write trajectory json");
    println!(
        "wrote {} panels + BENCH_trajectory.json to results/",
        panels_requested.len()
    );
}
