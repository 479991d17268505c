//! The Figure 4 panels (paper §6). Each function renders one panel as a
//! [`crate::table::Table`] and returns it together with a machine-readable
//! JSON value for `results/`.

use crate::runners::{self, RunResult};
use crate::table::{fmt_f1, fmt_secs, Table};
use rock_baselines::sqlengine::SqlEngineKind;
use rock_core::Variant;
use rock_crystal::scheduler::makespan_lpt;
use rock_data::{json, json::Json, CellRef, FxHashSet};
use rock_workloads::metrics::{correction_metrics, detection_metrics, er_pair_metrics};
use rock_workloads::workload::GenConfig;
use rock_workloads::Workload;

/// Workload scales for the panels (laptop-size; shapes, not magnitudes).
pub fn bank() -> Workload {
    rock_workloads::bank::generate(&GenConfig {
        rows: 240,
        error_rate: 0.08,
        seed: 42,
        trusted_per_rel: 30,
    })
}

pub fn logistics() -> Workload {
    rock_workloads::logistics::generate(&GenConfig {
        rows: 360,
        error_rate: 0.08,
        seed: 43,
        trusted_per_rel: 30,
    })
}

pub fn sales() -> Workload {
    rock_workloads::sales::generate(&GenConfig {
        rows: 240,
        error_rate: 0.08,
        seed: 44,
        trusted_per_rel: 30,
    })
}

/// The production chase and the reference chase (`rock_chase::reference`)
/// over `rules`, both configured the way `RockSystem` configures the chase
/// for `w`, each with its wall seconds. Panels that used to compare two
/// engine flags compare these two.
fn chase_both(
    w: &Workload,
    rules: &rock_rees::RuleSet,
) -> (
    (rock_chase::ChaseResult, f64),
    (rock_chase::ReferenceResult, f64),
) {
    let cfg = rock_core::RockConfig::default().chase_config(w);
    let engine = rock_chase::ChaseEngine::new(rules, &w.registry, cfg);
    let engine = match &w.graph {
        Some(g) => engine.with_graph(g),
        None => engine,
    };
    let t0 = std::time::Instant::now();
    let prod = engine.run(&w.dirty, &w.trusted);
    let prod_wall = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let naive = rock_chase::reference::run(&engine, &w.dirty, &w.trusted);
    let naive_wall = t1.elapsed().as_secs_f64();
    assert_eq!(
        prod.db, naive.db,
        "production and reference chases must repair identically"
    );
    assert_eq!(
        (prod.changes.len(), prod.merged_pairs.len(), prod.conflicts),
        (
            naive.changes.len(),
            naive.merged_pairs.len(),
            naive.conflicts
        ),
        "production and reference chases must agree on changes/merges/conflicts"
    );
    assert!(
        prod.rounds <= naive.rounds,
        "the schedule must not add rounds"
    );
    ((prod, prod_wall), (naive, naive_wall))
}

fn rule_rounds(stats: &[rock_chase::RoundStats]) -> usize {
    stats.iter().map(|s| s.active_rules).sum()
}

fn app(name: &str) -> Workload {
    match name {
        "Bank" => bank(),
        "Logistics" => logistics(),
        "Sales" => sales(),
        other => panic!("unknown app {other}"),
    }
}

/// Paper dataset sizes in tuples (§6): Bank 1.5B, Logistics 16M, Sales
/// 0.62B.
fn paper_tuples(app_name: &str) -> f64 {
    match app_name {
        "Bank" => 1.5e9,
        "Logistics" => 16e6,
        _ => 0.62e9,
    }
}

/// Extrapolate a measured time to the paper's dataset size under a stated
/// complexity exponent and hardware-parallelism divisor (the assumptions
/// are recorded in EXPERIMENTS.md). Renders ">1 day" past the paper's cap.
fn at_scale(measured: f64, ours: f64, paper: f64, exponent: f64, parallelism: f64) -> String {
    let t = measured * (paper / ours).powf(exponent) / parallelism;
    if t > 86_400.0 {
        ">1 day".to_string()
    } else {
        fmt_secs(t)
    }
}

/// Panels 4(a)/(b)/(c): rule-discovery time per task. Two numbers per
/// system: measured at laptop scale, and modeled at the paper's dataset
/// size — the paper's headline ("ES, T5s and RB cannot finish rule
/// discovery or model training within one day") is a *scale* statement:
/// ES's unsampled evidence pass is quadratic in N, while Rock mines on a
/// 10% sample with parallel scalability.
pub fn rd_time(app_name: &str) -> (Table, Json) {
    let w = app(app_name);
    let n_ours = w.dirty.total_tuples() as f64;
    let n_paper = paper_tuples(app_name);
    let tasks: Vec<String> = w.tasks.iter().map(|t| t.name.clone()).collect();
    let mut table = Table::new(
        format!("Fig 4 RD time — {app_name} (measured | modeled @ {n_paper:.1e} tuples)"),
        &["task", "Rock", "RocknoML", "ES", "T5s", "RB"],
    );
    let mut rows_json = Vec::new();
    // Discovery/training is application-level (the paper re-runs per task;
    // our curated tasks share the relations, so per-task numbers differ
    // only via the task's relation subset — we report the app-level run on
    // every task row, matching the paper's near-identical per-task bars).
    let rock = runners::rock_discovery_time(&w, Variant::Rock);
    let noml = runners::rock_discovery_time(&w, Variant::RockNoMl);
    let (_, es) = runners::es_discovery(&w);
    let (_, t5s) = runners::t5s_train(&w);
    let (_, rb) = runners::rb_train(&w);
    // exponents: Rock/RocknoML mine samples with index joins (~linear in
    // N); ES materializes all-pairs evidence (quadratic); T5s/RB are
    // linear with transformer / feature-engineering constants. Parallelism
    // divisors: 672 = the paper's 21 nodes × 32 cores for the parallelly
    // scalable systems, 100 ≈ a GPU pod for T5s, 10 ≈ one multicore node
    // for RB.
    let cell = |measured: f64, exp: f64, par: f64| -> String {
        format!(
            "{} | {}",
            fmt_secs(measured),
            at_scale(measured, n_ours, n_paper, exp, par)
        )
    };
    for t in &tasks {
        table.row(vec![
            t.clone(),
            cell(rock, 1.0, 672.0),
            cell(noml, 1.0, 672.0),
            cell(es, 2.0, 672.0),
            cell(t5s, 1.0, 100.0),
            cell(rb, 1.0, 10.0),
        ]);
        rows_json.push(json!({
            "task": t, "Rock": rock, "RocknoML": noml, "ES": es, "T5s": t5s, "RB": rb,
            "ours_tuples": n_ours, "paper_tuples": n_paper,
        }));
    }
    (
        table,
        json!({ "panel": format!("rd-{app_name}"), "rows": rows_json }),
    )
}

/// Extra panel: candidate-evaluation throughput of the levelwise miner
/// (predicate satisfaction-bitset cache) vs its tuple re-scan reference
/// (`Discoverer::mine_relation_scan`), on the Logistics app with ML
/// predicates in the space. Both mine the identical rule set (asserted
/// here), so the speedup column is a like-for-like kernel comparison.
pub fn rd_cache() -> (Table, Json) {
    use rock_data::RelId;
    use rock_discovery::levelwise::{Discoverer, DiscoveryConfig};
    use rock_discovery::space::{PredicateSpace, SpaceConfig};

    let w = logistics();
    let sigs = rock_core::ml_signatures(&w);
    let space = PredicateSpace::build(&w.dirty, RelId(0), &sigs, &SpaceConfig);
    let base_cfg = DiscoveryConfig {
        min_support: 1e-4,
        min_confidence: 0.9,
        max_preconditions: 2,
        ..Default::default()
    };

    let miner = Discoverer::new(&w.registry, base_cfg);
    let scan = miner.mine_relation_scan(&w.dirty, RelId(0), &space);
    let cached = miner.mine_relation(&w.dirty, RelId(0), &space);
    assert_eq!(
        cached.rules.rules, scan.rules.rules,
        "the miner and its scan reference must mine identical rules"
    );

    let mut table = Table::new(
        "RD cache — bitset kernels vs tuple re-scan (Logistics)",
        &[
            "path",
            "wall",
            "candidates",
            "cand/s",
            "speedup",
            "cache (hit% ev sp peakKiB)",
        ],
    );
    let mut rows_json = Vec::new();
    let mut row = |name: &str, r: &rock_discovery::levelwise::DiscoveryReport| {
        let throughput = r.candidates_evaluated as f64 / r.wall_seconds.max(1e-9);
        let speedup = scan.wall_seconds / r.wall_seconds.max(1e-9);
        let cache_cell = match &r.cache {
            Some(s) => format!(
                "{:.0}% {} {} {:.0}",
                s.hit_rate() * 100.0,
                s.evictions,
                s.spills,
                s.bytes_peak as f64 / 1024.0
            ),
            None => "-".into(),
        };
        table.row(vec![
            name.into(),
            fmt_secs(r.wall_seconds),
            r.candidates_evaluated.to_string(),
            format!("{throughput:.0}"),
            format!("{speedup:.2}x"),
            cache_cell,
        ]);
        rows_json.push(json!({
            "path": name,
            "wall_seconds": r.wall_seconds,
            "candidates_evaluated": r.candidates_evaluated,
            "candidates_per_second": throughput,
            "speedup_vs_scan": speedup,
            "rules": r.rules.len(),
            "cache": r.cache.as_ref().map(|s| json!({
                "hits": s.hits, "misses": s.misses, "hit_rate": s.hit_rate(),
                "evictions": s.evictions, "spills": s.spills,
                "bytes_peak": s.bytes_peak, "budget_bytes": s.budget_bytes,
            })),
        }));
    };
    row("scan", &scan);
    row("bitset (64 MiB budget)", &cached);
    (table, json!({ "panel": "rdcache", "rows": rows_json }))
}

/// Extra panel: the production chase (semi-naive delta rounds) vs the
/// reference chase (every active rule re-enumerated in full each round) on
/// the Logistics correction task. Both repair the database identically
/// (asserted in `chase_both`; `tests/engine_equivalence.rs` holds the pair
/// together); the per-round rows show the valuation-count reduction the
/// delta restriction buys from round 2 on.
pub fn chase_delta() -> (Table, Json) {
    let w = logistics();
    let task = w.task("RClean").expect("RClean task").clone();
    let rules = rock_core::variant::sorted_rules(&w.rules_for(&task));
    let ((semi, semi_wall), (full, full_wall)) = chase_both(&w, &rules);

    let mut table = Table::new(
        "Chase delta — semi-naive vs full re-scan (Logistics EC)",
        &[
            "round",
            "full valuations",
            "semi valuations",
            "delta tuples",
            "carried",
            "reduction",
        ],
    );
    let mut rows_json = Vec::new();
    for (i, (f, s)) in full.round_stats.iter().zip(&semi.round_stats).enumerate() {
        let reduction = if f.valuations > 0 {
            1.0 - s.valuations as f64 / f.valuations as f64
        } else {
            0.0
        };
        table.row(vec![
            i.to_string(),
            f.valuations.to_string(),
            s.valuations.to_string(),
            s.delta_tuples.to_string(),
            s.carried.to_string(),
            format!("{:.0}%", reduction * 100.0),
        ]);
        rows_json.push(json!({
            "round": i,
            "full_valuations": f.valuations,
            "semi_valuations": s.valuations,
            "semi_delta_tuples": s.delta_tuples,
            "semi_carried": s.carried,
            "active_rules": s.active_rules,
            "proposals": s.proposals,
        }));
    }
    let total = |rs: &[rock_chase::RoundStats]| rs.iter().map(|r| r.valuations).sum::<u64>();
    let (tv_full, tv_semi) = (total(&full.round_stats), total(&semi.round_stats));
    table.row(vec![
        "total".into(),
        format!("{tv_full} ({})", fmt_secs(full_wall)),
        format!("{tv_semi} ({})", fmt_secs(semi_wall)),
        "-".into(),
        "-".into(),
        format!("{:.2}x fewer", tv_full as f64 / tv_semi.max(1) as f64),
    ]);
    (
        table,
        json!({
            "panel": "chase-delta",
            "rows": rows_json,
            "full_wall_seconds": full_wall,
            "semi_wall_seconds": semi_wall,
            "full_valuations_total": tv_full,
            "semi_valuations_total": tv_semi,
            "speedup_wall": full_wall / semi_wall.max(1e-9),
        }),
    )
}

/// Static-analysis panel: `rock-analyze` verdicts over every workload's
/// curated ruleset (must be clean) and its defect-seeded variant (every
/// injected defect class must be re-found — recall 1.0), plus the
/// rule × round pairs the scheduled production chase evaluates versus the
/// reference chase's classic activation on the Bank correction chase, with
/// the byte-identical-repairs equivalence asserted inline.
pub fn analyze() -> (Table, Json) {
    let mut table = Table::new(
        "Static analysis — rock-analyze verdicts and graph-driven chase scheduling",
        &[
            "ruleset", "rules", "errors", "warnings", "dead", "subsumed", "recall",
        ],
    );
    let mut rows_json = Vec::new();
    for (name, w) in [
        ("Bank", bank()),
        ("Logistics", logistics()),
        ("Sales", sales()),
    ] {
        let schema = w.dirty.schema();
        let clean = rock_analyze::Analyzer::new(&schema).analyze(&w.rules);
        assert!(
            clean.is_clean(),
            "{name} curated rules must analyze clean: {:?}",
            clean.diagnostics
        );
        let (defective, injected) =
            rock_workloads::inject_defects(&w.rules, &schema, 7, &rock_workloads::DefectKind::ALL);
        let seeded = rock_analyze::Analyzer::new(&schema).analyze(&defective);
        let found = injected
            .iter()
            .filter(|d| {
                seeded
                    .diagnostics
                    .iter()
                    .any(|g| g.rule == d.rule_name && g.code == d.expected)
            })
            .count();
        let recall = found as f64 / injected.len() as f64;
        assert!((recall - 1.0).abs() < 1e-9, "{name} defect recall {recall}");
        for (label, rep, rc) in [
            (format!("{name} curated"), &clean, "-".to_owned()),
            (format!("{name} +defects"), &seeded, format!("{recall:.2}")),
        ] {
            let s = rep.stats();
            table.row(vec![
                label.clone(),
                s.rules.to_string(),
                s.errors.to_string(),
                s.warnings.to_string(),
                s.dead_rules.to_string(),
                s.subsumed_rules.to_string(),
                rc,
            ]);
            rows_json.push(json!({
                "ruleset": label,
                "stats": s,
                "counts": rep.counts_by_code(),
            }));
        }
    }

    // The scheduled production chase vs the reference's classic
    // activation, which keeps evaluating every rule the delta reaches.
    let w = bank();
    let task = w
        .task("CNC")
        .or_else(|| w.tasks.first())
        .expect("bank task")
        .clone();
    let rules = rock_core::variant::sorted_rules(&w.rules_for(&task));
    let ((graph, _), (classic, _)) = chase_both(&w, &rules);
    let pruned: usize = graph.round_stats.iter().map(|s| s.rules_pruned).sum();
    let (on, off) = (
        rule_rounds(&graph.round_stats),
        rule_rounds(&classic.round_stats),
    );
    assert!(on <= off, "the schedule must not grow: {on} > {off}");
    table.row(vec![
        "Bank chase rule-rounds".into(),
        format!("{off} classic"),
        format!("{on} graph"),
        format!("{pruned} pruned"),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    (
        table,
        json!({
            "panel": "analyze",
            "rulesets": rows_json,
            "chase": {
                "workload": "Bank",
                "rule_rounds_classic": off,
                "rule_rounds_graph": on,
                "rules_pruned": pruned,
                "rounds_classic": classic.rounds,
                "rounds_graph": graph.rounds,
            },
            // runner-speed-invariant gate metric: reference/production
            // rule-round pairs; >= 1.0 by the inline assertion above
            "rule_rounds_ratio": off as f64 / on.max(1) as f64,
        }),
    )
}

/// Concurrency-lint panel: `rock-lint` over the workspace sources (must be
/// clean — the headline trajectory metric `lint_violations` is gated to
/// stay exactly zero) plus the seeded-defect self-check under
/// `fixtures/lint_defects/` (every `//~ LXXX` marker hit, nothing else
/// fired: 100% recall, zero false positives).
pub fn lint() -> (Table, Json) {
    use rock_lint::Severity;
    use std::path::Path;

    // Anchor on the manifest, not the cwd: the bench crate sits two levels
    // below the workspace root.
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let diags = rock_lint::lint_tree(root).expect("lint workspace sources");
    let errors = diags
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    assert!(
        diags.is_empty(),
        "workspace must lint clean, found {}:\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    let fixtures = rock_lint::check_fixtures(&root.join("fixtures/lint_defects"))
        .expect("lint seeded-defect fixtures");
    let markers = fixtures.matched.len() + fixtures.missed.len();
    let recall = fixtures.matched.len() as f64 / markers.max(1) as f64;
    assert!(
        fixtures.ok(),
        "fixture self-check failed: {} missed, {} unexpected",
        fixtures.missed.len(),
        fixtures.unexpected.len()
    );

    let mut table = Table::new(
        "Concurrency lint — workspace cleanliness and seeded-defect recall",
        &[
            "target",
            "violations",
            "errors",
            "warnings",
            "recall",
            "false positives",
        ],
    );
    table.row(vec![
        "workspace".into(),
        diags.len().to_string(),
        errors.to_string(),
        warnings.to_string(),
        "-".into(),
        "-".into(),
    ]);
    table.row(vec![
        "fixtures/lint_defects".into(),
        format!("{markers} seeded"),
        "-".into(),
        "-".into(),
        format!("{recall:.2}"),
        fixtures.unexpected.len().to_string(),
    ]);
    (
        table,
        json!({
            "panel": "lint",
            "lint_violations": diags.len(),
            "lint_errors": errors,
            "lint_warnings": warnings,
            "fixture_markers": markers,
            "fixture_matched": fixtures.matched.len(),
            "fixture_recall": recall,
            "fixture_false_positives": fixtures.unexpected.len(),
        }),
    )
}

/// Chaos panel: the Logistics correction task under seeded deterministic
/// fault injection (per-unit panics, transient errors, latency spikes, and
/// one whole-node crash) versus an undisturbed run. The headline assertion
/// is **byte-identical repairs**: every injected fault is absorbed by the
/// scheduler's retry / reassignment machinery, never by
/// dropping work. Two controlled scheduler-level sections additionally
/// demonstrate queue reassignment after a node crash (`reassigned > 0`
/// under every seed, since the crashed node owns the whole queue) and
/// quarantine of a poison unit after exactly `max_retries + 1` attempts.
/// Seed comes from `ROCK_CHAOS_SEED` (default 4242) so CI can sweep a
/// matrix.
pub fn chaos() -> (Table, Json) {
    use rock_crystal::work::Partition;
    use rock_crystal::{Cluster, ClusterConfig, FaultPlan, WorkUnit};

    let seed = std::env::var("ROCK_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(4242);
    const WORKERS: usize = 4;
    let w = logistics();
    let task = w.task("RClean").expect("RClean task").clone();
    let run = |cluster: ClusterConfig| {
        let sys = rock_core::RockSystem::new(rock_core::RockConfig {
            workers: WORKERS,
            chase: rock_chase::ChaseConfig {
                cluster,
                ..Default::default()
            },
            ..rock_core::RockConfig::default()
        });
        let t0 = std::time::Instant::now();
        let out = sys.correct(&w, &task);
        (out, t0.elapsed().as_secs_f64())
    };
    let (clean, clean_wall) = run(ClusterConfig::default());
    // Probabilistic first-attempt faults plus a planned crash of node 1 at
    // its second unit boundary: the chase's cluster loses a member mid-run
    // and later rounds place work on survivors only.
    let plan = FaultPlan::chaos(seed).with_crash(1, 2);
    let (chaotic, chaos_wall) = run(ClusterConfig::default().with_fault_plan(plan));
    assert_eq!(
        clean.repaired, chaotic.repaired,
        "repairs must be byte-identical under fault injection (seed {seed})"
    );
    assert!(
        chaotic.unit_failures.is_empty(),
        "chaos plan has no poison units, so nothing may be quarantined: {:?}",
        chaotic.unit_failures
    );
    assert_eq!(
        (clean.rounds, clean.changes, clean.conflicts),
        (chaotic.rounds, chaotic.changes, chaotic.conflicts),
        "fault recovery must not change chase semantics"
    );

    // Controlled crash: every unit hashes onto one owner, which crashes
    // before executing anything — its whole queue must flow to survivors
    // through the reassignment injector.
    let probe = WorkUnit::new(7, vec![Partition::new(0, 0, 10)]);
    let victim = Cluster::new(WORKERS).owner_of(&probe);
    let crash_units: Vec<WorkUnit> = (0..32)
        .map(|_| WorkUnit::new(7, vec![Partition::new(0, 0, 10)]))
        .collect();
    let crash_cluster = Cluster::with_config(
        WORKERS,
        ClusterConfig::default().with_fault_plan(FaultPlan::seeded(seed).with_crash(victim, 0)),
    );
    // Every unit body waits for the crash, so survivors can hold at most
    // one unit each when the victim drains the rest of its queue.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let crash_out = crash_cluster.execute(crash_units, |u| {
        while crash_cluster.is_alive(victim) && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        Ok(u.rule)
    });
    assert!(
        crash_out.is_complete(),
        "crash run must still complete every unit: {:?}",
        crash_out.failures
    );
    assert_eq!(crash_out.stats.faults.node_crashes, 1);
    assert!(
        crash_out.stats.faults.reassigned > 0,
        "the crashed owner's queue must be reassigned: {:?}",
        crash_out.stats.faults
    );

    // Poison unit: panics on every attempt, quarantined after exactly
    // max_retries + 1 attempts, reported as a typed failure — not fatal.
    let poison_units: Vec<WorkUnit> = (0..16)
        .map(|i| WorkUnit::new(i, vec![Partition::new(0, i * 10, (i + 1) * 10)]))
        .collect();
    let poison_out = Cluster::with_config(
        WORKERS,
        ClusterConfig::default()
            .with_fault_plan(FaultPlan::seeded(seed).with_poison(vec![3]))
            .with_max_retries(2),
    )
    .execute(poison_units, |u| Ok(u.rule));
    assert_eq!(poison_out.failures.len(), 1);
    assert_eq!(poison_out.failures[0].unit, 3);
    assert_eq!(poison_out.failures[0].attempts, 3);
    assert_eq!(
        poison_out.results.iter().filter(|r| r.is_some()).count(),
        15,
        "the other 15 units still commit"
    );

    let f = &chaotic.fault_stats;
    let mut table = Table::new(
        format!("Chaos — Logistics EC under fault injection (seed {seed})"),
        &["metric", "clean", "chaos"],
    );
    table.row(vec![
        "wall seconds".into(),
        fmt_secs(clean_wall),
        fmt_secs(chaos_wall),
    ]);
    table.row(vec![
        "F1".into(),
        fmt_f1(clean.metrics.f1()),
        fmt_f1(chaotic.metrics.f1()),
    ]);
    table.row(vec![
        "rounds / changes".into(),
        format!("{} / {}", clean.rounds, clean.changes),
        format!("{} / {}", chaotic.rounds, chaotic.changes),
    ]);
    table.row(vec![
        "repairs byte-identical".into(),
        "-".into(),
        "yes (asserted)".into(),
    ]);
    table.row(vec![
        "panics caught / transients / latency".into(),
        "0 / 0 / 0".into(),
        format!(
            "{} / {} / {}",
            f.panics_caught, f.transient_errors, f.latency_injected
        ),
    ]);
    table.row(vec![
        "retries / quarantined".into(),
        "0 / 0".into(),
        format!("{} / {}", f.retries, f.quarantined),
    ]);
    table.row(vec![
        "node crashes / units reassigned".into(),
        "0 / 0".into(),
        format!("{} / {}", f.node_crashes, f.reassigned),
    ]);
    table.row(vec![
        "controlled crash: reassigned".into(),
        "-".into(),
        format!("{}", crash_out.stats.faults.reassigned),
    ]);
    table.row(vec![
        "poison unit: attempts before quarantine".into(),
        "-".into(),
        format!("{}", poison_out.failures[0].attempts),
    ]);
    table.row(vec![
        "fault-handling overhead".into(),
        "1.00x".into(),
        format!("{:.2}x", chaos_wall / clean_wall.max(1e-9)),
    ]);
    let json = json!({
        "panel": "chaos",
        "seed": seed,
        "workers": WORKERS,
        "byte_identical": true,
        "clean_wall_seconds": clean_wall,
        "chaos_wall_seconds": chaos_wall,
        "clean_f1": clean.metrics.f1(),
        "chaos_f1": chaotic.metrics.f1(),
        "faults": {
            "retries": f.retries,
            "panics_caught": f.panics_caught,
            "transient_errors": f.transient_errors,
            "latency_injected": f.latency_injected,
            "reassigned": f.reassigned,
            "quarantined": f.quarantined,
            "node_crashes": f.node_crashes,
        },
        "controlled_crash_reassigned": crash_out.stats.faults.reassigned,
        "poison_attempts": poison_out.failures[0].attempts,
    });
    (table, json)
}

/// Panels 4(d)/(e)/(f): error-detection F1 per task.
pub fn ed_f1(app_name: &str) -> (Table, Json) {
    let w = app(app_name);
    let mut table = Table::new(
        format!("Fig 4 ED F-measure — {app_name}"),
        &["task", "Rock", "RocknoML", "ES", "T5s", "RB"],
    );
    let (es_rules, _) = runners::es_discovery(&w);
    let (t5s, _) = runners::t5s_train(&w);
    let (rbs, _) = runners::rb_train(&w);
    let mut rows_json = Vec::new();
    for task in &w.tasks {
        let rock = runners::rock_detect(&w, task, Variant::Rock, 1);
        let noml = runners::rock_detect(&w, task, Variant::RockNoMl, 1);
        let es = runners::es_detect(&w, task, &es_rules);
        let t5 = runners::t5s_detect(&w, task, &t5s);
        let rb = runners::rb_detect(&w, task, &rbs);
        table.row(vec![
            task.name.clone(),
            fmt_f1(rock.metrics.f1()),
            fmt_f1(noml.metrics.f1()),
            fmt_f1(es.metrics.f1()),
            fmt_f1(t5.metrics.f1()),
            fmt_f1(rb.metrics.f1()),
        ]);
        rows_json.push(json!({
            "task": task.name,
            "Rock": rock.metrics.f1(), "RocknoML": noml.metrics.f1(),
            "ES": es.metrics.f1(), "T5s": t5.metrics.f1(), "RB": rb.metrics.f1(),
        }));
    }
    (
        table,
        json!({ "panel": format!("ed-f1-{app_name}"), "rows": rows_json }),
    )
}

/// Panel 4(g): error-detection time per application (whole-app task).
pub fn ed_time() -> (Table, Json) {
    let mut table = Table::new(
        "Fig 4(g) ED time (modeled seconds)",
        &["app", "Rock", "RocknoML", "T5s", "SparkSQL", "Presto", "RB"],
    );
    let mut rows_json = Vec::new();
    for name in ["Bank", "Logistics", "Sales"] {
        let w = app(name);
        let task = w.tasks.last().unwrap().clone(); // the *Clean task
        let rock = runners::rock_detect(&w, &task, Variant::Rock, 1);
        let noml = runners::rock_detect(&w, &task, Variant::RockNoMl, 1);
        let (t5s_model, _) = runners::t5s_train(&w);
        let t5 = runners::t5s_detect(&w, &task, &t5s_model);
        let spark = runners::sql_detect(&w, &task, SqlEngineKind::SparkSql);
        let presto = runners::sql_detect(&w, &task, SqlEngineKind::Presto);
        let (rbs, _) = runners::rb_train(&w);
        let rb = runners::rb_detect(&w, &task, &rbs);
        table.row(vec![
            name.into(),
            fmt_secs(rock.modeled_seconds),
            fmt_secs(noml.modeled_seconds),
            fmt_secs(t5.modeled_seconds),
            fmt_secs(spark.modeled_seconds),
            fmt_secs(presto.modeled_seconds),
            fmt_secs(rb.modeled_seconds),
        ]);
        rows_json.push(json!({
            "app": name,
            "Rock": rock.modeled_seconds, "RocknoML": noml.modeled_seconds,
            "T5s": t5.modeled_seconds, "SparkSQL": spark.modeled_seconds,
            "Presto": presto.modeled_seconds, "RB": rb.modeled_seconds,
        }));
    }
    (table, json!({ "panel": "ed-time", "rows": rows_json }))
}

/// Larger Logistics instance for the scaling panels (more rows and finer
/// work units so 20 modeled workers have work to balance).
fn logistics_large() -> Workload {
    rock_workloads::logistics::generate(&GenConfig {
        rows: 900,
        error_rate: 0.08,
        seed: 45,
        trusted_per_rel: 40,
    })
}

/// Panel 4(h): Logistics-ED parallel scalability (modeled makespan).
pub fn ed_scaling() -> (Table, Json) {
    let w = logistics_large();
    let task = w.task("RClean").unwrap().clone();
    // sample unit durations once on a single worker, then schedule
    let run = runners::rock_detect_parts(&w, &task, Variant::Rock, 1, 64);
    scaling_table("Fig 4(h) Logistics-ED scaling", "ed-scaling", &run)
}

/// Panel 4(l): Logistics-EC parallel scalability.
pub fn ec_scaling() -> (Table, Json) {
    let w = logistics_large();
    let task = w.task("RClean").unwrap().clone();
    let (run, _) = runners::rock_correct_parts(&w, &task, Variant::Rock, 1, 64);
    scaling_table("Fig 4(l) Logistics-EC scaling", "ec-scaling", &run)
}

fn scaling_table(title: &str, panel: &str, run: &RunResult) -> (Table, Json) {
    let mut table = Table::new(title, &["workers", "modeled time", "speedup vs 4"]);
    // The serial residue — everything outside work-unit execution
    // (activation, LSH/index building, proposal commits, result merging) —
    // does not parallelize; it is measured as wall time minus the sum of
    // unit durations. This is what bends the curve below linear, as in the
    // paper's 3.36×/3.12× at 4→20 workers.
    let parallel_work: f64 = run.unit_seconds.iter().sum();
    let serial = (run.modeled_seconds - run.ml_cost_seconds - parallel_work).max(0.0);
    // ML inference distributes evenly (blocking produces independent
    // pair-inference work); rule-evaluation units go through LPT.
    let time_at =
        |n: usize| serial + makespan_lpt(&run.unit_seconds, n) + run.ml_cost_seconds / n as f64;
    let base = time_at(4);
    let mut rows_json = Vec::new();
    for n in [4usize, 8, 12, 16, 20] {
        let t = time_at(n);
        let speedup = if t > 0.0 { base / t } else { 0.0 };
        table.row(vec![n.to_string(), fmt_secs(t), format!("{speedup:.2}x")]);
        rows_json.push(json!({ "workers": n, "seconds": t, "speedup_vs_4": speedup }));
    }
    (table, json!({ "panel": panel, "rows": rows_json }))
}

/// Panel 4(i): error-correction F1 per application.
pub fn ec_f1() -> (Table, Json) {
    let mut table = Table::new(
        "Fig 4(i) EC F-measure",
        &[
            "app", "Rock", "RocknoML", "Rockseq", "RocknoC", "ES", "T5s", "RB",
        ],
    );
    let mut rows_json = Vec::new();
    for name in ["Bank", "Logistics", "Sales"] {
        let w = app(name);
        let task = w.tasks.last().unwrap().clone();
        let (rock, _) = runners::rock_correct(&w, &task, Variant::Rock, 1);
        let (noml, _) = runners::rock_correct(&w, &task, Variant::RockNoMl, 1);
        let (seq, _) = runners::rock_correct(&w, &task, Variant::RockSeq, 1);
        let (noc, _) = runners::rock_correct(&w, &task, Variant::RockNoC, 1);
        let (es_rules, _) = runners::es_discovery(&w);
        let es = runners::es_correct_run(&w, &task, &es_rules);
        let (t5s_model, _) = runners::t5s_train(&w);
        let t5 = runners::t5s_correct(&w, &task, &t5s_model);
        let (rbs, _) = runners::rb_train(&w);
        let rb = runners::rb_correct(&w, &task, &rbs);
        table.row(vec![
            name.into(),
            fmt_f1(rock.metrics.f1()),
            fmt_f1(noml.metrics.f1()),
            fmt_f1(seq.metrics.f1()),
            fmt_f1(noc.metrics.f1()),
            fmt_f1(es.metrics.f1()),
            fmt_f1(t5.metrics.f1()),
            fmt_f1(rb.metrics.f1()),
        ]);
        rows_json.push(json!({
            "app": name,
            "Rock": rock.metrics.f1(), "RocknoML": noml.metrics.f1(),
            "Rockseq": seq.metrics.f1(), "RocknoC": noc.metrics.f1(),
            "ES": es.metrics.f1(), "T5s": t5.metrics.f1(), "RB": rb.metrics.f1(),
        }));
    }
    (table, json!({ "panel": "ec-f1", "rows": rows_json }))
}

/// Panel 4(k): error-correction time per application.
pub fn ec_time() -> (Table, Json) {
    let mut table = Table::new(
        "Fig 4(k) EC time (modeled seconds)",
        &[
            "app", "Rock", "RocknoML", "Rockseq", "RocknoC", "T5s", "RB", "SparkSQL", "Presto",
        ],
    );
    let mut rows_json = Vec::new();
    for name in ["Bank", "Logistics", "Sales"] {
        let w = app(name);
        let task = w.tasks.last().unwrap().clone();
        let (rock, _) = runners::rock_correct(&w, &task, Variant::Rock, 1);
        let (noml, _) = runners::rock_correct(&w, &task, Variant::RockNoMl, 1);
        let (seq, _) = runners::rock_correct(&w, &task, Variant::RockSeq, 1);
        let (noc, _) = runners::rock_correct(&w, &task, Variant::RockNoC, 1);
        let (t5s_model, _) = runners::t5s_train(&w);
        let t5 = runners::t5s_correct(&w, &task, &t5s_model);
        let (rbs, _) = runners::rb_train(&w);
        let rb = runners::rb_correct(&w, &task, &rbs);
        let spark = runners::sql_correct(&w, &task, SqlEngineKind::SparkSql);
        let presto = runners::sql_correct(&w, &task, SqlEngineKind::Presto);
        table.row(vec![
            name.into(),
            fmt_secs(rock.modeled_seconds),
            fmt_secs(noml.modeled_seconds),
            fmt_secs(seq.modeled_seconds),
            fmt_secs(noc.modeled_seconds),
            fmt_secs(t5.modeled_seconds),
            fmt_secs(rb.modeled_seconds),
            fmt_secs(spark.modeled_seconds),
            fmt_secs(presto.modeled_seconds),
        ]);
        rows_json.push(json!({
            "app": name,
            "Rock": rock.modeled_seconds, "RocknoML": noml.modeled_seconds,
            "Rockseq": seq.modeled_seconds, "RocknoC": noc.modeled_seconds,
            "T5s": t5.modeled_seconds, "RB": rb.modeled_seconds,
            "SparkSQL": spark.modeled_seconds, "Presto": presto.modeled_seconds,
        }));
    }
    (table, json!({ "panel": "ec-time", "rows": rows_json }))
}

/// Panel 4(j): Sales-EC F1 per task (ER / CR / MI / TD). The paper omits
/// TD for ES and T5s and TD+ER for RB ("they do not support these
/// operations"); those cells render as "-".
pub fn ec_per_task() -> (Table, Json) {
    let w = sales();
    let task = w.task("SClean").unwrap().clone();

    // error-class scopes
    let cr_scope: FxHashSet<CellRef> = w.truth.corrupted.keys().copied().collect();
    let mi_scope: FxHashSet<CellRef> = w.truth.nulled.keys().copied().collect();
    let td_scope: FxHashSet<CellRef> = {
        // all cells of attributes that carry stale injections
        let attrs: FxHashSet<(rock_data::RelId, rock_data::AttrId)> =
            w.truth.stale.keys().map(|c| (c.rel, c.attr)).collect();
        Workload::scope_of(&w.dirty, &attrs.into_iter().collect::<Vec<_>>())
    };

    struct PerTask {
        er: Option<f64>,
        cr: Option<f64>,
        mi: Option<f64>,
        td: Option<f64>,
    }

    let eval_repaired = |repaired: &rock_data::Database| -> (f64, f64) {
        let cr = correction_metrics(&w.dirty, repaired, &w.clean, &w.truth, Some(&cr_scope)).f1();
        let mi = correction_metrics(&w.dirty, repaired, &w.clean, &w.truth, Some(&mi_scope)).f1();
        (cr, mi)
    };

    // TD score: detection of stale cells by TD rules only.
    let td_f1 = |variant: Variant| -> f64 {
        let td_rules = rock_core::variant::split_by_task(&rock_core::variant::effective_rules(
            variant,
            &w.rules_for(&task),
        ))[3]
            .clone();
        if td_rules.is_empty() {
            return 0.0;
        }
        let det = rock_detect::Detector::new(&td_rules, &w.registry);
        let report = det.detect(&w.dirty);
        let stale_truth = rock_workloads::inject::ErrorTruth {
            stale: w.truth.stale.clone(),
            ..Default::default()
        };
        detection_metrics(&report.flagged_cells, &stale_truth, Some(&td_scope)).f1()
    };

    let rock_like = |variant: Variant| -> PerTask {
        let (_, repaired) = runners::rock_correct(&w, &task, variant, 1);
        let (cr, mi) = eval_repaired(&repaired);
        let pairs = if variant == Variant::Rock {
            runners::rock_merged_pairs(&w, &task)
        } else {
            let rules = rock_core::variant::sorted_rules(&rock_core::variant::effective_rules(
                variant,
                &w.rules_for(&task),
            ));
            let engine = rock_chase::ChaseEngine::new(
                &rules,
                &w.registry,
                rock_chase::ChaseConfig::default(),
            );
            engine.run(&w.dirty, &w.trusted).merged_pairs
        };
        let er = er_pair_metrics(&pairs, &w.truth.duplicate_pairs).f1();
        PerTask {
            er: Some(er),
            cr: Some(cr),
            mi: Some(mi),
            td: Some(td_f1(variant)),
        }
    };

    let rock = rock_like(Variant::Rock);
    let noml = rock_like(Variant::RockNoMl);
    let seq = rock_like(Variant::RockSeq);
    let noc = {
        // RocknoC runs each class once without interaction — its repaired
        // db comes from the single-pass schedule, and its ER pairs from a
        // single-round run of the ER rule group alone.
        let (_, repaired) = runners::rock_correct(&w, &task, Variant::RockNoC, 1);
        let (cr, mi) = eval_repaired(&repaired);
        let er_rules = rock_core::variant::split_by_task(&w.rules_for(&task))[0].clone();
        let engine = rock_chase::ChaseEngine::new(
            &er_rules,
            &w.registry,
            rock_chase::ChaseConfig {
                max_rounds: 1,
                ..rock_chase::ChaseConfig::default()
            },
        );
        let pairs = engine.run(&w.dirty, &w.trusted).merged_pairs;
        PerTask {
            er: Some(er_pair_metrics(&pairs, &w.truth.duplicate_pairs).f1()),
            cr: Some(cr),
            mi: Some(mi),
            td: Some(td_f1(Variant::RockNoC)),
        }
    };

    // baselines
    let (es_rules, _) = runners::es_discovery(&w);
    let es_repaired = rock_baselines::es::es_correct(&w.dirty, &es_rules, &w.registry);
    let es_pairs: Vec<_> = {
        let det = rock_detect::Detector::new(&es_rules, &w.registry);
        det.detect(&w.dirty).duplicate_pairs
    };
    let es = {
        let (cr, mi) = eval_repaired(&es_repaired);
        PerTask {
            er: Some(er_pair_metrics(&es_pairs, &w.truth.duplicate_pairs).f1()),
            cr: Some(cr),
            mi: Some(mi),
            td: None,
        }
    };
    let (t5s_model, _) = runners::t5s_train(&w);
    let t5 = {
        let (repaired, _) = t5s_model.correct(&w.dirty);
        let (cr, mi) = eval_repaired(&repaired);
        PerTask {
            er: None,
            cr: Some(cr),
            mi: Some(mi),
            td: None,
        }
    };
    let (rbs, _) = runners::rb_train(&w);
    let rb = {
        let mut repaired = w.dirty.clone();
        for r in &rbs {
            repaired = r.correct(&repaired).0;
        }
        let (cr, mi) = eval_repaired(&repaired);
        PerTask {
            er: None,
            cr: Some(cr),
            mi: Some(mi),
            td: None,
        }
    };

    let fmt = |v: Option<f64>| v.map(fmt_f1).unwrap_or_else(|| "-".into());
    let mut table = Table::new(
        "Fig 4(j) Sales-EC per task",
        &[
            "task", "Rock", "RocknoML", "Rockseq", "RocknoC", "ES", "T5s", "RB",
        ],
    );
    let systems: Vec<(&str, &PerTask)> = vec![
        ("Rock", &rock),
        ("RocknoML", &noml),
        ("Rockseq", &seq),
        ("RocknoC", &noc),
        ("ES", &es),
        ("T5s", &t5),
        ("RB", &rb),
    ];
    let mut rows_json = Vec::new();
    for (tname, pick) in [("ER", 0usize), ("CR", 1), ("MI", 2), ("TD", 3)] {
        let vals: Vec<Option<f64>> = systems
            .iter()
            .map(|(_, p)| match pick {
                0 => p.er,
                1 => p.cr,
                2 => p.mi,
                _ => p.td,
            })
            .collect();
        let mut row = vec![tname.to_string()];
        row.extend(vals.iter().map(|v| fmt(*v)));
        table.row(row);
        let obj = Json::Obj(
            systems
                .iter()
                .zip(&vals)
                .map(|((n, _), v)| ((*n).to_string(), json!(v)))
                .collect(),
        );
        rows_json.push(json!({ "task": tname, "systems": obj }));
    }
    (table, json!({ "panel": "ec-per-task", "rows": rows_json }))
}

/// Durability panel: the Logistics correction chase with the WAL +
/// checkpoint layer on. Headline assertions: (1) durable repairs are
/// byte-identical to the in-memory chase; (2) resuming from *every*
/// durable round reproduces the repairs byte-identically and regenerates
/// the same WAL bytes (replay idempotence); (3) every repaired cell
/// answers a provenance query ("why is this cell 42?") with its rule,
/// valuation, and parent fixes.
pub fn durability() -> (Table, Json) {
    use rock_chase::{
        wal_bytes, ChaseConfig, ChaseEngine, DurabilityConfig, ProvenanceGraph, WalHealth,
    };

    let w = logistics();
    let task = w.task("RClean").expect("RClean task").clone();
    let rules = rock_core::variant::sorted_rules(&w.rules_for(&task));
    let dir = std::env::temp_dir().join(format!("rock-durability-panel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mk = |durability: Option<DurabilityConfig>| {
        let cfg = ChaseConfig {
            durability,
            ..ChaseConfig::default()
        };
        let engine = ChaseEngine::new(&rules, &w.registry, cfg);
        match &w.graph {
            Some(g) => engine.with_graph(g),
            None => engine,
        }
    };

    let t0 = std::time::Instant::now();
    let oracle = mk(None).run(&w.dirty, &w.trusted);
    let wall_memory = t0.elapsed().as_secs_f64();
    let oracle_db = oracle.db.clone();

    let durable_engine = mk(Some(DurabilityConfig::new(&dir)));
    let t1 = std::time::Instant::now();
    let durable = durable_engine.run(&w.dirty, &w.trusted);
    let wall_durable = t1.elapsed().as_secs_f64();
    let wal = durable.wal.clone().expect("durability was configured");
    assert!(
        !matches!(wal.health, WalHealth::Degraded { .. }),
        "durability degraded during the run: {:?}",
        wal.health
    );
    assert_eq!(
        oracle_db, durable.db,
        "durable repairs must be byte-identical to the in-memory chase"
    );
    assert_eq!(
        (oracle.rounds, oracle.changes.len(), oracle.conflicts),
        (durable.rounds, durable.changes.len(), durable.conflicts),
        "the WAL layer must not change chase semantics"
    );

    // resume from every durable round: same repairs, same WAL bytes
    let bytes_before = wal_bytes(&dir).unwrap();
    let rounds = durable.rounds as u64;
    let mut resume_points = 0u64;
    for r in 1..=rounds {
        let res = durable_engine
            .resume_at(&w.trusted, r)
            .unwrap_or_else(|e| panic!("resume from round {r} failed: {e}"));
        assert_eq!(
            oracle_db, res.db,
            "resume from round {r} must reproduce the repairs byte-identically"
        );
        assert_eq!(
            res.wal.as_ref().and_then(|s| s.resumed_from),
            Some(r),
            "resume must report its recovery round"
        );
        resume_points += 1;
    }
    let replayed = wal_bytes(&dir).unwrap();
    assert_eq!(
        bytes_before, replayed,
        "re-running the suffix must regenerate identical WAL bytes (replay idempotence)"
    );

    // every repaired cell answers a provenance query
    let prov = ProvenanceGraph::load(&dir).expect("load provenance graph");
    assert!(
        !prov.is_empty(),
        "the chase repaired cells, so the WAL must hold fixes"
    );
    let mut cells_queried = 0usize;
    let mut with_valuation = 0usize;
    for (cell, _, _) in &durable.changes {
        let chain = prov
            .why(*cell)
            .unwrap_or_else(|| panic!("no provenance for repaired cell {cell:?}"));
        assert!(
            (chain.fix.rule as usize) < rules.len(),
            "provenance must name a real rule"
        );
        if !chain.fix.valuation.is_empty() {
            with_valuation += 1;
        }
        cells_queried += 1;
    }
    assert!(
        cells_queried == 0 || with_valuation > 0,
        "at least some fixes must carry their valuation tuples"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let overhead = if wall_memory > 0.0 {
        wall_durable / wall_memory
    } else {
        1.0
    };
    let mut table = Table::new(
        "Durability — Logistics EC with WAL + checkpoints",
        &["metric", "value"],
    );
    table.row(vec!["rounds".into(), format!("{}", durable.rounds)]);
    table.row(vec!["WAL records".into(), format!("{}", wal.records)]);
    table.row(vec!["checkpoints".into(), format!("{}", wal.checkpoints)]);
    table.row(vec![
        "resume points verified".into(),
        format!("{resume_points}"),
    ]);
    table.row(vec!["provenance nodes".into(), format!("{}", prov.len())]);
    table.row(vec![
        "repaired cells queried".into(),
        format!("{cells_queried}"),
    ]);
    table.row(vec![
        "wall secs (memory / durable)".into(),
        format!("{} / {}", fmt_secs(wall_memory), fmt_secs(wall_durable)),
    ]);
    let json = json!({
        "panel": "durability",
        "rounds": durable.rounds,
        "wal_records": wal.records,
        "checkpoints": wal.checkpoints,
        "resume_points": resume_points,
        "provenance_nodes": prov.len(),
        "cells_queried": cells_queried,
        "cells_with_valuation": with_valuation,
        "wall_memory": wall_memory,
        "wall_durable": wall_durable,
        "overhead_ratio": overhead,
    });
    (table, json)
}

/// Columnar panel: the typed-column data plane (`rock_data::ColumnSet` —
/// dense vectors, dictionary-encoded strings, null/live bitmaps) versus
/// scalar evaluation. Headline assertions, all inline: (1) on every
/// workload, detection flags exactly the cells the scalar detector
/// (`Detector::with_columnar(false)`) flags and the production chase
/// repairs byte-identically to the scalar reference chase; (2) the
/// vectorized constant-predicate scan beats the row-at-a-time scan by at
/// least 2x on Logistics-shaped data, with identical match counts. The
/// footprint rows show what dictionary encoding buys on string-heavy
/// relations.
pub fn columnar() -> (Table, Json) {
    use rock_data::{AttrId, PredOp, RelId, Value};

    let mut table = Table::new(
        "Columnar — typed columns + vectorized kernels vs row store",
        &["metric", "row", "columnar", "check"],
    );
    let mut workloads_json = Vec::new();

    // (1) end-to-end equivalence: scalar evaluation is the baseline; the
    // columnar plane must reproduce its detections and repairs
    // byte-for-byte on all three workloads.
    for name in ["Bank", "Logistics", "Sales"] {
        let w = app(name);
        let task = w.tasks.last().expect("workload has tasks").clone();

        let detect = |columnar: bool| -> Vec<CellRef> {
            let report = rock_detect::Detector::new(&w.rules, &w.registry)
                .with_columnar(columnar)
                .detect(&w.dirty);
            let mut cells: Vec<CellRef> = report.flagged_cells.into_iter().collect();
            cells.sort_unstable();
            cells
        };
        let (row_cells, col_cells) = (detect(false), detect(true));
        assert_eq!(
            row_cells, col_cells,
            "{name}: columnar detection must flag exactly the row store's cells"
        );

        let rules = rock_core::variant::sorted_rules(&w.rules_for(&task));
        let ((col_out, _), (row_out, _)) = chase_both(&w, &rules);
        let row_db = row_out.db;
        let col_db = col_out.db;

        table.row(vec![
            format!("{name}: flagged cells / repaired bytes"),
            format!("{} / {}", row_cells.len(), row_db.len()),
            format!("{} / {}", col_cells.len(), col_db.len()),
            "byte-identical (asserted)".into(),
        ]);
        workloads_json.push(json!({
            "workload": name,
            "byte_identical": true,
            "flagged_cells": row_cells.len(),
            "repaired_bytes": row_db.len(),
            "rounds": col_out.rounds,
            "changes": col_out.changes.len(),
            "conflicts": col_out.conflicts,
        }));
    }

    // (2) scan microbench on a larger Logistics instance: the same
    // constant-predicate probe sweep through the row path (per-tuple
    // scalar `PredOp::eval`, as the pre-columnar prefilter ran) and the
    // vectorized kernels over the cached column sets.
    let big = rock_workloads::logistics::generate(&GenConfig {
        rows: 4000,
        error_rate: 0.08,
        seed: 47,
        trusted_per_rel: 30,
    });
    let db = &big.dirty;
    // one Eq and one Ge probe per attribute, constants drawn from the data
    let mut probes: Vec<(RelId, AttrId, PredOp, Value)> = Vec::new();
    for (rid, rel) in db.iter() {
        for (attr, _) in rel.schema.iter_attrs() {
            if let Some(t) = rel.iter().next() {
                let v = t.get(attr).clone();
                probes.push((rid, attr, PredOp::Eq, v.clone()));
                probes.push((rid, attr, PredOp::Ge, v));
            }
        }
    }
    let row_scan = || -> u64 {
        let mut hits = 0u64;
        for (rid, attr, op, v) in &probes {
            for t in db.relation(*rid).iter() {
                if op.eval(t.get(*attr), v) {
                    hits += 1;
                }
            }
        }
        hits
    };
    // warm the per-relation column caches once — the steady state the
    // chase and detector run in (a mutation patches a snapshot, it does not rebuild it)
    for (rid, _) in db.iter() {
        let _ = db.relation(rid).columns();
    }
    let col_scan = || -> u64 {
        let mut hits = 0u64;
        for (rid, attr, op, v) in &probes {
            hits += db
                .relation(*rid)
                .columns()
                .eval_const_op(*attr, *op, v)
                .count_ones();
        }
        hits
    };
    let best_of = |f: &dyn Fn() -> u64, reps: usize| -> (f64, u64) {
        let mut best = f64::INFINITY;
        let mut hits = 0;
        for _ in 0..reps {
            let t0 = std::time::Instant::now();
            hits = f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, hits)
    };
    let (row_wall, row_hits) = best_of(&row_scan, 7);
    let (col_wall, col_hits) = best_of(&col_scan, 7);
    assert_eq!(
        row_hits, col_hits,
        "vectorized kernels must match the scalar scan on every probe"
    );
    let speedup = row_wall / col_wall.max(1e-9);
    assert!(
        speedup >= 2.0,
        "columnar scan must be at least 2x the row scan, got {speedup:.2}x \
         ({row_wall:.6}s row vs {col_wall:.6}s columnar)"
    );
    table.row(vec![
        format!("scan wall secs, best of 7 ({} probes)", probes.len()),
        fmt_secs(row_wall),
        fmt_secs(col_wall),
        format!("{speedup:.1}x (>=2x asserted)"),
    ]);
    table.row(vec![
        "scan matches".into(),
        row_hits.to_string(),
        col_hits.to_string(),
        "equal (asserted)".into(),
    ]);

    // (3) heap footprint of the two layouts on the same data
    let (mut row_bytes, mut col_bytes) = (0usize, 0usize);
    for (rid, rel) in db.iter() {
        row_bytes += rock_data::row_heap_bytes(rel);
        col_bytes += db.relation(rid).columns().heap_bytes();
    }
    table.row(vec![
        "heap bytes (Logistics x4000 rows)".into(),
        row_bytes.to_string(),
        col_bytes.to_string(),
        format!("{:.2}x denser", row_bytes as f64 / col_bytes.max(1) as f64),
    ]);

    let json = json!({
        "panel": "columnar",
        "workloads": workloads_json,
        "scan_probes": probes.len(),
        "scan_row_seconds": row_wall,
        "scan_col_seconds": col_wall,
        "scan_matches": row_hits,
        "scan_speedup": speedup,
        "row_heap_bytes": row_bytes,
        "col_heap_bytes": col_bytes,
    });
    (table, json)
}

/// Crash-consistency panel (`crashsim`): the seeded storage fault layer +
/// crash sweep over the durable chase (WAL + per-round checkpoints).
/// Headline assertions, all inline:
/// (1) a durable run through the recording vfs repairs byte-identically to
/// the in-memory oracle; (2) re-executing with a crash injected at every
/// sampled point of the recorded I/O trace still repairs byte-identically
/// (durability degrades, data does not), and resuming each crashed
/// directory with a clean vfs recovers byte-identically to the oracle;
/// (3) persistent fsync failure yields `WalHealth::Degraded`
/// with oracle-identical repairs, and transient faults are retried to
/// `WalHealth::Recovered`. Seed comes from `ROCK_CRASHSIM_SEED`
/// (default 7) so CI sweeps several fault schedules.
pub fn crashsim() -> (Table, Json) {
    use rock_chase::{ChaseConfig, ChaseEngine, DurabilityConfig, WalHealth};
    use rock_crystal::{ClusterConfig, FaultVfs, IoOpKind, StorageFaultPlan};

    let seed: u64 = std::env::var("ROCK_CRASHSIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    // Sales SClean chases 4 rounds at every generator seed (Logistics
    // RClean settles in 2), so crashes land across several round
    // boundaries.
    let w = rock_workloads::sales::generate(&GenConfig {
        rows: 240,
        error_rate: 0.08,
        seed: 45,
        trusted_per_rel: 24,
    });
    let task = w.task("SClean").expect("SClean task").clone();
    let rules = rock_core::variant::sorted_rules(&w.rules_for(&task));
    let base = std::env::temp_dir().join(format!("rock-crashsim-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let dcfg = |dir: &std::path::Path, vfs: FaultVfs| DurabilityConfig::new(dir).with_vfs(vfs);
    let mk = |durability: Option<DurabilityConfig>| {
        let cfg = ChaseConfig {
            durability,
            ..ChaseConfig::default()
        };
        let engine = ChaseEngine::new(&rules, &w.registry, cfg);
        match &w.graph {
            Some(g) => engine.with_graph(g),
            None => engine,
        }
    };

    // (0) uninterrupted in-memory oracle
    let oracle = mk(None).run(&w.dirty, &w.trusted);
    let oracle_db = oracle.db.clone();
    let canon = (oracle.rounds, oracle.changes.len(), oracle.conflicts);

    // (1) recorded durable run: oracle-identical repairs + full I/O trace
    let rec_dir = base.join("record");
    let rec_vfs = FaultVfs::recording();
    let rec_engine = mk(Some(dcfg(&rec_dir, rec_vfs.clone())));
    let t0 = std::time::Instant::now();
    let durable = rec_engine.run(&w.dirty, &w.trusted);
    let wall_durable = t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        oracle_db, durable.db,
        "durable repairs must be byte-identical to the in-memory oracle"
    );
    assert_eq!(
        canon,
        (durable.rounds, durable.changes.len(), durable.conflicts),
        "the fault layer must not change chase semantics"
    );
    let wal = durable.wal.clone().expect("durability was configured");
    assert_eq!(
        wal.health,
        WalHealth::Healthy,
        "the recording vfs injects nothing"
    );
    assert!(
        durable.rounds >= 3,
        "the crashsim workload must chase >= 3 rounds to crash across \
         round boundaries, got {}",
        durable.rounds
    );

    // (2) crash sweep: re-execute with a crash injected at every sampled
    // point of the recorded trace; structural ops (file creation,
    // checkpoint rename, directory fsync) are sampled first, the rest of
    // the trace fills the cap by stride.
    let trace = rec_vfs.trace();
    let total_ops = trace.len();
    assert!(
        total_ops > 0,
        "the recording vfs must have captured a trace"
    );
    let sample = |v: &[u64], cap: usize| -> Vec<u64> {
        if v.len() <= cap {
            return v.to_vec();
        }
        let stride = v.len() as f64 / cap as f64;
        (0..cap).map(|i| v[(i as f64 * stride) as usize]).collect()
    };
    let structural: Vec<u64> = trace
        .iter()
        .filter(|t| {
            matches!(
                t.op,
                IoOpKind::Create | IoOpKind::Rename | IoOpKind::Remove | IoOpKind::SyncDir
            )
        })
        .map(|t| t.index)
        .collect();
    let everything: Vec<u64> = trace.iter().map(|t| t.index).collect();
    let mut points = sample(&structural, 24);
    points.extend(sample(&everything, 12));
    points.push(0);
    points.push(everything[everything.len() - 1]);
    points.sort_unstable();
    points.dedup();

    let mut resumed = 0usize;
    let mut fresh_fallbacks = 0usize;
    let mut recovery_wall = 0.0f64;
    for &p in &points {
        let dir_p = base.join(format!("crash-{p}"));
        let crash_vfs = FaultVfs::with_plan(StorageFaultPlan::seeded(seed).with_crash_at_op(p));
        let res = mk(Some(dcfg(&dir_p, crash_vfs))).run(&w.dirty, &w.trusted);
        assert_eq!(
            oracle_db, res.db,
            "crash at op {p}: repairs must still be byte-identical to the oracle"
        );
        let cw = res.wal.as_ref().expect("durability was configured");
        assert!(
            matches!(cw.health, WalHealth::Degraded { .. }),
            "crash at op {p} must surface as WalHealth::Degraded, got {:?}",
            cw.health
        );
        // recovery: reopen the crashed directory with a clean vfs
        let t1 = std::time::Instant::now();
        match mk(Some(dcfg(&dir_p, FaultVfs::clean()))).resume(&w.trusted) {
            Ok(rec) => {
                assert_eq!(
                    oracle_db, rec.db,
                    "crash at op {p}: recovery must be byte-identical to the oracle"
                );
                assert_eq!(
                    canon,
                    (rec.rounds, rec.changes.len(), rec.conflicts),
                    "crash at op {p}: recovery must converge to the oracle's totals"
                );
                resumed += 1;
            }
            Err(_) => {
                // the crash predates the first durable round: recovery is
                // a fresh durable run in a clean directory
                let _ = std::fs::remove_dir_all(&dir_p);
                let rec = mk(Some(dcfg(&dir_p, FaultVfs::clean()))).run(&w.dirty, &w.trusted);
                assert_eq!(
                    oracle_db, rec.db,
                    "crash at op {p}: fresh-run recovery must match the oracle"
                );
                fresh_fallbacks += 1;
            }
        }
        recovery_wall += t1.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir_p);
    }
    let recovery_wall_ratio = (recovery_wall / points.len() as f64) / wall_durable;

    // (3) degradation ladder: persistent fsync failure degrades (data
    // intact); transient faults are retried back to a complete log
    let dir_d = base.join("degraded");
    let res_d = mk(Some(dcfg(
        &dir_d,
        FaultVfs::with_plan(StorageFaultPlan::seeded(seed).with_sync_errors(1.0)),
    )))
    .run(&w.dirty, &w.trusted);
    assert_eq!(
        oracle_db, res_d.db,
        "persistent fsync failure must not change repairs"
    );
    let health_d = res_d.wal.as_ref().map(|s| s.health.clone());
    assert!(
        matches!(health_d, Some(WalHealth::Degraded { .. })),
        "persistent fsync failure must yield WalHealth::Degraded, got {health_d:?}"
    );
    let dir_t = base.join("transient");
    let cfg_t = dcfg(
        &dir_t,
        FaultVfs::with_plan(
            StorageFaultPlan::seeded(seed)
                .with_sync_errors(0.3)
                .with_torn_writes(0.2)
                .with_transient_fraction(1.0),
        ),
    );
    let mut engine_t = mk(Some(cfg_t));
    engine_t.config.cluster = ClusterConfig::default().with_max_retries(8);
    let res_t = engine_t.run(&w.dirty, &w.trusted);
    assert_eq!(
        oracle_db, res_t.db,
        "transient faults must not change repairs"
    );
    let wal_t = res_t.wal.clone().expect("durability was configured");
    let transient_retries = match wal_t.health {
        WalHealth::Recovered { io_retries } => {
            assert!(io_retries > 0, "Recovered implies at least one retry");
            io_retries
        }
        other => panic!(
            "transient faults at 30%/20% must be retried to WalHealth::Recovered, got {other:?}"
        ),
    };
    let _ = std::fs::remove_dir_all(&base);

    let mut table = Table::new(
        "Crashsim — storage faults, crash sweep (Sales EC)",
        &["metric", "value"],
    );
    table.row(vec!["seed".into(), format!("{seed}")]);
    table.row(vec!["rounds".into(), format!("{}", durable.rounds)]);
    table.row(vec!["checkpoints".into(), format!("{}", wal.checkpoints)]);
    table.row(vec![
        "trace ops / crash points".into(),
        format!("{total_ops} / {}", points.len()),
    ]);
    table.row(vec![
        "recoveries: resumed / fresh".into(),
        format!("{resumed} / {fresh_fallbacks} (all byte-identical, asserted)"),
    ]);
    table.row(vec![
        "recovery wall ratio".into(),
        format!("{recovery_wall_ratio:.2}x of durable run"),
    ]);
    table.row(vec![
        "degradation ladder".into(),
        format!("persistent->Degraded, transient->Recovered ({transient_retries} retries)"),
    ]);
    let json = json!({
        "panel": "crashsim",
        "seed": seed,
        "rounds": durable.rounds,
        "trace_ops": total_ops,
        "crash_points": points.len(),
        "structural_points": structural.len(),
        "resumed": resumed,
        "fresh_fallbacks": fresh_fallbacks,
        "checkpoints": wal.checkpoints,
        "recovery_wall_ratio": recovery_wall_ratio,
        "wall_durable": wall_durable,
        "transient_io_retries": transient_retries,
        "degraded_identical": true,
    });
    (table, json)
}
