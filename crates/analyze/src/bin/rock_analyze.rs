//! `rock-analyze` — static analysis of REE++ rulesets from the CLI.
//!
//! ```text
//! rock-analyze [--workload bank|logistics|sales|all] \
//!              [--format human|json] [--defects] [--seed N] [--why]
//! ```
//!
//! Analyzes each workload's curated ruleset against its schema and prints
//! the diagnostics, either human-readable or as one JSON document (the CI
//! artifact). `--defects` first injects the seeded defective rules from
//! `rock-workloads` — a self-check that every defect class is caught.
//! `--why` replays each witnessed competing-writer hazard (`W301`) through
//! a one-tuple durable chase and prints the competing
//! `ProvenanceGraph::why` fix chains — the provenance-backed
//! counterexample. Exit code is the maximum severity seen: 0 clean,
//! 1 warnings, 2 errors.

use rock_analyze::{certify, Analyzer};
use rock_chase::provenance::replay_witness;
use rock_chase::FixKind;
use rock_data::{json::Json, DatabaseSchema};
use rock_ml::ModelRegistry;
use rock_rees::{RuleSet, Severity};
use rock_workloads::defects::{inject_defects, DefectKind};
use rock_workloads::workload::GenConfig;
use std::process::ExitCode;

struct Opts {
    workload: String,
    format: String,
    defects: bool,
    seed: u64,
    why: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: "all".to_owned(),
        format: "human".to_owned(),
        defects: false,
        seed: 7,
        why: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--workload" | "-w" => opts.workload = take("--workload")?,
            "--format" | "-f" => opts.format = take("--format")?,
            "--seed" => {
                opts.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--defects" => opts.defects = true,
            "--why" => opts.why = true,
            "--help" | "-h" => {
                println!(
                    "usage: rock-analyze [--workload bank|logistics|sales|all] \
                     [--format human|json] [--defects] [--seed N] [--why]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !matches!(
        opts.workload.as_str(),
        "bank" | "logistics" | "sales" | "all"
    ) {
        return Err(format!("unknown workload '{}'", opts.workload));
    }
    if !matches!(opts.format.as_str(), "human" | "json") {
        return Err(format!("unknown format '{}'", opts.format));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rock-analyze: {e}");
            return ExitCode::from(64); // EX_USAGE
        }
    };
    let names: Vec<&str> = if opts.workload == "all" {
        vec!["bank", "logistics", "sales"]
    } else {
        vec![opts.workload.as_str()]
    };
    // Small scale: the analyzer only needs schema + rules, not the data.
    let cfg = GenConfig {
        rows: 60,
        ..GenConfig::default()
    };
    let mut worst: Option<Severity> = None;
    let mut json_docs = Vec::new();
    for name in names {
        let w = match name {
            "bank" => rock_workloads::bank::generate(&cfg),
            "logistics" => rock_workloads::logistics::generate(&cfg),
            _ => rock_workloads::sales::generate(&cfg),
        };
        let schema = w.dirty.schema();
        let (rules, label) = if opts.defects {
            let (defective, injected) =
                inject_defects(&w.rules, &schema, opts.seed, &DefectKind::ALL);
            (
                defective,
                format!("{name} (+{} seeded defects)", injected.len()),
            )
        } else {
            (w.rules.clone(), name.to_owned())
        };
        let report = Analyzer::new(&schema).analyze(&rules);
        worst = worst.max(report.max_severity());
        if opts.format == "json" {
            json_docs.push(report.to_json(&label));
        } else {
            print_human(&label, &report);
        }
        if opts.why {
            print_why(&rules, &report, &schema);
        }
    }
    if opts.format == "json" {
        println!("{}", Json::Arr(json_docs).to_pretty());
    }
    ExitCode::from(worst.map_or(0, |s| s.exit_code() as u8))
}

fn print_human(label: &str, report: &rock_analyze::AnalysisReport) {
    println!(
        "== {label}: {} rules, {} errors, {} warnings ==",
        report.graph.nrules,
        report.error_count(),
        report.warning_count()
    );
    for d in &report.diagnostics {
        println!("{d}");
    }
    let dead = report.graph.dead.iter().filter(|x| **x).count();
    println!(
        "   graph: {} edges, {} skip-safe dead, {} follow-writes",
        report.graph.edges.len(),
        dead,
        report.graph.follows_writes.iter().filter(|x| **x).count()
    );
    let bound = match &report.schedule.bound {
        Some(rock_rees::RoundBound::Rounds(n)) => format!("{n} rounds"),
        Some(rock_rees::RoundBound::LatticeHeight {
            slack,
            ordered_attrs,
        }) => format!(
            "lattice height + {slack}{}",
            if *ordered_attrs { " (ordered)" } else { "" }
        ),
        None => "none".to_owned(),
    };
    println!(
        "   certificate: {}, {} strata ({} cyclic), bound: {bound}",
        report.schedule.class.as_str(),
        report.schedule.strata.len(),
        report
            .schedule
            .stratum_cyclic
            .iter()
            .filter(|c| **c)
            .count(),
    );
}

/// `--why`: replay every witnessed W301 hazard through a one-tuple durable
/// chase and print the competing provenance chains for the contested cell.
fn print_why(rules: &RuleSet, report: &rock_analyze::AnalysisReport, schema: &DatabaseSchema) {
    let hazards = certify::hazards(rules, &report.schedule, schema);
    let witnessed: Vec<_> = hazards.iter().filter(|h| h.witness.is_some()).collect();
    if witnessed.is_empty() {
        println!("   why: no witnessed competing-writer hazards (W301) to replay");
        return;
    }
    let registry = ModelRegistry::new();
    let rs: Vec<&rock_rees::Rule> = rules.iter().collect();
    for h in witnessed {
        let Some(tuple) = &h.witness else {
            continue;
        };
        let rel = schema.relation(h.rel);
        let cell = format!("{}.{}", rel.name, rel.attr_name(h.attr));
        println!(
            "-- why {cell}: '{}' vs '{}' on a tuple with {}",
            rs[h.i].name,
            rs[h.j].name,
            certify::render_witness(h.rel, tuple, schema)
        );
        match replay_witness(rules, &registry, schema, h.rel, tuple.clone(), h.attr) {
            Ok(rep) => {
                println!(
                    "   replay: {} round(s), {} conflict(s), {} committed fix chain(s)",
                    rep.rounds,
                    rep.conflicts,
                    rep.chains.len()
                );
                for chain in &rep.chains {
                    let by = rs
                        .get(chain.fix.rule as usize)
                        .map_or("?", |r| r.name.as_str());
                    println!(
                        "   chain: fix #{} by rule '{by}' in round {} ({} ancestor fix(es))",
                        chain.fix.id,
                        chain.fix.round,
                        chain.ancestors.len()
                    );
                    if let FixKind::Cell { old, new, .. } = &chain.fix.kind {
                        println!("          {cell}: '{old}' -> '{new}'");
                    }
                }
            }
            Err(e) => println!("   replay failed: {e}"),
        }
    }
}
