//! CI crash-recovery harness: run the Logistics correction chase with the
//! durability layer on, optionally crashing at a planned round boundary,
//! then resume and prove the repairs byte-identical.
//!
//! ```text
//! # oracle run (no crash), dump repairs
//! durable_chase --dir /tmp/wal-oracle --seed 3 --out oracle.json
//! # crashed run: abort()s right after round 1 became durable (exit != 0)
//! ROCK_CRASH_AT_ROUND=1 durable_chase --dir /tmp/wal --seed 3 --out x.json
//! # resume from the last durable round; must byte-match the oracle dump
//! durable_chase --dir /tmp/wal --seed 3 --resume --out resumed.json
//! cmp oracle.json resumed.json
//! # provenance query over the recovered WAL ("why is this cell 42?")
//! durable_chase --dir /tmp/wal --seed 3 --provenance auto
//! ```
//!
//! Flags: `--dir <path>` (required) WAL/checkpoint directory;
//! `--seed <u64>` workload generator seed (default 43);
//! `--resume` continue from the last durable round instead of starting;
//! `--resume-at <round>` continue from a specific durable round;
//! `--out <path>` write a canonical JSON dump of the chase outcome
//! (database, changes, merges, fix-store snapshot — everything the
//! byte-identity contract covers, nothing timing-dependent);
//! `--provenance auto|rel:tid:attr` print the provenance chain of a
//! repaired cell (auto = first repaired cell, sorted order).
//! `ROCK_CRASH_AT_ROUND=<n>` plants the crash drill in fresh runs.
//!
//! Exit codes: 0 ok, 2 usage error, 3 resume/WAL error (and the planned
//! crash dies by `abort()`, so the shell sees a signal, not an exit code).

use rock_chase::{ChaseConfig, ChaseEngine, ChaseResult, DurabilityConfig, ProvenanceGraph};
use rock_data::{
    json,
    json::{Json, ToJson},
    AttrId, CellRef, RelId, TupleId,
};
use rock_workloads::workload::GenConfig;
use std::path::PathBuf;

struct Args {
    dir: PathBuf,
    seed: u64,
    resume: bool,
    resume_at: Option<u64>,
    out: Option<PathBuf>,
    provenance: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: durable_chase --dir <path> [--seed <u64>] [--resume | --resume-at <round>] \
         [--out <path>] [--provenance auto|rel:tid:attr]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        dir: PathBuf::new(),
        seed: 43,
        resume: false,
        resume_at: None,
        out: None,
        provenance: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--dir" => {
                args.dir = PathBuf::from(need(i));
                i += 2;
            }
            "--seed" => {
                args.seed = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--resume" => {
                args.resume = true;
                i += 1;
            }
            "--resume-at" => {
                args.resume_at = Some(need(i).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--out" => {
                args.out = Some(PathBuf::from(need(i)));
                i += 2;
            }
            "--provenance" => {
                args.provenance = Some(need(i));
                i += 2;
            }
            _ => usage(),
        }
    }
    if args.dir.as_os_str().is_empty() {
        usage();
    }
    args
}

/// Canonical dump of everything the byte-identity contract covers. No
/// timing observability (`round_makespans`, fault counters) — those are
/// deliberately not checkpointed, so an interrupted run restarts them.
fn dump(res: &ChaseResult) -> Json {
    json!({
        "rounds": res.rounds,
        "steps": res.steps,
        "conflicts": res.conflicts,
        "changes": res.changes,
        "merged_pairs": res.merged_pairs,
        "round_stats": res.round_stats,
        "fixes": res.fixes.to_snapshot(),
        "db": res.db,
    })
}

fn main() {
    let args = parse_args();
    let w = rock_workloads::logistics::generate(&GenConfig {
        rows: 360,
        error_rate: 0.08,
        seed: args.seed,
        trusted_per_rel: 30,
    });
    let task = w.task("RClean").expect("RClean task").clone();
    let rules = rock_core::variant::sorted_rules(&w.rules_for(&task));

    let crash_at_round = std::env::var("ROCK_CRASH_AT_ROUND")
        .ok()
        .and_then(|s| s.parse::<usize>().ok());
    let durability = DurabilityConfig {
        crash_at_round,
        ..DurabilityConfig::new(&args.dir)
    };
    let cfg = ChaseConfig {
        durability: Some(durability),
        ..ChaseConfig::default()
    };
    let engine = ChaseEngine::new(&rules, &w.registry, cfg);
    let engine = match &w.graph {
        Some(g) => engine.with_graph(g),
        None => engine,
    };

    let res = if let Some(r) = args.resume_at {
        engine.resume_at(&w.trusted, r)
    } else if args.resume {
        engine.resume(&w.trusted)
    } else {
        Ok(engine.run(&w.dirty, &w.trusted))
    };
    let res = match res {
        Ok(r) => r,
        Err(e) => {
            eprintln!("resume failed: {e}");
            std::process::exit(3);
        }
    };
    if let Some(s) = &res.wal {
        if let Some(err) = &s.error {
            eprintln!("durability degraded: {err}");
            std::process::exit(3);
        }
        eprintln!(
            "chase done: rounds={} changes={} wal_records={} checkpoints={} (full={} delta={}) \
             segments_rotated={} compacted={} resumed_from={:?} health={:?}",
            res.rounds,
            res.changes.len(),
            s.records,
            s.checkpoints,
            s.full_checkpoints,
            s.delta_checkpoints,
            s.segments_rotated,
            s.segments_compacted,
            s.resumed_from,
            s.health
        );
    }

    if let Some(out) = &args.out {
        let body = dump(&res).to_pretty();
        rock_bench::write_atomic(out, body).expect("write dump");
    }

    if let Some(spec) = &args.provenance {
        let graph = match ProvenanceGraph::load(&args.dir) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("failed to load WAL: {e}");
                std::process::exit(3);
            }
        };
        let cell = if spec == "auto" {
            match graph.repaired_cells().first().copied() {
                Some(c) => c,
                None => {
                    eprintln!("no repaired cells in the WAL");
                    std::process::exit(3);
                }
            }
        } else {
            let parts: Vec<u32> = spec.split(':').filter_map(|p| p.parse().ok()).collect();
            if parts.len() != 3 {
                usage();
            }
            CellRef::new(
                RelId(parts[0] as u16),
                TupleId(parts[1]),
                AttrId(parts[2] as u16),
            )
        };
        match graph.why(cell) {
            Some(chain) => {
                println!("{}", chain.to_json().to_pretty());
            }
            None => {
                eprintln!("no fix recorded for cell {cell:?}");
                std::process::exit(3);
            }
        }
    }
}
