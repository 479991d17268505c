//! Developer scratch tool: print precision/recall breakdowns for one
//! (app, task) detection/correction run. Not part of the figure set.

use rock_bench::panels;
use rock_bench::runners;
use rock_core::Variant;
use rock_workloads::metrics::detection_metrics;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(|s| s.as_str()) == Some("provenance") {
        // `debug_panel provenance <wal-dir> [rel:tid:attr]` — answer "why
        // is this cell 42?" from a durable chase's WAL (rock_chase::wal).
        // Without a cell, lists the repaired cells and explains the first.
        let Some(dir) = args.get(1) else {
            eprintln!("usage: debug_panel provenance <wal-dir> [rel:tid:attr]");
            std::process::exit(2);
        };
        let graph = match rock_chase::ProvenanceGraph::load(std::path::Path::new(dir)) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("failed to load WAL from {dir}: {e}");
                std::process::exit(3);
            }
        };
        println!(
            "provenance graph: {} fixes over {} repaired cells",
            graph.len(),
            graph.repaired_cells().len()
        );
        let cell = match args.get(2) {
            Some(spec) => {
                let parts: Vec<u32> = spec.split(':').filter_map(|p| p.parse().ok()).collect();
                if parts.len() != 3 {
                    eprintln!("cell spec must be rel:tid:attr (numeric ids), got {spec}");
                    std::process::exit(2);
                }
                rock_data::CellRef::new(
                    rock_data::RelId(parts[0] as u16),
                    rock_data::TupleId(parts[1]),
                    rock_data::AttrId(parts[2] as u16),
                )
            }
            None => match graph.repaired_cells().first().copied() {
                Some(c) => c,
                None => {
                    println!("no repaired cells in this WAL");
                    return;
                }
            },
        };
        match graph.why(cell) {
            Some(chain) => {
                println!(
                    "why {cell:?}: fix #{} (round {}, rule {}) via {:?}",
                    chain.fix.id, chain.fix.round, chain.fix.rule, chain.fix.kind
                );
                println!("  valuation: {:?}", chain.fix.valuation);
                for a in &chain.ancestors {
                    println!(
                        "  <- fix #{} (round {}, rule {}) {:?}",
                        a.id, a.round, a.rule, a.kind
                    );
                }
            }
            None => {
                eprintln!("no fix recorded for cell {cell:?}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.first().map(|s| s.as_str()) == Some("wal") {
        // `debug_panel wal <dir>` — inspect a durability directory: the
        // log's size and valid prefix, the live checkpoint, and the health
        // a resume would infer.
        let Some(dir) = args.get(1) else {
            eprintln!("usage: debug_panel wal <durability-dir>");
            std::process::exit(2);
        };
        let dir = std::path::Path::new(dir);
        let scan = match rock_chase::read_wal_dir(dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("unreadable WAL dir {}: {e}", dir.display());
                std::process::exit(3);
            }
        };
        let vfs = rock_crystal::FaultVfs::clean();
        let fingerprint = match scan.records.first() {
            Some((_, rock_chase::WalRecord::Begin { fingerprint })) => *fingerprint,
            _ => 0,
        };
        println!(
            "WAL: {}  bytes={}  valid={}  records={}  fingerprint {fingerprint:#018x}{}",
            rock_chase::WAL_FILE,
            vfs.file_size(&dir.join(rock_chase::WAL_FILE)).unwrap_or(0),
            scan.valid_len,
            scan.records.len(),
            if scan.corrupt_tail {
                "  CORRUPT TAIL"
            } else {
                ""
            }
        );
        let mut batches = 0u64;
        let mut last_batch = 1u64;
        let mut newest: Option<(u64, String, u32)> = None;
        for (_, rec) in &scan.records {
            match rec {
                rock_chase::WalRecord::BatchBegin { batch, .. } => {
                    batches += 1;
                    last_batch = *batch;
                }
                rock_chase::WalRecord::RoundCommit {
                    round,
                    checkpoint: Some(name),
                    state_crc,
                } => newest = Some((*round, name.clone(), *state_crc)),
                _ => {}
            }
        }
        if batches > 0 {
            println!("session: {batches} incremental batch(es), latest batch {last_batch}");
        }
        match newest {
            None => println!(
                "health: no durable round — resume would fall back to a fresh run{}",
                if scan.corrupt_tail {
                    " (corrupt tail)"
                } else {
                    ""
                }
            ),
            Some((round, name, crc)) => {
                let bytes = vfs.read(&dir.join(&name)).unwrap_or_default();
                let decoded = rock_chase::ChaseCheckpoint::from_bytes(&bytes);
                println!(
                    "live checkpoint: {name}  round={}  bytes={}  crc={}",
                    decoded.map_or("undecodable".into(), |ck| ck.round.to_string()),
                    bytes.len(),
                    if rock_crystal::crc32(&bytes) == crc {
                        "ok"
                    } else {
                        "MISMATCH"
                    }
                );
                println!(
                    "health: {} — resume would recover round {round} from {name}",
                    if scan.corrupt_tail {
                        "corrupt tail (crashed append; resume truncates past it)"
                    } else {
                        "clean"
                    }
                );
            }
        }
        return;
    }
    if args.first().map(|s| s.as_str()) == Some("crystal") {
        // Seeded chaos run over the Logistics correction task; prints the
        // scheduler's fault-handling counters. Seed from argv[1] or
        // ROCK_CHAOS_SEED (default 4242).
        let seed = args
            .get(1)
            .and_then(|s| s.parse::<u64>().ok())
            .or_else(|| {
                std::env::var("ROCK_CHAOS_SEED")
                    .ok()
                    .and_then(|s| s.parse().ok())
            })
            .unwrap_or(4242);
        let w = panels::logistics();
        let task = w.task("RClean").unwrap().clone();
        let plan = rock_crystal::FaultPlan::chaos(seed).with_crash(1, 2);
        let sys = rock_core::RockSystem::new(rock_core::RockConfig {
            workers: 4,
            chase: rock_chase::ChaseConfig {
                cluster: rock_crystal::ClusterConfig::default().with_fault_plan(plan),
                ..Default::default()
            },
            ..rock_core::RockConfig::default()
        });
        let t0 = std::time::Instant::now();
        let out = sys.correct(&w, &task);
        println!(
            "crystal chaos seed={seed} wall={:.2}s rounds={} changes={} conflicts={} F1={:.3} quarantined_units={}",
            t0.elapsed().as_secs_f64(),
            out.rounds,
            out.changes,
            out.conflicts,
            out.metrics.f1(),
            out.unit_failures.len()
        );
        let f = &out.fault_stats;
        println!(
            "  retries={} panics_caught={} transients={} latency={} reassigned={} quarantined={} node_crashes={}",
            f.retries,
            f.panics_caught,
            f.transient_errors,
            f.latency_injected,
            f.reassigned,
            f.quarantined,
            f.node_crashes
        );
        for fl in &out.unit_failures {
            println!(
                "  quarantined unit {} (rule {}) after {} attempts: {}",
                fl.unit, fl.rule, fl.attempts, fl.error
            );
        }
        return;
    }
    if args.first().map(|s| s.as_str()) == Some("ec") {
        let w = rock_workloads::logistics::generate(&rock_workloads::workload::GenConfig {
            rows: 900,
            error_rate: 0.08,
            seed: 45,
            trusted_per_rel: 40,
        });
        let task = w.task("RClean").unwrap().clone();
        let t0 = std::time::Instant::now();
        let sys = rock_core::RockSystem::new(rock_core::RockConfig {
            chase: rock_chase::ChaseConfig {
                partitions_per_rule: 64,
                ..Default::default()
            },
            ..rock_core::RockConfig::default()
        });
        let out = sys.correct(&w, &task);
        let wall = t0.elapsed().as_secs_f64();
        let unit_sum: f64 = out.unit_seconds.iter().sum();
        println!(
            "EC wall={wall:.2}s out.wall={:.2}s rounds={} units_sum={unit_sum:.3}s n_units={} changes={} conflicts={} ml_cost={:.0}",
            out.wall_seconds, out.rounds, out.unit_seconds.len(), out.changes, out.conflicts,
            w.registry.meter.cost()
        );
        for (i, rs) in out.round_stats.iter().enumerate() {
            println!(
                "  round {i}: rules={} delta_tuples={} valuations={} proposals={} carried={}",
                rs.active_rules, rs.delta_tuples, rs.valuations, rs.proposals, rs.carried
            );
        }
        return;
    }
    if args.first().map(|s| s.as_str()) == Some("corr") {
        let appn = args.get(1).map(|s| s.as_str()).unwrap_or("Logistics");
        let w = match appn {
            "Bank" => panels::bank(),
            "Logistics" => panels::logistics(),
            _ => panels::sales(),
        };
        let task = w.tasks.last().unwrap().clone();
        let (run, repaired) = runners::rock_correct(&w, &task, Variant::Rock, 1);
        println!(
            "{appn} EC: tp={} fp={} fn={} P={:.3} R={:.3} F1={:.3}",
            run.metrics.tp,
            run.metrics.fp,
            run.metrics.fn_,
            run.metrics.precision(),
            run.metrics.recall(),
            run.metrics.f1()
        );
        // per-class recall: error cells whose repaired value == clean value
        for (name, map) in [
            ("corrupted", &w.truth.corrupted),
            ("nulled", &w.truth.nulled),
            ("stale", &w.truth.stale),
        ] {
            let mut fixed = 0;
            for (c, correct) in map {
                if repaired.cell(c.rel, c.tid, c.attr) == Some(correct) {
                    fixed += 1;
                }
            }
            println!("  {name}: {fixed}/{} repaired correctly", map.len());
        }
        // fp breakdown by column
        let mut fp_by: std::collections::BTreeMap<String, usize> = Default::default();
        for (rid, rel) in repaired.iter() {
            for t in rel.iter() {
                for a in 0..rel.schema.arity() {
                    let attr = rock_data::AttrId(a as u16);
                    let cell = rock_data::CellRef::new(rid, t.tid, attr);
                    let rep = t.get(attr);
                    let dirty_v = w.dirty.cell(rid, t.tid, attr);
                    let clean_v = w.clean.cell(rid, t.tid, attr);
                    if Some(rep) != dirty_v && Some(rep) != clean_v {
                        let reln = rel.schema.name.clone();
                        let attrn = rel.schema.attr_name(attr).to_owned();
                        *fp_by
                            .entry(format!(
                                "{reln}.{attrn} cell={cell} {:?}->{rep:?}",
                                dirty_v.map(|v| v.to_string())
                            ))
                            .or_default() += 1;
                    }
                }
            }
        }
        for (k, n) in fp_by.iter().take(12) {
            println!("  FP {k} x{n}");
        }
        println!("  total fp kinds: {}", fp_by.len());
        return;
    }
    let app = args.first().map(|s| s.as_str()).unwrap_or("Bank");
    let task_name = args.get(1).map(|s| s.as_str()).unwrap_or("CIC");
    let w = match app {
        "Bank" => panels::bank(),
        "Logistics" => panels::logistics(),
        _ => panels::sales(),
    };
    let task = w.task(task_name).expect("task").clone();
    let run = runners::rock_detect(&w, &task, Variant::Rock, 1);
    println!(
        "{app}/{task_name} detect: tp={} fp={} fn={} P={:.3} R={:.3} F1={:.3}",
        run.metrics.tp,
        run.metrics.fp,
        run.metrics.fn_,
        run.metrics.precision(),
        run.metrics.recall(),
        run.metrics.f1()
    );
    // per-error-class recall
    let sys = rock_core::RockSystem::new(rock_core::RockConfig::default());
    let out = sys.detect(&w, &task);
    for (name, map) in [
        ("corrupted", &w.truth.corrupted),
        ("nulled", &w.truth.nulled),
        ("stale", &w.truth.stale),
    ] {
        let scoped = task.scope.as_ref();
        let in_scope = |c: &rock_data::CellRef| scoped.map(|s| s.contains(c)).unwrap_or(true);
        let total = map.keys().filter(|c| in_scope(c)).count();
        let hit = map
            .keys()
            .filter(|c| in_scope(c) && out.report.flagged_cells.contains(c))
            .count();
        println!("  {name}: {hit}/{total} recalled");
    }
    // false positives by (rel, attr)
    let truth_cells = w.truth.error_cells();
    let mut fp_by: std::collections::BTreeMap<String, usize> = Default::default();
    for c in &out.report.flagged_cells {
        let in_scope = task.scope.as_ref().map(|s| s.contains(c)).unwrap_or(true);
        if in_scope && !truth_cells.contains(c) {
            let rel = w.dirty.relation(c.rel).schema.name.clone();
            let attr = w.dirty.relation(c.rel).schema.attr_name(c.attr).to_owned();
            *fp_by.entry(format!("{rel}.{attr}")).or_default() += 1;
        }
    }
    println!("  false positives by column: {fp_by:?}");
    let m = detection_metrics(&out.report.flagged_cells, &w.truth, task.scope.as_ref());
    println!("  recheck F1={:.3}", m.f1());
    if let Some((rel, attr)) = task.polynomial_target {
        if let Some(pipe) = rock_core::PolyPipeline::fit(&w.dirty, rel, attr, &w.trusted, 0.02) {
            println!(
                "  poly terms={:?} intercept={} resid={}",
                pipe.expr.terms, pipe.expr.intercept, pipe.expr.mean_abs_residual
            );
            println!("  poly flags={}", pipe.detect(&w.dirty).len());
        } else {
            println!("  poly fit: None");
        }
    }
}

// Extra mode: `debug_panel ec` — time the Logistics-EC chase pieces.
