//! One run of one workload: set-up, warm-up, timed operations, output
//! checks, metrics.
//!
//! Load is a closed loop from one client in this process at `workers = 1`:
//! the next operation starts when the previous one has returned. An
//! *operation* is one call into the system — `discover`, `detect`,
//! `correct`, or one ΔD batch through `run_incremental` — and each is
//! counted in `attempted`, and in `failed` when it panics, fails an output
//! check or reports a quarantined unit.
//!
//! Untraced runs (`--trace 0`) time operations through `RockSystem` and
//! produce the end-to-end metrics. Traced runs (`--trace 1`) repeat a few
//! passes through the span-wrapped mirror in `pipeline`, check the mirror
//! against `RockSystem`, run the single-layer measurements in `layers`,
//! and produce the per-layer metrics plus a span file and folded stacks.

use crate::layers;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::pipeline::{self, PhaseResult};
use crate::stats::{mean, median, percentile};
use crate::stream::{Stream, UPDATES_PER_BATCH};
use crate::trace::Tracer;
use rock_chase::{ChaseConfig, ChaseEngine, ChaseResult};
use rock_core::variant::{effective_rules, sorted_rules};
use rock_core::{RockSystem, Variant};
use rock_discovery::levelwise::DiscoveryReport;
use rock_workloads::workload::GenConfig;
use rock_workloads::{Task, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub compat_fixes: u32,
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub values: Values,
}

impl Outcome {
    /// The result line of the driver's contract.
    pub fn to_json(&self, trace: bool) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                if trace {
                    self.values.to_json(PER_LAYER, false)
                } else {
                    self.values.to_json(END_TO_END, true)
                },
            ),
        ])
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum App {
    Sales,
    Logistics,
    Bank,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Discover,
    Detect,
    Correct,
}

struct Spec {
    app: App,
    rows: usize,
    variant: Variant,
    /// The phases of one pass, for the batch workloads; empty for the
    /// stream.
    phases: &'static [Phase],
    /// Generated instances an untraced run measures (see `instance_seed`).
    instances: usize,
    /// F1 of detection and of correction on the `--seed 42` instance, to
    /// `F1_TOLERANCE`; 0 for a phase the workload does not run. They follow
    /// from the generated data, so they are pinned to the `rand` stand-in's
    /// stream and are re-baselined when that crate is replaced.
    pinned_f1: (f64, f64),
}

/// Sizes are set so that one round over a workload's instances takes about
/// half of `RUN_SECONDS` on the 2-core sandbox, so a run gives every
/// instance its cold pass and two timed ones. Discovery time follows the
/// number of rules that survive the sample, which moves by a fifth from
/// seed to seed at any size, so that workload uses many small instances.
fn spec(workload: &str) -> Option<Spec> {
    Some(match workload {
        "sales-ml" => Spec {
            app: App::Sales,
            rows: 1000,
            variant: Variant::Rock,
            phases: &[Phase::Detect, Phase::Correct],
            instances: 6,
            pinned_f1: (0.9401, 0.6788),
        },
        "logistics-logic" => Spec {
            app: App::Logistics,
            rows: 3000,
            variant: Variant::RockNoMl,
            phases: &[Phase::Detect, Phase::Correct],
            instances: 6,
            pinned_f1: (0.9489, 0.9152),
        },
        "bank-stream" => Spec {
            app: App::Bank,
            rows: 2000,
            variant: Variant::Rock,
            phases: &[],
            instances: 6,
            pinned_f1: (0.0, 0.2857),
        },
        "bank-discover" => Spec {
            app: App::Bank,
            rows: 200,
            variant: Variant::Rock,
            phases: &[Phase::Discover],
            instances: 32,
            pinned_f1: (0.0, 0.0),
        },
        _ => return None,
    })
}

const PINNED_SEED: u64 = 42;
const F1_TOLERANCE: f64 = 0.002;

/// What a system does on one generated database depends on that database:
/// pass times move by 3–25 % from seed to seed, far more than from run to
/// run. An untraced run therefore measures `Spec::instances` databases,
/// generated from seeds derived from `--seed` (the first is `--seed`
/// itself), and reports a per-instance median averaged over the instances.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64 * 1_000_003)
}

/// Reference and mirror passes of a traced run.
const TRACED_PASSES: usize = 3;
/// Untraced stream cycles of a traced run: 8 x 30 = 240 batch times, so
/// that the p95 has 12 samples beyond it.
const REFERENCE_CYCLES: usize = 8;
/// ΔD batches per stream cycle: the first `WARMUP_BATCHES` run on a cold
/// memo and are not timed.
const WARMUP_BATCHES: usize = 10;
const TIMED_BATCHES: usize = 30;

fn generate(spec: &Spec, seed: u64) -> Workload {
    let cfg = GenConfig {
        rows: spec.rows,
        error_rate: 0.08,
        seed,
        trusted_per_rel: 40,
    };
    match spec.app {
        App::Sales => rock_workloads::sales::generate(&cfg),
        App::Logistics => rock_workloads::logistics::generate(&cfg),
        App::Bank => rock_workloads::bank::generate(&cfg),
    }
}

/// The workload's last task cleans the whole database.
fn whole_db_task(w: &Workload) -> &Task {
    w.tasks.last().expect("workload has tasks")
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Counts operations and what went wrong with them.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ops {
    fn finish(self, values: Values) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            values,
        }
    }

    /// Runs one operation. `f` returns the seconds the system call took
    /// and, after its own checks, `Err` with the reason if the output was
    /// wrong. A panic is a failed operation, not a failed run.
    fn run(&mut self, what: &str, f: impl FnOnce() -> Result<f64, String>) -> Option<f64> {
        self.attempted += 1;
        let outcome =
            catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_owned()));
        match outcome {
            Ok(secs) => Some(secs),
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 20 {
                    self.failures.push(format!("{what}: {why}"));
                }
                None
            }
        }
    }
}

fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// The checks every phase result goes through: no quarantined units, the
/// same output as the first repetition, and the pinned F1 at seed 42.
struct PhaseChecks {
    /// `Spec::pinned_f1`, on the instance it was taken on.
    pinned_f1: Option<(f64, f64)>,
    first: Vec<(Phase, PhaseResult)>,
}

impl PhaseChecks {
    fn new(spec: &Spec, args: &Args, instance: usize) -> Self {
        PhaseChecks {
            pinned_f1: (args.seed == PINNED_SEED && instance == 0).then_some(spec.pinned_f1),
            first: Vec::new(),
        }
    }

    fn check(&mut self, phase: Phase, r: &PhaseResult) -> Result<(), String> {
        ensure(r.unit_failures == 0, || {
            format!("{} unit failures", r.unit_failures)
        })?;
        match self.first.iter().find(|(p, _)| *p == phase) {
            Some((_, first)) => ensure(first.digest == r.digest, || {
                format!(
                    "digest {:016x} differs from the first repetition's {:016x}",
                    r.digest, first.digest
                )
            })?,
            None => self.first.push((phase, r.clone())),
        }
        if phase == Phase::Discover {
            return Ok(());
        }
        ensure(r.f1 > 0.0 && r.f1 <= 1.0, || {
            format!("F1 {} out of range", r.f1)
        })?;
        if let Some((detect, correct)) = self.pinned_f1 {
            let pinned = if phase == Phase::Detect {
                detect
            } else {
                correct
            };
            ensure((r.f1 - pinned).abs() <= F1_TOLERANCE, || {
                format!("F1 {:.4} is not the pinned {:.4}", r.f1, pinned)
            })?;
        }
        Ok(())
    }

    fn f1(&self, phase: Phase) -> f64 {
        self.first
            .iter()
            .find(|(p, _)| *p == phase)
            .map_or(0.0, |(_, r)| r.f1)
    }
}

/// One phase through `RockSystem`: the seconds the call took, and its
/// result.
fn system_phase(sys: &RockSystem, w: &Workload, phase: Phase) -> (f64, PhaseResult) {
    let task = whole_db_task(w);
    match phase {
        Phase::Discover => pipeline::discover(sys, w),
        Phase::Detect => pipeline::detect(sys, w, task),
        Phase::Correct => pipeline::correct(sys, w, task),
    }
}

/// Every pass starts from the same model state: an empty memo and a
/// zeroed meter, so repetitions do the same work and counts repeat.
fn reset_models(w: &Workload) {
    w.registry.clear_memo();
    w.registry.meter.reset();
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = spec(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of: sales-ml, logistics-logic, bank-stream, bank-discover",
            args.workload
        )
    })?;
    let mut outcome = match (spec.phases.is_empty(), args.trace) {
        (false, false) => batch_untraced(&spec, args),
        (false, true) => batch_traced(&spec, args),
        (true, false) => stream_untraced(&spec, args),
        (true, true) => stream_traced(&spec, args),
    };
    if args.trace {
        outcome
            .values
            .set("compat_fixes_applied", args.compat_fixes as f64);
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------------

/// Runs `one` on every instance in turn, round after round, until
/// `seconds` have passed — but every instance at least once — or `one`
/// says the run is broken.
fn round_robin<I>(instances: &mut [I], seconds: f64, mut one: impl FnMut(&mut I) -> bool) {
    let start = Instant::now();
    let mut first_round = true;
    loop {
        for inst in instances.iter_mut() {
            if !first_round && start.elapsed().as_secs_f64() >= seconds {
                return;
            }
            if !one(inst) {
                return;
            }
        }
        first_round = false;
    }
}

struct BatchInstance {
    w: Workload,
    sys: RockSystem,
    checks: PhaseChecks,
    pass_s: Vec<f64>,
    phase_s: Vec<Vec<f64>>,
}

fn batch_untraced(spec: &Spec, args: &Args) -> Outcome {
    // `setup_s`: everything between nothing and the first steady-state
    // operation — generation (data, error injection, model training, rule
    // parsing), system construction, and the first, cold pass, which pages
    // the data in and builds the column snapshots. Once per instance.
    let mut setup_s = Vec::new();
    let mut instances: Vec<BatchInstance> = (0..spec.instances)
        .map(|i| {
            let t = Instant::now();
            let w = generate(spec, instance_seed(args.seed, i));
            let sys = pipeline::system(spec.variant, 1);
            for phase in spec.phases {
                system_phase(&sys, &w, *phase);
            }
            setup_s.push(t.elapsed().as_secs_f64());
            BatchInstance {
                w,
                sys,
                checks: PhaseChecks::new(spec, args, i),
                pass_s: Vec::new(),
                phase_s: vec![Vec::new(); spec.phases.len()],
            }
        })
        .collect();

    let mut ops = Ops::default();
    round_robin(&mut instances, args.seconds, |inst| {
        reset_models(&inst.w);
        let mut total = 0.0;
        let mut complete = true;
        for (i, phase) in spec.phases.iter().enumerate() {
            let took = ops.run(&format!("{phase:?}"), || {
                let (secs, result) = system_phase(&inst.sys, &inst.w, *phase);
                inst.checks.check(*phase, &result)?;
                if !spec.variant.uses_ml() {
                    let n = inst.w.registry.meter.inferences();
                    ensure(n == 0, || format!("{n} ML inferences in a no-ML variant"))?;
                }
                Ok(secs)
            });
            match took {
                Some(secs) => {
                    inst.phase_s[i].push(secs);
                    total += secs;
                }
                None => complete = false,
            }
        }
        if complete {
            inst.pass_s.push(total);
        }
        ops.failed < 10 // broken, not noisy: do not spend the run failing
    });

    let measured = || instances.iter().filter(|i| !i.pass_s.is_empty());
    let tuples: usize = measured().map(|i| i.w.dirty.total_tuples()).sum();
    let phase_medians: f64 = measured()
        .flat_map(|i| i.phase_s.iter().map(|s| median(s)))
        .sum();
    let mut values = Values::default();
    values.set("setup_s", median(&setup_s));
    values.set(
        "op_ms_p50",
        mean(measured().map(|i| median(&i.pass_s))) * 1e3,
    );
    values.set("tuples_per_s", tuples as f64 / phase_medians);
    values.set("peak_rss_mb", peak_rss_mb());
    ops.finish(values)
}

fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), std::io::Error> {
    std::fs::create_dir_all(&args.out_dir)?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    std::fs::write(
        args.out_dir.join(format!("{stem}.spans.json")),
        tracer.to_json(&args.workload, args.seed).to_pretty(),
    )?;
    std::fs::write(args.out_dir.join(format!("{stem}.folded")), tracer.folded())
}

fn chase_metrics(values: &mut Values, run_s: f64, res: &ChaseResult) {
    let units: Vec<f64> = res.round_makespans.concat();
    let busy: f64 = units.iter().sum();
    let valuations: u64 = res.round_stats.iter().map(|r| r.valuations).sum();
    let proposals: usize = res.round_stats.iter().map(|r| r.proposals).sum();
    values.set("chase.run_s", run_s);
    values.set("chase.rounds", res.rounds as f64);
    values.set("chase.valuations", valuations as f64);
    values.set("chase.proposals", proposals as f64);
    values.set(
        "chase.proposal_ratio",
        ratio(proposals as f64, valuations as f64),
    );
    values.set(
        "chase.carried",
        res.round_stats.iter().map(|r| r.carried).sum::<usize>() as f64,
    );
    values.set(
        "chase.delta_tuples",
        res.round_stats.iter().map(|r| r.delta_tuples).sum::<u64>() as f64,
    );
    values.set("chase.conflicts", res.conflicts as f64);
    values.set("chase.changes", res.changes.len() as f64);
    values.set("chase.steps", res.steps as f64);
    values.set("chase.units", units.len() as f64);
    values.set("chase.unit_busy_s", busy);
    values.set(
        "chase.unit_max_s",
        units.iter().copied().fold(0.0, f64::max),
    );
    // At one worker the units run back to back, so what is left of the
    // run is the serial part: resolve, apply, clone.
    values.set("chase.serial_s", (run_s - busy).max(0.0));
    values.set("chase.unit_failures", res.unit_failures.len() as f64);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn discovery_metrics(values: &mut Values, tracer: &Tracer, reports: &[DiscoveryReport]) {
    let candidates: usize = reports.iter().map(|r| r.candidates_evaluated).sum();
    let mine_s = tracer.seconds("discovery.mine");
    let (hits, misses, bytes_peak) = reports
        .iter()
        .filter_map(|r| r.cache.as_ref())
        .fold((0u64, 0u64, 0usize), |(h, m, b), c| {
            (h + c.hits, m + c.misses, b.max(c.bytes_peak))
        });
    values.set(
        "discovery.space_build_s",
        tracer.seconds("discovery.space_build"),
    );
    values.set("discovery.sample_s", tracer.seconds("discovery.sample"));
    values.set("discovery.mine_s", mine_s);
    values.set("discovery.verify_s", tracer.seconds("discovery.verify"));
    values.set("discovery.candidates", candidates as f64);
    values.set(
        "discovery.candidates_per_s",
        ratio(candidates as f64, mine_s),
    );
    values.set(
        "discovery.pruned",
        reports.iter().map(|r| r.pruned).sum::<usize>() as f64,
    );
    values.set(
        "discovery.rules_out",
        reports.iter().map(|r| r.rules.len()).sum::<usize>() as f64,
    );
    values.set("discovery.cache_hits", hits as f64);
    values.set("discovery.cache_misses", misses as f64);
    values.set(
        "discovery.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    values.set("discovery.cache_bytes_peak", bytes_peak as f64);
    values.set(
        "discovery.unit_busy_s",
        reports.iter().flat_map(|r| &r.unit_seconds).sum(),
    );
    values.set(
        "analyze.rules_dropped",
        reports
            .iter()
            .map(|r| r.rules_dropped_by_analyzer)
            .sum::<usize>() as f64,
    );
}

/// The measurements every traced run ends with, on the workload's own
/// data and the whole-database task's rules.
fn layer_metrics(values: &mut Values, w: &Workload, variant: Variant, seed: u64) {
    let rules = sorted_rules(&effective_rules(variant, &w.rules_for(whole_db_task(w))));
    let (enumerate_s, valuations) = layers::rees_enumerate(w, &rules);
    values.set("rees.enumerate_s", enumerate_s);
    values.set("rees.valuations", valuations as f64);
    values.set(
        "rees.valuations_per_s",
        ratio(valuations as f64, enumerate_s),
    );

    let d = layers::data_layer(w, &rules, seed);
    values.set("data.column_build_s", d.column_build_s);
    values.set("data.column_bytes", d.column_bytes as f64);
    values.set("data.row_bytes", d.row_bytes as f64);
    values.set("data.kernel_const_op_s", d.kernel_const_op_s);
    values.set(
        "data.kernel_rows_per_s",
        ratio(d.kernel_rows as f64, d.kernel_const_op_s),
    );
    values.set("data.clone_s", d.clone_s);
    values.set("data.apply_delta_s", d.apply_delta_s);
    values.set("data.snapshot_after_write_s", d.snapshot_after_write_s);

    let (predict_ns, hit_ns) = layers::ml_pair_ns(w, &rules, seed, 20_000);
    values.set("ml.predict_pair_ns", predict_ns);
    values.set("ml.memo_hit_ns", hit_ns);

    let (us_w1, _) = layers::crystal_overhead(1, 10_000);
    let (us_w2, steals) = layers::crystal_overhead(2, 10_000);
    values.set("crystal.execute_overhead_us_w1", us_w1);
    values.set("crystal.execute_overhead_us_w2", us_w2);
    values.set("crystal.steals", steals as f64);

    values.set("calib.bitset_gbps", layers::calib_bitset_gbps());

    // The analyzer screen runs inside `mine_relation`; from outside it can
    // only be timed by running it again, here over the curated rules.
    let schema = w.dirty.schema();
    let t = Instant::now();
    std::hint::black_box(rock_analyze::Analyzer::new(&schema).analyze(&w.rules));
    values.set("analyze.screen_s", t.elapsed().as_secs_f64());
}

/// ML meter readings since the last `reset_models`.
fn ml_metrics(values: &mut Values, w: &Workload) {
    let m = &w.registry.meter;
    let (inferences, hits) = (m.inferences() as f64, m.memo_hits() as f64);
    values.set("ml.inferences", inferences);
    values.set("ml.memo_hits", hits);
    values.set("ml.memo_hit_ratio", ratio(hits, hits + inferences));
    values.set("ml.contentions", m.contentions() as f64);
    // Modeled: abstract cost units the models declare, never wall time.
    values.set("ml.cost_units_modeled", m.cost());
}

fn phase_metric(phase: Phase) -> &'static str {
    match phase {
        Phase::Discover => "core.discover_s",
        Phase::Detect => "core.detect_s",
        Phase::Correct => "core.correct_s",
    }
}

fn batch_traced(spec: &Spec, args: &Args) -> Outcome {
    let mut tracer = Tracer::new(true);
    let mut values = Values::default();
    let mut ops = Ops::default();
    let mut checks = PhaseChecks::new(spec, args, 0);

    let w = tracer.span("workloads.generate", |_| generate(spec, args.seed));
    values.set("workloads.generate_s", tracer.seconds("workloads.generate"));
    let sys = pipeline::system(spec.variant, 1);
    let task = whole_db_task(&w);
    // Sales-ml times detect + correct end to end; its traced run also
    // splits one discovery, which is small there and large on Bank.
    let mut phases = spec.phases.to_vec();
    if !phases.contains(&Phase::Discover) && spec.variant.uses_ml() {
        phases.insert(0, Phase::Discover);
    }

    reset_models(&w);
    let t = Instant::now();
    for phase in &phases {
        system_phase(&sys, &w, *phase);
    }
    values.set("core.warmup_s", t.elapsed().as_secs_f64());

    // Reference passes through RockSystem: the untraced time of each
    // phase, and the digests the mirror has to reproduce.
    let mut reference: Vec<Vec<f64>> = vec![Vec::new(); phases.len()];
    for _ in 0..TRACED_PASSES {
        reset_models(&w);
        for (i, phase) in phases.iter().enumerate() {
            let took = ops.run(&format!("{phase:?}"), || {
                let (secs, result) = system_phase(&sys, &w, *phase);
                checks.check(*phase, &result)?;
                Ok(secs)
            });
            reference[i].extend(took);
        }
    }
    for (phase, times) in phases.iter().zip(&reference) {
        values.set(phase_metric(*phase), median(times));
    }
    values.set("quality.f1_detect", checks.f1(Phase::Detect));
    values.set("quality.f1_correct", checks.f1(Phase::Correct));

    // Mirror passes, span-wrapped.
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); phases.len()];
    let mut last_detect = None;
    let mut last_chase = None;
    let mut last_reports = Vec::new();
    for _ in 0..TRACED_PASSES {
        reset_models(&w);
        tracer.next_run();
        for (i, phase) in phases.iter().enumerate() {
            let took = ops.run(&format!("traced {phase:?}"), || {
                let t = Instant::now();
                let result = match phase {
                    Phase::Discover => {
                        let (r, reports) = pipeline::discover_traced(&mut tracer, &w, spec.variant);
                        last_reports = reports;
                        r
                    }
                    Phase::Detect => {
                        let (r, c) = pipeline::detect_traced(&mut tracer, &w, task, spec.variant);
                        last_detect = Some(c);
                        r
                    }
                    Phase::Correct => {
                        let (r, res) =
                            pipeline::correct_traced(&mut tracer, &w, task, spec.variant, 1);
                        last_chase = Some(res);
                        r
                    }
                };
                let secs = t.elapsed().as_secs_f64();
                // Same digest as RockSystem's: the mirror has not drifted.
                checks.check(*phase, &result)?;
                Ok(secs)
            });
            traced[i].extend(took);
        }
    }
    ml_metrics(&mut values, &w);

    let traced_total: f64 = traced.iter().map(|t| median(t)).sum();
    let reference_total: f64 = reference.iter().map(|t| median(t)).sum();
    values.set("trace.overhead_ratio", ratio(traced_total, reference_total));
    values.set(
        "trace.residue_ratio",
        tracer.residue_ratio(&["discover", "detect", "correct"]),
    );
    values.set("core.score_s", tracer.seconds("core.score"));
    values.set("core.poly_s", tracer.seconds("core.poly"));

    if let Some(c) = &last_detect {
        values.set("detect.blocking_s", tracer.seconds("detect.blocking"));
        values.set("detect.scan_s", tracer.seconds("detect.scan"));
        values.set("detect.unit_busy_s", c.unit_seconds.iter().sum());
        values.set(
            "detect.unit_max_s",
            c.unit_seconds.iter().copied().fold(0.0, f64::max),
        );
        values.set("detect.violations", c.violations as f64);
        values.set("detect.total_pairs", c.blocking.total_pairs as f64);
        values.set("detect.candidate_pairs", c.blocking.candidate_pairs as f64);
        values.set("detect.matches", c.blocking.matches as f64);
        values.set(
            "detect.match_ratio",
            ratio(c.blocking.matches as f64, c.blocking.candidate_pairs as f64),
        );
    }
    if let Some(res) = &last_chase {
        values.set(
            "detect.blocking_index_s",
            tracer.seconds("detect.blocking_index"),
        );
        chase_metrics(&mut values, tracer.seconds("chase.run"), res);

        // The same correction at two workers: how much of the unit time
        // the scheduler turns into speed-up. Not part of any timed pass.
        let par = pipeline::system(spec.variant, 2);
        let par_s: Vec<f64> = (0..TRACED_PASSES)
            .filter_map(|_| {
                reset_models(&w);
                ops.run("Correct at 2 workers", || {
                    let (secs, result) = system_phase(&par, &w, Phase::Correct);
                    checks.check(Phase::Correct, &result)?;
                    Ok(secs)
                })
            })
            .collect();
        let correct_par_s = median(&par_s);
        values.set("core.correct_par_s", correct_par_s);
        values.set(
            "crystal.parallel_speedup",
            ratio(values.get("core.correct_s"), correct_par_s),
        );
        values.set(
            "crystal.unit_imbalance",
            ratio(
                values.get("chase.unit_max_s") * values.get("chase.units"),
                values.get("chase.unit_busy_s"),
            ),
        );
    }
    if !last_reports.is_empty() {
        discovery_metrics(&mut values, &tracer, &last_reports);
    }
    layer_metrics(&mut values, &w, spec.variant, args.seed);

    ops.run("write trace", || {
        write_trace(args, &tracer).map_err(|e| e.to_string())?;
        Ok(0.0)
    });
    ops.finish(values)
}

// ---------------------------------------------------------------------------
// The stream workload
// ---------------------------------------------------------------------------

struct StreamSetup {
    w: Workload,
    stream: Stream,
}

/// The engine `RockSystem::correct_incremental` builds, kept across
/// batches.
fn with_stream_engine<R>(
    w: &Workload,
    variant: Variant,
    f: impl FnOnce(&ChaseEngine<'_>) -> R,
) -> R {
    let rules = sorted_rules(&effective_rules(variant, &w.rules_for(whole_db_task(w))));
    let engine = ChaseEngine::new(
        &rules,
        &w.registry,
        ChaseConfig {
            policy: pipeline::conflict_policy(w),
            ..Default::default()
        },
    );
    let engine = match &w.graph {
        Some(g) => engine.with_graph(g),
        None => engine,
    };
    f(&engine)
}

fn stream_setup(spec: &Spec, seed: u64) -> StreamSetup {
    let w = generate(spec, seed);
    let stream = Stream::generate(&w, seed, WARMUP_BATCHES + TIMED_BATCHES);
    StreamSetup { w, stream }
}

/// The stream's cold start: its warm-up batches once, results dropped.
fn stream_cold_start(s: &StreamSetup, variant: Variant) {
    with_stream_engine(&s.w, variant, |engine| {
        let mut base = s.stream.base.clone();
        for delta in &s.stream.batches[..WARMUP_BATCHES] {
            base = engine
                .run_incremental(&base, &s.w.trusted, delta)
                .expect("generated batches are well-formed")
                .db;
        }
    });
}

/// What one cycle — the whole stream, folded from the base — produced.
struct Cycle {
    /// Seconds per timed batch.
    batch_s: Vec<f64>,
    rounds: usize,
    valuations: u64,
}

/// Mirror of `RockSystem::correct_incremental`, batch after batch, each
/// result folded into the next base.
fn stream_cycle(
    s: &StreamSetup,
    variant: Variant,
    tracer: &mut Tracer,
    ops: &mut Ops,
    checks: &mut PhaseChecks,
) -> Cycle {
    let w = &s.w;
    with_stream_engine(w, variant, |engine| {
        stream_cycle_on(s, engine, tracer, ops, checks)
    })
}

fn stream_cycle_on(
    s: &StreamSetup,
    engine: &ChaseEngine<'_>,
    tracer: &mut Tracer,
    ops: &mut Ops,
    checks: &mut PhaseChecks,
) -> Cycle {
    let w = &s.w;
    reset_models(w);
    let mut base = s.stream.base.clone();
    let mut cycle = Cycle {
        batch_s: Vec::new(),
        rounds: 0,
        valuations: 0,
    };
    for (i, delta) in s.stream.batches.iter().enumerate() {
        let timed = i >= WARMUP_BATCHES;
        tracer.next_run();
        let mut run = || -> Result<f64, String> {
            let t = Instant::now();
            let res = tracer.span("batch", |t| {
                t.span("chase.run_incremental", |_| {
                    engine.run_incremental(&base, &w.trusted, delta)
                })
            });
            let secs = t.elapsed().as_secs_f64();
            let res = res.map_err(|e| format!("batch {i}: {e}"))?;
            ensure(res.unit_failures.is_empty(), || {
                format!("batch {i}: {} unit failures", res.unit_failures.len())
            })?;
            let capacity = res.db.relation(s.stream.main).capacity();
            ensure(capacity == s.stream.expected_capacity(i + 1), || {
                format!(
                    "batch {i}: capacity {capacity}, inserts got other tuple ids than predicted"
                )
            })?;
            if timed {
                cycle.rounds += res.rounds;
                cycle.valuations += res.round_stats.iter().map(|r| r.valuations).sum::<u64>();
            }
            base = res.db;
            Ok(secs)
        };
        if timed {
            cycle.batch_s.extend(ops.run("batch", run));
        } else if let Err(why) = run() {
            // A warm-up batch that fails leaves the fold in an unknown
            // state; count it so the run is not reported correct.
            ops.run("warm-up batch", || Err(why));
        }
    }
    ops.run("fold", || {
        let m = s.stream.score(&base, w);
        checks.check(
            Phase::Correct,
            &PhaseResult {
                digest: pipeline::database_digest(&base),
                f1: m.f1(),
                unit_failures: 0,
            },
        )?;
        Ok(0.0)
    });
    cycle
}

fn stream_untraced(spec: &Spec, args: &Args) -> Outcome {
    // As for the batch workloads: generation, then the cold start.
    let mut setup_s = Vec::new();
    let mut instances: Vec<(StreamSetup, PhaseChecks, Vec<f64>)> = (0..spec.instances)
        .map(|i| {
            let t = Instant::now();
            let s = stream_setup(spec, instance_seed(args.seed, i));
            stream_cold_start(&s, spec.variant);
            setup_s.push(t.elapsed().as_secs_f64());
            (s, PhaseChecks::new(spec, args, i), Vec::new())
        })
        .collect();

    let mut tracer = Tracer::new(false);
    let mut ops = Ops::default();
    round_robin(&mut instances, args.seconds, |(s, checks, batch_s)| {
        let cycle = stream_cycle(s, spec.variant, &mut tracer, &mut ops, checks);
        batch_s.extend(cycle.batch_s);
        ops.failed < 10
    });

    let measured = || {
        instances
            .iter()
            .map(|(_, _, b)| b)
            .filter(|b| !b.is_empty())
    };
    let batches: usize = measured().map(Vec::len).sum();
    let seconds: f64 = measured().flatten().sum();
    let mut values = Values::default();
    values.set("setup_s", median(&setup_s));
    values.set("op_ms_p50", mean(measured().map(|b| median(b))) * 1e3);
    values.set(
        "tuples_per_s",
        (batches * UPDATES_PER_BATCH) as f64 / seconds,
    );
    values.set("peak_rss_mb", peak_rss_mb());
    ops.finish(values)
}

fn stream_traced(spec: &Spec, args: &Args) -> Outcome {
    let mut tracer = Tracer::new(true);
    let mut values = Values::default();
    let mut ops = Ops::default();
    let mut checks = PhaseChecks::new(spec, args, 0);
    let s = tracer.span("workloads.generate", |_| stream_setup(spec, args.seed));
    values.set("workloads.generate_s", tracer.seconds("workloads.generate"));

    let mut off = Tracer::new(false);
    let t = Instant::now();
    stream_cycle(&s, spec.variant, &mut off, &mut ops, &mut checks);
    values.set("core.warmup_s", t.elapsed().as_secs_f64());

    let reference: Vec<f64> = (0..REFERENCE_CYCLES)
        .flat_map(|_| stream_cycle(&s, spec.variant, &mut off, &mut ops, &mut checks).batch_s)
        .collect();
    let traced = stream_cycle(&s, spec.variant, &mut tracer, &mut ops, &mut checks);
    ml_metrics(&mut values, &s.w);

    values.set("core.batch_ms_p50", median(&reference) * 1e3);
    values.set("core.batch_ms_p95", percentile(&reference, 95.0) * 1e3);
    values.set(
        "core.updates_per_s",
        (reference.len() * UPDATES_PER_BATCH) as f64 / reference.iter().sum::<f64>(),
    );
    values.set("quality.f1_correct", checks.f1(Phase::Correct));
    values.set("chase.incr_run_s", tracer.seconds("chase.run_incremental"));
    values.set("chase.incr_rounds", traced.rounds as f64);
    values.set("chase.incr_valuations", traced.valuations as f64);
    values.set(
        "trace.overhead_ratio",
        ratio(median(&traced.batch_s), median(&reference)),
    );
    values.set("trace.residue_ratio", tracer.residue_ratio(&["batch"]));
    layer_metrics(&mut values, &s.w, spec.variant, args.seed);

    ops.run("write trace", || {
        write_trace(args, &tracer).map_err(|e| e.to_string())?;
        Ok(0.0)
    });
    ops.finish(values)
}
