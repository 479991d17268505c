//! The end-to-end Rock system: discovery → detection → correction over a
//! [`rock_workloads::Workload`], for every variant.

use crate::poly::PolyPipeline;
use crate::variant::{effective_rules, sorted_rules, split_by_task, Variant};
use rock_chase::{
    ChaseConfig, ChaseEngine, ChaseResult, ConflictPolicy, RoundStats, WalError, WalSummary,
};
use rock_crystal::{FaultStats, UnitFailure};
use rock_data::Database;
use rock_detect::blocking::{precompute_ml, precompute_ml_indexed, BlockingStats};
use rock_detect::{DetectReport, Detector};
use rock_discovery::levelwise::{Discoverer, DiscoveryConfig};
use rock_discovery::sampling::mine_with_sampling;
use rock_discovery::space::{MlSignature, PredicateSpace, SpaceConfig};
use rock_discovery::topk::{diversified_top_k, score_rules, AnytimeMiner};
use rock_ml::MlBlockIndex;
use rock_rees::eval::enumerate_valuations;
use rock_rees::EvalContext;
use rock_rees::RuleSet;
use rock_workloads::metrics::{correction_metrics, detection_metrics, Metrics};
use rock_workloads::{Task, Workload};
use std::time::Instant;

/// System configuration: the paper's variants plus what a deployment
/// chooses. Engine internals (how the chase evaluates and schedules its
/// rounds) are not options.
#[derive(Debug, Clone)]
pub struct RockConfig {
    pub variant: Variant,
    /// Crystal workers for discovery, detection and the chase.
    pub workers: usize,
    /// Sampling ratio for discovery when the data is large (paper: 10%).
    pub sample_ratio: f64,
    pub discovery: DiscoveryConfig,
    /// Relative tolerance for polynomial checks.
    pub poly_tolerance: f64,
    /// Run LSH blocking + ML pre-computation before evaluation (§5.3).
    pub blocking: bool,
    /// The chase this system runs: gate, partitions per rule, round
    /// budget, Crystal fault-tolerance knobs (also threaded into discovery
    /// and detection), durability. Its `workers` and `policy` are filled
    /// in per run from `workers` above and the workload's models — see
    /// [`RockConfig::chase_config`].
    pub chase: ChaseConfig,
}

impl Default for RockConfig {
    fn default() -> Self {
        RockConfig {
            variant: Variant::Rock,
            workers: 1,
            sample_ratio: 0.1,
            discovery: DiscoveryConfig::default(),
            poly_tolerance: 0.02,
            blocking: true,
            chase: ChaseConfig::default(),
        }
    }
}

impl RockConfig {
    /// The one place a [`ChaseConfig`] is built: `chase`, with the
    /// system-wide worker count and the workload's conflict-resolution
    /// models.
    pub fn chase_config(&self, w: &Workload) -> ChaseConfig {
        ChaseConfig {
            workers: self.workers,
            policy: conflict_policy(w),
            ..self.chase.clone()
        }
    }
}

/// Conflict resolution with the workload's `Mc` and ranking models (§4.2).
pub fn conflict_policy(w: &Workload) -> ConflictPolicy {
    ConflictPolicy {
        mc: w.registry.id("Mc"),
        mrank: ["Mstatus", "Mtier", "Mrank"]
            .iter()
            .find_map(|n| w.registry.id(n)),
    }
}

/// Discovery outcome.
#[derive(Debug)]
pub struct DiscoveryOutcome {
    pub rules: RuleSet,
    pub candidates_evaluated: usize,
    pub wall_seconds: f64,
    /// Modeled ML cost spent (registry meter delta).
    pub ml_cost: f64,
    /// Scheduler fault counters aggregated over all mined relations.
    pub fault_stats: FaultStats,
    /// `rock-analyze` screen counters summed over all mined relations.
    pub analyzer: rock_analyze::AnalyzerStats,
    /// Mined rules the analyzer screen rejected across relations.
    pub rules_dropped_by_analyzer: usize,
}

/// Detection outcome.
#[derive(Debug)]
pub struct DetectionOutcome {
    pub report: DetectReport,
    pub metrics: Metrics,
    pub wall_seconds: f64,
    pub blocking: Option<BlockingStats>,
    pub unit_seconds: Vec<f64>,
}

/// Correction outcome.
#[derive(Debug)]
pub struct CorrectionOutcome {
    pub repaired: Database,
    pub metrics: Metrics,
    pub wall_seconds: f64,
    pub rounds: usize,
    pub conflicts: usize,
    pub changes: usize,
    pub unit_seconds: Vec<f64>,
    /// Per-round chase observability (delta sizes, valuations enumerated);
    /// concatenated across group runs for the sequential variants.
    pub round_stats: Vec<RoundStats>,
    /// Scheduler fault counters aggregated over all chase rounds.
    pub fault_stats: FaultStats,
    /// Quarantined work units (their rules' rounds were voided and
    /// re-attempted; a non-empty list after convergence means best-effort).
    pub unit_failures: Vec<UnitFailure>,
    /// Durability counters and [`rock_chase::WalHealth`] when the chase ran
    /// with a WAL (`RockConfig::chase.durability`); `None` for in-memory
    /// runs and the sequential variants (which chase per group, un-logged).
    pub wal: Option<WalSummary>,
}

impl CorrectionOutcome {
    /// The one `ChaseResult → CorrectionOutcome` conversion. `metrics` and
    /// `wall_seconds` are filled in by [`RockSystem`] once the polynomial
    /// pipeline has run over `repaired`.
    fn from_chase(res: ChaseResult) -> Self {
        CorrectionOutcome {
            metrics: Metrics::default(),
            wall_seconds: 0.0,
            rounds: res.rounds,
            conflicts: res.conflicts,
            changes: res.changes.len(),
            unit_seconds: res.round_makespans.concat(),
            round_stats: res.round_stats,
            fault_stats: res.fault_stats,
            unit_failures: res.unit_failures,
            wal: res.wal,
            repaired: res.db,
        }
    }

    /// Fold a later group run of a sequential variant into this outcome.
    fn absorb(&mut self, next: CorrectionOutcome) {
        self.rounds += next.rounds;
        self.conflicts += next.conflicts;
        self.changes += next.changes;
        self.unit_seconds.extend(next.unit_seconds);
        self.round_stats.extend(next.round_stats);
        self.fault_stats.merge(&next.fault_stats);
        self.unit_failures.extend(next.unit_failures);
        self.repaired = next.repaired;
    }
}

/// The Rock system facade.
pub struct RockSystem {
    pub config: RockConfig,
}

impl RockSystem {
    pub fn new(config: RockConfig) -> Self {
        RockSystem { config }
    }

    /// Rule discovery over every relation mentioned by the workload's ML
    /// hints plus all relations (two-variable templates), with sampling
    /// (§5.2) when the relation is larger than ~200 rows.
    pub fn discover(&self, w: &Workload) -> DiscoveryOutcome {
        let start = Instant::now();
        let cost0 = w.registry.meter.cost();
        let schema = w.dirty.schema();
        // convert hints
        let sigs: Vec<MlSignature> = if self.config.variant.uses_ml() {
            w.ml_hints
                .iter()
                .filter_map(|h| {
                    let rel = schema.rel_id(&h.rel)?;
                    let attrs = h
                        .attrs
                        .iter()
                        .filter_map(|a| schema.relation(rel).attr_id(a))
                        .collect();
                    Some(MlSignature {
                        model: h.model.clone(),
                        rel,
                        attrs,
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut disc_cfg = self.config.discovery.clone();
        disc_cfg.cluster = self.config.chase.cluster.clone();
        let disc = Discoverer::new(&w.registry, disc_cfg);
        let mut rules = RuleSet::default();
        let mut candidates = 0usize;
        let mut fault_stats = FaultStats::default();
        let mut analyzer = rock_analyze::AnalyzerStats::default();
        let mut rules_dropped = 0usize;
        for (rid, rel) in w.dirty.iter() {
            if rel.is_empty() {
                continue;
            }
            let space = PredicateSpace::build(&w.dirty, rid, &sigs, &SpaceConfig::default());
            let report = if rel.len() > 200 && self.config.sample_ratio < 1.0 {
                mine_with_sampling(
                    &disc,
                    &w.dirty,
                    rid,
                    &space,
                    self.config.sample_ratio,
                    0.05,
                    17,
                )
            } else {
                disc.mine_relation(&w.dirty, rid, &space)
            };
            candidates += report.candidates_evaluated;
            fault_stats.merge(&report.fault_stats);
            analyzer.merge(&report.analyzer);
            rules_dropped += report.rules_dropped_by_analyzer;
            for r in report.rules.rules {
                rules.push(r);
            }
        }
        DiscoveryOutcome {
            rules,
            candidates_evaluated: candidates,
            wall_seconds: start.elapsed().as_secs_f64(),
            ml_cost: w.registry.meter.cost() - cost0,
            fault_stats,
            analyzer,
            rules_dropped_by_analyzer: rules_dropped,
        }
    }

    /// Error detection for one task with the workload's curated rules.
    pub fn detect(&self, w: &Workload, task: &Task) -> DetectionOutcome {
        let start = Instant::now();
        let rules = self.task_rules(w, task);
        let blocking = if self.config.blocking && self.config.variant.uses_ml() {
            Some(precompute_ml(&w.dirty, &rules, &w.registry))
        } else {
            None
        };
        let mut detector = Detector::new(&rules, &w.registry)
            .with_workers(self.config.workers)
            .with_cluster(self.config.chase.cluster.clone());
        detector.partitions_per_rule = self.config.chase.partitions_per_rule;
        if let Some(g) = &w.graph {
            detector = detector.with_graph(g);
        }
        let mut report = detector.detect(&w.dirty);
        // polynomial detection for arithmetic tasks
        if self.config.variant.uses_ml() {
            if let Some((rel, attr)) = task.polynomial_target {
                if let Some(pipe) =
                    PolyPipeline::fit(&w.dirty, rel, attr, &w.trusted, self.config.poly_tolerance)
                {
                    report.flagged_cells.extend(pipe.detect(&w.dirty));
                }
            }
        }
        let metrics = detection_metrics(&report.flagged_cells, &w.truth, task.scope.as_ref());
        DetectionOutcome {
            unit_seconds: report.unit_seconds.clone(),
            metrics,
            wall_seconds: start.elapsed().as_secs_f64(),
            blocking,
            report,
        }
    }

    /// Error correction for one task: the chase (per variant schedule) plus
    /// the polynomial pipeline, scored against the clean oracle.
    pub fn correct(&self, w: &Workload, task: &Task) -> CorrectionOutcome {
        let start = Instant::now();
        let rules = self.task_rules(w, task);
        // Blocking installs the models' block filters and warms the memo
        // for every variant; the tuple-level index it returns doubles as
        // the unified chase's pair-enumeration pruner.
        let block_index: Option<MlBlockIndex> = (self.config.blocking
            && self.config.variant.uses_ml())
        .then(|| precompute_ml_indexed(&w.dirty, &rules, &w.registry).1);
        let mut out = match self.config.variant {
            Variant::Rock | Variant::RockNoMl => {
                let engine = self.engine(w, &rules, self.config.chase_config(w));
                let engine = match &block_index {
                    Some(idx) => engine.with_blocking(idx),
                    None => engine,
                };
                CorrectionOutcome::from_chase(engine.run(&w.dirty, &w.trusted))
            }
            Variant::RockSeq => self.run_sequential(w, &rules, true),
            Variant::RockNoC => self.run_sequential(w, &rules, false),
        };
        if self.config.variant.uses_ml() {
            if let Some((rel, attr)) = task.polynomial_target {
                if let Some(pipe) = PolyPipeline::fit(
                    &out.repaired,
                    rel,
                    attr,
                    &w.trusted,
                    self.config.poly_tolerance,
                ) {
                    pipe.correct(&mut out.repaired);
                }
            }
        }
        self.scored(w, task, start, out)
    }

    /// Incremental error correction (§3: "Rock corrects errors in batch
    /// and incremental modes"): apply ΔD and chase, activating only rules
    /// that read the touched relations.
    pub fn correct_incremental(
        &self,
        w: &Workload,
        task: &Task,
        delta: &rock_data::Delta,
    ) -> CorrectionOutcome {
        let start = Instant::now();
        let rules = self.task_rules(w, task);
        let res = self
            .engine(w, &rules, self.config.chase_config(w))
            .run_incremental(&w.dirty, &w.trusted, delta)
            .expect("workload deltas are well-formed");
        self.scored(w, task, start, CorrectionOutcome::from_chase(res))
    }

    /// Durable incremental correction: like [`Self::correct_incremental`],
    /// but each ΔD batch is logged to `config.chase.durability`'s WAL as a
    /// new session batch before its rounds run, so a correction stream
    /// killed mid-batch resumes mid-stream with the delta already durable
    /// ([`ChaseEngine::run_incremental_durable`]). Returns the chase's
    /// typed error surface; requires `config.chase.durability` to be set.
    pub fn correct_incremental_durable(
        &self,
        w: &Workload,
        task: &Task,
        delta: &rock_data::Delta,
    ) -> Result<CorrectionOutcome, WalError> {
        let start = Instant::now();
        let rules = self.task_rules(w, task);
        let res = self
            .engine(w, &rules, self.config.chase_config(w))
            .run_incremental_durable(&w.dirty, &w.trusted, delta)?;
        Ok(self.scored(w, task, start, CorrectionOutcome::from_chase(res)))
    }

    /// The rule set this variant runs for `task`, in deterministic order.
    fn task_rules(&self, w: &Workload, task: &Task) -> RuleSet {
        sorted_rules(&effective_rules(self.config.variant, &w.rules_for(task)))
    }

    /// A chase engine over `rules` with the workload's models and graph.
    fn engine<'a>(&self, w: &'a Workload, rules: &'a RuleSet, cfg: ChaseConfig) -> ChaseEngine<'a> {
        let engine = ChaseEngine::new(rules, &w.registry, cfg);
        match &w.graph {
            Some(g) => engine.with_graph(g),
            None => engine,
        }
    }

    /// Score the repaired database against the clean oracle and stamp the
    /// wall time.
    fn scored(
        &self,
        w: &Workload,
        task: &Task,
        start: Instant,
        mut out: CorrectionOutcome,
    ) -> CorrectionOutcome {
        out.metrics = correction_metrics(
            &w.dirty,
            &out.repaired,
            &w.clean,
            &w.truth,
            task.scope.as_ref(),
        );
        out.wall_seconds = start.elapsed().as_secs_f64();
        out
    }

    /// Data-quality assessment (§4.1): completeness / uniqueness /
    /// consistency / timeliness over a database, using the workload's
    /// curated rules for the consistency dimension and its relation keys
    /// for uniqueness. The pipeline typically compares `assess(dirty)`
    /// against `assess(repaired)`.
    pub fn assess(
        &self,
        w: &Workload,
        db: &rock_data::Database,
        keys: &[(rock_data::RelId, rock_data::AttrId)],
    ) -> rock_chase::QualityReport {
        let rules = effective_rules(self.config.variant, &w.rules.without_ml());
        rock_chase::QualityReport::assess(db, keys, &rules, &w.registry)
    }

    /// Top-k diversified rule discovery (§5.2 "Sampling and top-k
    /// strategies" / [37]): mine the candidate pool, score each rule by
    /// objective (support, confidence) and subjective (the learned
    /// user-preference model, trained from `labeled` feedback) measures,
    /// then greedily select `k` rules maximizing *data coverage*
    /// diversification (each rule's coverage = the tuples its precondition
    /// touches).
    pub fn discover_top_k(&self, w: &Workload, k: usize, labeled: &[(String, bool)]) -> RuleSet {
        let pool = self.discover(w).rules;
        let mut miner = AnytimeMiner::new(pool.rules.clone());
        for (name, useful) in labeled {
            if let Some(i) = pool.rules.iter().position(|r| &r.name == name) {
                miner.feedback(i, *useful);
            }
        }
        // coverage: tuple ids (first variable) whose bindings satisfy the
        // precondition
        let coverage: Vec<rock_data::FxHashSet<u32>> = pool
            .rules
            .iter()
            .map(|rule| {
                let ctx = EvalContext::new(&w.dirty, &w.registry);
                let mut cov = rock_data::FxHashSet::default();
                enumerate_valuations(rule, &ctx, |h| {
                    cov.insert(h.tuples[0].tid.0);
                    cov.len() < 5_000 // cap the scan; coverage is a ranking signal
                });
                cov
            })
            .collect();
        let pref = {
            // rebuild the preference model from the same feedback for
            // scoring (AnytimeMiner keeps its own copy for its iterator)
            let mut p = rock_discovery::topk::PreferenceModel::new();
            let labeled_rules: Vec<(&rock_rees::Rule, bool)> = labeled
                .iter()
                .filter_map(|(name, y)| {
                    pool.rules.iter().find(|r| &r.name == name).map(|r| (r, *y))
                })
                .collect();
            p.train(&labeled_rules);
            p
        };
        let scores = score_rules(&pool.rules, &pref, 0.6, 0.4);
        let picked = diversified_top_k(&scores, &coverage, k);
        RuleSet::new(picked.into_iter().map(|i| pool.rules[i].clone()).collect())
    }

    /// Rockseq / RocknoC scheduling: run the four task groups one at a
    /// time. `iterate` loops the whole sequence until no group changes
    /// anything (Rockseq); otherwise a single pass (RocknoC). The group
    /// runs chase un-logged: a WAL describes one chase, not a sequence.
    fn run_sequential(&self, w: &Workload, rules: &RuleSet, iterate: bool) -> CorrectionOutcome {
        let groups = split_by_task(rules);
        let cfg = ChaseConfig {
            max_rounds: if iterate {
                self.config.chase.max_rounds
            } else {
                1
            },
            durability: None,
            ..self.config.chase_config(w)
        };
        let mut fixes = rock_chase::FixStore::new();
        let mut out: Option<CorrectionOutcome> = None;
        let max_sweeps = if iterate { 8 } else { 1 };
        for _sweep in 0..max_sweeps {
            let mut changed_this_sweep = 0usize;
            for group in groups.iter().filter(|g| !g.is_empty()) {
                let db = out.as_ref().map_or(&w.dirty, |o| &o.repaired);
                // thread the fix store through: later groups (and sweeps)
                // must see earlier groups' entity merges and orders
                let mut res = self
                    .engine(w, group, cfg.clone())
                    .run_seeded(db, &w.trusted, fixes);
                changed_this_sweep += res.changes.len() + res.merged_pairs.len();
                fixes = std::mem::take(&mut res.fixes);
                let next = CorrectionOutcome::from_chase(res);
                match &mut out {
                    Some(o) => o.absorb(next),
                    None => out = Some(next),
                }
            }
            if changed_this_sweep == 0 {
                break;
            }
        }
        // no rules at all: the chase of an empty rule set is the identity
        out.unwrap_or_else(|| {
            CorrectionOutcome::from_chase(self.engine(w, rules, cfg).run(&w.dirty, &w.trusted))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_workloads::workload::GenConfig;

    fn strict_config(variant: Variant) -> RockConfig {
        RockConfig {
            variant,
            chase: ChaseConfig {
                gate: rock_chase::GateMode::Strict,
                ..ChaseConfig::default()
            },
            ..RockConfig::default()
        }
    }

    fn small() -> Workload {
        rock_workloads::logistics::generate(&GenConfig {
            rows: 150,
            error_rate: 0.1,
            seed: 3,
            trusted_per_rel: 15,
        })
    }

    #[test]
    fn detection_beats_coin_flip() {
        let w = small();
        let sys = RockSystem::new(RockConfig::default());
        let task = w.task("RClean").unwrap().clone();
        let out = sys.detect(&w, &task);
        assert!(out.metrics.f1() > 0.5, "F1 = {:.3}", out.metrics.f1());
        assert!(out.blocking.is_some());
    }

    #[test]
    fn correction_improves_data() {
        let w = small();
        let sys = RockSystem::new(RockConfig::default());
        let task = w.task("RClean").unwrap().clone();
        let out = sys.correct(&w, &task);
        assert!(out.metrics.f1() > 0.5, "F1 = {:.3}", out.metrics.f1());
        assert!(out.changes > 0);
        // repaired db differs from dirty and is closer to clean
        let dist = |a: &Database, b: &Database| -> usize {
            let mut d = 0;
            for (rid, rel) in a.iter() {
                for t in rel.iter() {
                    if let Some(u) = b.relation(rid).get(t.tid) {
                        d += t
                            .values
                            .iter()
                            .zip(&u.values)
                            .filter(|(x, y)| x != y)
                            .count();
                    }
                }
            }
            d
        };
        assert!(dist(&out.repaired, &w.clean) < dist(&w.dirty, &w.clean));
    }

    #[test]
    fn noml_variant_weaker_or_equal() {
        let w = small();
        let task = w.task("RClean").unwrap().clone();
        let full = RockSystem::new(RockConfig::default()).detect(&w, &task);
        let noml = RockSystem::new(RockConfig {
            variant: Variant::RockNoMl,
            ..RockConfig::default()
        })
        .detect(&w, &task);
        assert!(full.metrics.f1() >= noml.metrics.f1() - 1e-9);
    }

    #[test]
    fn seq_matches_rock_f1_noc_weaker() {
        let w = small();
        let task = w.task("RClean").unwrap().clone();
        let rock = RockSystem::new(RockConfig::default()).correct(&w, &task);
        let seq = RockSystem::new(RockConfig {
            variant: Variant::RockSeq,
            ..RockConfig::default()
        })
        .correct(&w, &task);
        let noc = RockSystem::new(RockConfig {
            variant: Variant::RockNoC,
            ..RockConfig::default()
        })
        .correct(&w, &task);
        // Rockseq converges to the same quality as Rock (both chase to
        // fixpoint; paper: "Rock has the same F-Measure as Rockseq")
        assert!(
            (rock.metrics.f1() - seq.metrics.f1()).abs() < 0.05,
            "rock {:.3} seq {:.3}",
            rock.metrics.f1(),
            seq.metrics.f1()
        );
        // RocknoC (single pass, no interaction) is no better
        assert!(
            noc.metrics.f1() <= rock.metrics.f1() + 1e-9,
            "noc {:.3} rock {:.3}",
            noc.metrics.f1(),
            rock.metrics.f1()
        );
    }

    #[test]
    fn quality_improves_after_correction() {
        let w = small();
        let sys = RockSystem::new(RockConfig::default());
        let task = w.task("RClean").unwrap().clone();
        let keys: Vec<(rock_data::RelId, rock_data::AttrId)> = vec![];
        let before = sys.assess(&w, &w.dirty, &keys);
        let out = sys.correct(&w, &task);
        let after = sys.assess(&w, &out.repaired, &keys);
        assert!(after.completeness >= before.completeness, "nulls filled");
        assert!(
            after.consistency >= before.consistency,
            "violations resolved"
        );
        assert!(after.overall() > before.overall());
    }

    #[test]
    fn top_k_discovery_is_diverse_and_bounded() {
        let w = small();
        let sys = RockSystem::new(RockConfig {
            discovery: DiscoveryConfig {
                min_support: 1e-4,
                min_confidence: 0.9,
                max_preconditions: 2,
                ..Default::default()
            },
            sample_ratio: 0.5,
            ..RockConfig::default()
        });
        let pool = sys.discover(&w).rules;
        let k = 3.min(pool.len());
        let top = sys.discover_top_k(&w, k, &[]);
        assert_eq!(top.len(), k);
        // feedback changes the selection when the pool is large enough
        if pool.len() > 4 {
            let disliked: Vec<(String, bool)> =
                top.iter().map(|r| (r.name.clone(), false)).collect();
            let retop = sys.discover_top_k(&w, k, &disliked);
            assert_eq!(retop.len(), k);
        }
    }

    #[test]
    fn strict_gate_is_conservative() {
        // Certain-fix regime: with the strict gate, every change must be
        // backed by trusted/validated precondition cells — fewer (or equal)
        // changes, and never a change contradicting the clean oracle on a
        // trusted tuple.
        let w = small();
        let task = w.task("RClean").unwrap().clone();
        let resolved = RockSystem::new(RockConfig::default()).correct(&w, &task);
        let strict = RockSystem::new(strict_config(Variant::Rock)).correct(&w, &task);
        assert!(strict.changes <= resolved.changes);
        // strict precision should not be worse
        if strict.metrics.tp + strict.metrics.fp > 0 {
            assert!(strict.metrics.precision() >= resolved.metrics.precision() - 0.05);
        }
    }

    /// Every variant chases under the configured gate. With nothing
    /// trusted, the Strict gate validates no precondition cell, so only
    /// rules that read none (null-triggered imputations) can fire — far
    /// fewer changes than the Resolved bootstrap. The sequential variants
    /// used to ignore the gate and repair as if it were Resolved.
    #[test]
    fn every_variant_honours_the_gate() {
        let mut w = small();
        w.trusted.clear();
        let task = w.task("RClean").unwrap().clone();
        for variant in [Variant::Rock, Variant::RockSeq, Variant::RockNoC] {
            let strict = RockSystem::new(strict_config(variant)).correct(&w, &task);
            let resolved = RockSystem::new(RockConfig {
                variant,
                ..RockConfig::default()
            })
            .correct(&w, &task);
            assert!(
                strict.changes < resolved.changes,
                "{} ignored the Strict gate: {} vs {} changes",
                variant.name(),
                strict.changes,
                resolved.changes
            );
        }
    }

    #[test]
    fn discovery_finds_rules_on_workload() {
        let w = small();
        let sys = RockSystem::new(RockConfig {
            discovery: DiscoveryConfig {
                min_support: 1e-4,
                min_confidence: 0.9,
                max_preconditions: 2,
                ..Default::default()
            },
            sample_ratio: 0.5,
            ..RockConfig::default()
        });
        let out = sys.discover(&w);
        assert!(!out.rules.is_empty(), "no rules discovered");
        assert!(out.candidates_evaluated > 0);
    }
}
