//! Deterministic fault injection for the Crystal scheduler.
//!
//! The paper's Crystal substrate (§5.1–5.2) promises that "no node is idle
//! unless all work units are finished" — a liveness claim that only matters
//! when something goes wrong. This module supplies the *wrongness*: a seeded
//! [`FaultPlan`] that injects per-unit panics, transient errors, latency
//! spikes (stragglers) and whole-node crashes into
//! [`crate::scheduler::Cluster::execute`], reproducibly from a single `u64`
//! seed.
//!
//! Determinism contract: every fault decision is a pure function of
//! `(seed, unit index, attempt index)` via splitmix64 mixing — **not** of
//! thread interleaving or call order. Two runs with the same plan inject
//! exactly the same faults into exactly the same units, regardless of how
//! the work-stealing scheduler happens to interleave them. That is what
//! makes "a faulted run yields byte-identical repairs to a clean run" a
//! testable CI property rather than a flaky aspiration.

use std::time::Duration;

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer. Used to derive all
/// fault decisions from `(seed, unit, attempt, salt)` without any shared
/// RNG state (shared state would reintroduce call-order dependence).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derive a fault-decision hash from `(seed, unit, attempt, salt)`. Public so
/// sibling fault layers (e.g. [`crate::storage::FaultVfs`]) share the exact
/// same derivation and stay deterministic relative to each other.
#[inline]
pub fn mix(seed: u64, unit: usize, attempt: u32, salt: u64) -> u64 {
    let lane = (unit as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(attempt).wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(salt.wrapping_mul(0x2545_f491_4f6c_dd1d));
    splitmix64(seed ^ splitmix64(lane))
}

/// Map a mixed hash to a uniform fraction in `[0, 1)`.
#[inline]
pub fn unit_fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Crash node `node` after it has completed `after_units` units in a run
/// (the crash fires at a unit boundary, so no in-flight work is lost — the
/// node's remaining queue is re-enqueued onto survivors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCrash {
    /// Worker index to kill (ignored when it is the only worker: killing
    /// the last survivor would deadlock the run, so the crash is skipped).
    pub node: usize,
    /// Number of units the node completes before dying.
    pub after_units: u64,
}

/// A seeded, declarative description of which faults to inject.
///
/// All probabilities are per-unit decisions that fire on a unit's first
/// attempt only, so any `max_retries ≥ 1` recovers every injected fault —
/// which is what the byte-identical-repair assertions rely on. Units listed
/// in `poison_units` panic on *every* attempt and are the only way to
/// exercise quarantine deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed; all decisions derive from it.
    pub seed: u64,
    /// Probability an attempt panics.
    pub panic_prob: f64,
    /// Probability an attempt fails with a transient [`UnitError`].
    pub transient_prob: f64,
    /// Probability an attempt is delayed (straggler simulation).
    pub latency_prob: f64,
    /// Upper bound of an injected delay; the actual delay is a seeded
    /// fraction in `[0.25, 1.0]` of this.
    pub max_latency: Duration,
    /// Units that panic on every attempt (deterministic poison → quarantine).
    pub poison_units: Vec<u32>,
    /// Optional whole-node crash.
    pub crash: Option<NodeCrash>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            panic_prob: 0.0,
            transient_prob: 0.0,
            latency_prob: 0.0,
            max_latency: Duration::from_millis(2),
            poison_units: Vec::new(),
            crash: None,
        }
    }
}

impl FaultPlan {
    /// An empty plan with the given seed (no faults until builders add some).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A "chaos" preset: panics + transients + stragglers at moderate rates
    /// (fully recoverable). This is what the CI seed matrix runs.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_prob: 0.08,
            transient_prob: 0.08,
            latency_prob: 0.05,
            max_latency: Duration::from_millis(2),
            poison_units: Vec::new(),
            crash: None,
        }
    }

    pub fn with_panics(mut self, prob: f64) -> Self {
        self.panic_prob = prob.clamp(0.0, 1.0);
        self
    }

    pub fn with_transients(mut self, prob: f64) -> Self {
        self.transient_prob = prob.clamp(0.0, 1.0);
        self
    }

    pub fn with_latency(mut self, prob: f64, max: Duration) -> Self {
        self.latency_prob = prob.clamp(0.0, 1.0);
        self.max_latency = max;
        self
    }

    pub fn with_poison(mut self, units: Vec<u32>) -> Self {
        self.poison_units = units;
        self
    }

    pub fn with_crash(mut self, node: usize, after_units: u64) -> Self {
        self.crash = Some(NodeCrash { node, after_units });
        self
    }

    /// True if the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.panic_prob > 0.0
            || self.transient_prob > 0.0
            || self.latency_prob > 0.0
            || !self.poison_units.is_empty()
            || self.crash.is_some()
    }
}

/// What the injector decided for one `(unit, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    None,
    /// Panic (via `panic_any(InjectedFault)`) before the unit body runs.
    Panic,
    /// Fail with a transient [`UnitError`] before the unit body runs.
    Transient,
    /// Sleep this long, then run the unit body normally.
    Latency(Duration),
}

/// Pure decision function over a [`FaultPlan`]. Stateless and `Sync`: safe
/// to consult from every worker thread without coordination.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fault for `(unit, attempt)`. Pure: depends only on the
    /// plan and the arguments.
    pub fn decide(&self, unit: usize, attempt: u32) -> FaultDecision {
        if unit <= u32::MAX as usize && self.plan.poison_units.contains(&(unit as u32)) {
            return FaultDecision::Panic;
        }
        if attempt > 0 {
            return FaultDecision::None;
        }
        let seed = self.plan.seed;
        if self.plan.panic_prob > 0.0
            && unit_fraction(mix(seed, unit, attempt, 0x01)) < self.plan.panic_prob
        {
            return FaultDecision::Panic;
        }
        if self.plan.transient_prob > 0.0
            && unit_fraction(mix(seed, unit, attempt, 0x02)) < self.plan.transient_prob
        {
            return FaultDecision::Transient;
        }
        if self.plan.latency_prob > 0.0
            && unit_fraction(mix(seed, unit, attempt, 0x03)) < self.plan.latency_prob
        {
            let frac = 0.25 + 0.75 * unit_fraction(mix(seed, unit, attempt, 0x04));
            return FaultDecision::Latency(self.plan.max_latency.mul_f64(frac));
        }
        FaultDecision::None
    }
}

/// Panic payload used for injected panics, so the panic-hook filter and the
/// scheduler's `catch_unwind` can tell injected faults from genuine bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    pub unit: usize,
    pub attempt: u32,
}

/// Install (once, process-wide) a panic hook that silences the default
/// "thread panicked" report for [`InjectedFault`] payloads and forwards
/// everything else to the previously installed hook. Chaos runs inject
/// hundreds of panics; without this the test output is unreadable noise.
pub fn silence_injected_panics() {
    use crate::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_some() {
                return;
            }
            previous(info);
        }));
    });
}

/// Why one attempt of a work unit failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitError {
    /// The unit body panicked (injected or genuine); the message is the
    /// stringified panic payload.
    Panic(String),
    /// A transient, retryable error.
    Transient(String),
    /// The unit never produced a result (e.g. its worker died outside the
    /// retry path); should not occur under the shipped scheduler.
    Lost,
}

impl std::fmt::Display for UnitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnitError::Panic(m) => write!(f, "unit panicked: {m}"),
            UnitError::Transient(m) => write!(f, "transient unit error: {m}"),
            UnitError::Lost => write!(f, "unit result lost"),
        }
    }
}

impl std::error::Error for UnitError {}

/// A unit that was quarantined after exhausting its retry budget. Reported
/// in [`crate::scheduler::ExecuteOutcome::failures`]; never fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitFailure {
    /// Index of the unit in the submitted batch.
    pub unit: usize,
    /// The rule the unit evaluates (`WorkUnit::rule`).
    pub rule: u32,
    /// Total attempts made (`max_retries + 1` for a quarantined unit).
    pub attempts: u32,
    /// The error from the final attempt.
    pub error: UnitError,
}

/// Fault-handling counters, embedded in
/// [`crate::scheduler::SchedulerStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Panics caught by the per-unit `catch_unwind` (injected + genuine).
    pub panics_caught: u64,
    /// Attempts that failed with a transient [`UnitError`].
    pub transient_errors: u64,
    /// Attempts delayed by injected latency.
    pub latency_injected: u64,
    /// Units re-enqueued from a crashed node's deque onto survivors.
    pub reassigned: u64,
    /// Units quarantined after exhausting retries.
    pub quarantined: u64,
    /// Whole-node crashes honored this run.
    pub node_crashes: u64,
}

impl FaultStats {
    /// Accumulate another run's counters (e.g. per-round stats into a
    /// whole-chase total).
    pub fn merge(&mut self, other: &FaultStats) {
        self.retries += other.retries;
        self.panics_caught += other.panics_caught;
        self.transient_errors += other.transient_errors;
        self.latency_injected += other.latency_injected;
        self.reassigned += other.reassigned;
        self.quarantined += other.quarantined;
        self.node_crashes += other.node_crashes;
    }

    /// True if any fault-handling machinery engaged.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }
}

/// Resilience knobs for [`crate::scheduler::Cluster`], surfaced on
/// `rock::RockConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Faults to inject; `None` disables injection (production default).
    pub fault_plan: Option<FaultPlan>,
    /// Retries per unit beyond the first attempt before quarantine
    /// (total attempts = `max_retries + 1`).
    pub max_retries: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            fault_plan: None,
            max_retries: 2,
        }
    }
}

/// Base of the capped exponential retry backoff.
const RETRY_BACKOFF: Duration = Duration::from_micros(200);

impl ClusterConfig {
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Capped exponential backoff before retrying after failed attempt
    /// `attempt` (0-based): `200 µs × 2^min(attempt, 4)`. Deterministic in
    /// duration (wall-clock only; never affects results).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        RETRY_BACKOFF.saturating_mul(1u32 << attempt.min(4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_avalanches() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        // differing in one input bit flips ~half the output bits
        let diff = (a ^ b).count_ones();
        assert!(diff > 16 && diff < 48, "diff {diff}");
    }

    #[test]
    fn decisions_are_pure_functions() {
        let inj = FaultInjector::new(FaultPlan::chaos(42));
        for unit in 0..200 {
            for attempt in 0..3 {
                assert_eq!(inj.decide(unit, attempt), inj.decide(unit, attempt));
            }
        }
    }

    #[test]
    fn seeds_give_different_plans() {
        let a = FaultInjector::new(FaultPlan::chaos(1));
        let b = FaultInjector::new(FaultPlan::chaos(2));
        let differing = (0..500)
            .filter(|&u| a.decide(u, 0) != b.decide(u, 0))
            .count();
        assert!(differing > 0, "different seeds must differ somewhere");
    }

    #[test]
    fn first_attempt_only_recovers() {
        let inj = FaultInjector::new(FaultPlan::chaos(7));
        for unit in 0..500 {
            assert_eq!(inj.decide(unit, 1), FaultDecision::None);
        }
    }

    #[test]
    fn chaos_rates_roughly_match() {
        let inj = FaultInjector::new(FaultPlan::chaos(99));
        let n = 10_000usize;
        let mut panics = 0;
        let mut transients = 0;
        let mut latencies = 0;
        for u in 0..n {
            match inj.decide(u, 0) {
                FaultDecision::Panic => panics += 1,
                FaultDecision::Transient => transients += 1,
                FaultDecision::Latency(d) => {
                    latencies += 1;
                    assert!(d >= Duration::from_micros(500) && d <= Duration::from_millis(2));
                }
                FaultDecision::None => {}
            }
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!((frac(panics) - 0.08).abs() < 0.02, "panics {panics}");
        assert!(
            (frac(transients) - 0.08).abs() < 0.02,
            "transients {transients}"
        );
        assert!(
            (frac(latencies) - 0.05).abs() < 0.02,
            "latencies {latencies}"
        );
    }

    #[test]
    fn poison_fires_on_every_attempt() {
        let inj = FaultInjector::new(FaultPlan::seeded(5).with_poison(vec![3]));
        for attempt in 0..10 {
            assert_eq!(inj.decide(3, attempt), FaultDecision::Panic);
        }
        assert_eq!(inj.decide(4, 0), FaultDecision::None);
    }

    #[test]
    fn backoff_caps() {
        let cfg = ClusterConfig::default();
        assert_eq!(cfg.backoff_for(0), Duration::from_micros(200));
        assert_eq!(cfg.backoff_for(1), Duration::from_micros(400));
        assert_eq!(cfg.backoff_for(4), Duration::from_micros(3200));
        assert_eq!(cfg.backoff_for(40), Duration::from_micros(3200), "capped");
    }

    #[test]
    fn fault_stats_merge_and_any() {
        let mut a = FaultStats::default();
        assert!(!a.any());
        let b = FaultStats {
            retries: 2,
            panics_caught: 1,
            ..FaultStats::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.retries, 4);
        assert_eq!(a.panics_caught, 2);
        assert!(a.any());
    }
}
