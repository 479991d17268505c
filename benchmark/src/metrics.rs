//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is `manifest()` printed; a test keeps the two equal.

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: f64,
}

/// Seconds one run measures for; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 12;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sales-ml",
        why: "Sales detect + correct with ML rules: LSH blocking and model inference are most of the time, valuation enumeration is minor",
    },
    Workload {
        name: "logistics-logic",
        why: "Logistics detect + correct without ML: zero inferences, millions of two-variable valuations, so enumeration, data kernels and chase propose/resolve do the work",
    },
    Workload {
        name: "bank-stream",
        why: "Bank as a stream of 20-update batches through run_incremental: per-batch database clone, column rebuild and delta seeding, which batch runs hide",
    },
    Workload {
        name: "bank-discover",
        why: "Bank rule discovery only: predicate space, sampling, levelwise lattice, bitset cache and analyzer screen; the chase does not run",
    },
];

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// A bound is shared by the four workloads, so the least steady one sets
/// it: over ten seeds the quartile distance of `op_ms_p50` and
/// `tuples_per_s` is up to 8 % of the median on `bank-discover` (2–6 % on
/// the others) and that of `peak_rss_mb` 8–16 % on `logistics-logic`
/// (README, "End-to-end metrics"). Three times that is at or past the
/// contract's cap, so every bound is the cap.
pub const END_TO_END: &[Metric] = &[
    metric("op_ms_p50", "ms", Better::Lower, 0.25),
    metric("tuples_per_s", "1/s", Better::Higher, 0.25),
    metric("peak_rss_mb", "MB", Better::Lower, 0.25),
    metric("setup_s", "s", Better::Lower, 0.25),
];

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, Better::Higher, 0.0)
}

/// `<crate>.<metric>`. Counts are given a direction by what less work or a
/// better outcome looks like; where neither reading applies the direction
/// is "lower" and the README says the number is information only.
pub const PER_LAYER: &[Metric] = &[
    // core: the RockSystem facade, phase by phase (untraced reference passes)
    lo("core.discover_s", "s"),
    lo("core.detect_s", "s"),
    lo("core.correct_s", "s"),
    lo("core.correct_par_s", "s"),
    lo("core.batch_ms_p50", "ms"),
    lo("core.batch_ms_p95", "ms"),
    hi("core.updates_per_s", "1/s"),
    lo("core.warmup_s", "s"),
    lo("core.score_s", "s"),
    lo("core.poly_s", "s"),
    hi("quality.f1_detect", "ratio"),
    hi("quality.f1_correct", "ratio"),
    lo("workloads.generate_s", "s"),
    // detect
    lo("detect.blocking_s", "s"),
    lo("detect.blocking_index_s", "s"),
    lo("detect.scan_s", "s"),
    lo("detect.unit_busy_s", "s"),
    lo("detect.unit_max_s", "s"),
    lo("detect.violations", "count"),
    lo("detect.total_pairs", "count"),
    lo("detect.candidate_pairs", "count"),
    lo("detect.matches", "count"),
    hi("detect.match_ratio", "ratio"),
    // ml
    lo("ml.inferences", "count"),
    hi("ml.memo_hits", "count"),
    hi("ml.memo_hit_ratio", "ratio"),
    lo("ml.contentions", "count"),
    lo("ml.cost_units_modeled", "units"),
    lo("ml.predict_pair_ns", "ns"),
    lo("ml.memo_hit_ns", "ns"),
    // rees
    lo("rees.enumerate_s", "s"),
    lo("rees.valuations", "count"),
    hi("rees.valuations_per_s", "1/s"),
    // data
    lo("data.column_build_s", "s"),
    lo("data.column_bytes", "B"),
    lo("data.row_bytes", "B"),
    lo("data.kernel_const_op_s", "s"),
    hi("data.kernel_rows_per_s", "1/s"),
    lo("data.clone_s", "s"),
    lo("data.apply_delta_s", "s"),
    lo("data.snapshot_after_write_s", "s"),
    // chase
    lo("chase.run_s", "s"),
    lo("chase.rounds", "count"),
    lo("chase.valuations", "count"),
    lo("chase.proposals", "count"),
    hi("chase.proposal_ratio", "ratio"),
    hi("chase.carried", "count"),
    lo("chase.delta_tuples", "count"),
    lo("chase.conflicts", "count"),
    lo("chase.changes", "count"),
    lo("chase.steps", "count"),
    lo("chase.units", "count"),
    lo("chase.unit_busy_s", "s"),
    lo("chase.unit_max_s", "s"),
    lo("chase.serial_s", "s"),
    lo("chase.unit_failures", "count"),
    lo("chase.incr_run_s", "s"),
    lo("chase.incr_rounds", "count"),
    lo("chase.incr_valuations", "count"),
    // crystal
    lo("crystal.execute_overhead_us_w1", "us"),
    lo("crystal.execute_overhead_us_w2", "us"),
    hi("crystal.steals", "count"),
    lo("crystal.unit_imbalance", "ratio"),
    hi("crystal.parallel_speedup", "ratio"),
    // discovery + analyze
    lo("discovery.space_build_s", "s"),
    lo("discovery.sample_s", "s"),
    lo("discovery.mine_s", "s"),
    lo("discovery.verify_s", "s"),
    lo("discovery.candidates", "count"),
    hi("discovery.candidates_per_s", "1/s"),
    hi("discovery.pruned", "count"),
    hi("discovery.rules_out", "count"),
    hi("discovery.cache_hits", "count"),
    lo("discovery.cache_misses", "count"),
    hi("discovery.cache_hit_ratio", "ratio"),
    lo("discovery.cache_bytes_peak", "B"),
    lo("discovery.unit_busy_s", "s"),
    lo("analyze.screen_s", "s"),
    lo("analyze.rules_dropped", "count"),
    // the harness itself
    lo("trace.overhead_ratio", "ratio"),
    lo("trace.residue_ratio", "ratio"),
    hi("calib.bitset_gbps", "GB/s"),
    lo("compat_fixes_applied", "count"),
];

/// `BENCHMARK.json`, with exactly the keys the driver's contract names.
pub fn manifest() -> Json {
    let entry = |m: &Metric, with_bound: bool| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if with_bound {
            fields.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| entry(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| entry(m, false)).collect()),
        ),
    ])
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// A value set earlier; 0 if it was not.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object of a result line: every metric of `defs`, in
    /// their order. A per-layer metric a workload has no reading for is 0
    /// (the layer did no work there); an end-to-end metric must be set.
    /// A value set under a name `defs` does not list is a harness bug.
    pub fn to_json(&self, defs: &[Metric], required: bool) -> Json {
        for name in self.0.keys() {
            assert!(
                defs.iter().any(|m| m.name == *name),
                "metric {name} is not declared"
            );
        }
        Json::obj(defs.iter().map(|m| {
            let value = match self.0.get(m.name) {
                Some(v) => *v,
                None if required => panic!("metric {} was not measured", m.name),
                None => 0.0,
            };
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest().to_pretty(),
            "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn the_manifest_is_within_the_contract_limits() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = HashSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().to_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn values_fill_unmeasured_layers_with_zero_and_reject_unknown_names() {
        let mut v = Values::default();
        v.set("chase.rounds", 3.0);
        let doc = v.to_json(PER_LAYER, false);
        assert_eq!(doc.fields().len(), PER_LAYER.len());
        let rounds = doc.get("chase.rounds").unwrap();
        assert_eq!(rounds.get("value").unwrap().as_f64(), Some(3.0));
        assert_eq!(rounds.get("unit").unwrap().as_str(), Some("count"));
        assert_eq!(
            doc.get("ml.inferences")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        let mut bad = Values::default();
        bad.set("no.such_metric", 1.0);
        assert!(std::panic::catch_unwind(|| bad.to_json(PER_LAYER, false)).is_err());
    }
}
