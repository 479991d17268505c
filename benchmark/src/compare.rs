//! `compare <a> <b>`: two result sets side by side, one row per workload ×
//! end-to-end metric, judged by the bounds in `metrics::END_TO_END`.
//!
//! A result set is the file `all --out` writes: one JSON object per line,
//! `{"workload", "seed", "trace", "result"}`, `result` being a run's result
//! line. Only untraced runs carry end-to-end metrics and only they are
//! read.

use crate::json::Json;
use crate::metrics::{Better, Metric, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's own quartile distance exceeds the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

struct Side {
    n: usize,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, q3) = if values.len() >= 2 {
            quartiles(values)
        } else {
            (median(values), median(values))
        };
        Side {
            n: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// By how much of `a`'s median `b` is worse; negative when it is better.
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn judge(m: &Metric, a: &Side, b: &Side) -> Verdict {
    let worse_by = worsening(m, a.median, b.median);
    if a.spread() > m.bound || b.spread() > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Values of one end-to-end metric on one workload, over the set's
/// untraced runs. A run that was not correct still counts: hiding it would
/// make a broken side look fast.
fn values_of(set: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|run| {
            run.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

pub fn parse_set(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(Json::parse)
        .collect()
}

/// The table, and whether any row is `worse`.
pub fn compare(a: &[Json], b: &[Json]) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<13} {:>5} {:>32} {:>32} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "unit",
        "a: median [q1, q3] (n)",
        "b: median [q1, q3] (n)",
        "worse by",
        "bound"
    );
    let mut any_worse = false;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (va, vb) = (values_of(a, w.name, m.name), values_of(b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                out += &format!("{:<16} {:<13} missing on one side\n", w.name, m.name);
                continue;
            }
            let (sa, sb) = (Side::of(&va), Side::of(&vb));
            let verdict = judge(m, &sa, &sb);
            any_worse |= verdict == Verdict::Worse;
            let cell = |s: &Side| format!("{:.4} [{:.4}, {:.4}] ({})", s.median, s.q1, s.q3, s.n);
            out += &format!(
                "{:<16} {:<13} {:>5} {:>32} {:>32} {:>+7.1}% {:>5.0}%  {}\n",
                w.name,
                m.name,
                m.unit,
                cell(&sa),
                cell(&sb),
                worsening(m, sa.median, sb.median) * 100.0,
                m.bound * 100.0,
                verdict.as_str()
            );
        }
    }
    let failed = |set: &[Json]| {
        set.iter()
            .filter(|r| {
                r.get("result")
                    .and_then(|r| r.get("correct"))
                    .and_then(Json::as_bool)
                    != Some(true)
            })
            .count()
    };
    out += &format!("runs not correct: a {}, b {}\n", failed(a), failed(b));
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(op_ms: &[f64], tuples: &[f64]) -> Vec<Json> {
        let text: String = op_ms
            .iter()
            .zip(tuples)
            .map(|(o, t)| {
                format!(
                    "{{\"workload\": \"sales-ml\", \"seed\": 1, \"trace\": 0, \"result\": \
                     {{\"correct\": true, \"metrics\": {{\"op_ms_p50\": {{\"value\": {o}, \"unit\": \"ms\"}}, \
                     \"tuples_per_s\": {{\"value\": {t}, \"unit\": \"1/s\"}}}}}}}}\n"
                )
            })
            .collect();
        parse_set(&text).unwrap()
    }

    fn row<'a>(table: &'a str, metric: &str) -> &'a str {
        table
            .lines()
            .find(|l| l.starts_with("sales-ml") && l.contains(metric))
            .unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = set(&[100.0, 101.0, 99.0, 100.0], &[500.0, 505.0, 495.0, 500.0]);
        // 50 % slower and a third less throughput: both worse.
        let slow = set(&[150.0, 151.0, 149.0, 150.0], &[333.0, 336.0, 330.0, 333.0]);
        let (table, worse) = compare(&base, &slow);
        assert!(worse);
        assert!(row(&table, "op_ms_p50").ends_with("worse"), "{table}");
        assert!(row(&table, "tuples_per_s").ends_with("worse"), "{table}");
        // The other way round both are better, and nothing is worse.
        let (table, worse) = compare(&slow, &base);
        assert!(!worse);
        assert!(row(&table, "op_ms_p50").ends_with("better"), "{table}");
        // Within the bound: same.
        let near = set(&[104.0, 105.0, 103.0, 104.0], &[490.0, 495.0, 485.0, 490.0]);
        let (table, worse) = compare(&base, &near);
        assert!(!worse);
        assert!(row(&table, "op_ms_p50").ends_with("same"), "{table}");
        // A side noisier than the bound resolves nothing, however far apart.
        let noisy = set(&[100.0, 150.0, 200.0, 250.0], &[500.0, 505.0, 495.0, 500.0]);
        let (table, worse) = compare(&base, &noisy);
        assert!(!worse);
        assert!(row(&table, "op_ms_p50").ends_with("unresolved"), "{table}");
        assert!(row(&table, "tuples_per_s").ends_with("same"), "{table}");
        // Metrics a set does not have are reported, not invented.
        assert!(
            table.contains("peak_rss_mb   missing on one side"),
            "{table}"
        );
    }
}
