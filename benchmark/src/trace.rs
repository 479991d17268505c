//! Harness-owned spans around calls into the engine's layers.
//!
//! A span is (name, start, end, parent, run). Spans nest by call
//! structure: `tracer.span("detect.scan", |t| ..)` opens a child of
//! whatever span is open. Everything is kept in memory and written out
//! once, at exit, as a JSON span list and as folded stacks
//! (`a;b;c <self ns>` per line, the input format of flamegraph tools).
//!
//! A disabled tracer runs the closure and records nothing, so the
//! untraced runs that produce the end-to-end numbers execute the same
//! harness code without reading a clock per layer call.

use crate::json::Json;
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a stage (top-level) span.
    pub parent: Option<usize>,
    /// The operation (pass or ΔD batch) this span belongs to.
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans recorded from here on belong to the next operation.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the time its direct children cover. The
    /// harness is single-threaded, so children never overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Seconds spent in spans called `name`, summed within each run, as
    /// the median over the runs that have such a span. 0 when none has.
    pub fn seconds(&self, name: &str) -> f64 {
        let mut per_run: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_run.entry(s.run).or_default() += s.dur_ns();
        }
        if per_run.is_empty() {
            return 0.0;
        }
        let secs: Vec<f64> = per_run.values().map(|ns| *ns as f64 / 1e9).collect();
        median(&secs)
    }

    /// The largest share of any stage span (a top-level span with one of
    /// the names in `stages`) that its child spans do not cover: how much
    /// of a stage the layer split fails to explain.
    pub fn residue_ratio(&self, stages: &[&str]) -> f64 {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.parent.is_none() && stages.contains(&s.name) && s.dur_ns() > 0)
            .map(|(s, own)| *own as f64 / s.dur_ns() as f64)
            .fold(0.0, f64::max)
    }

    /// `root;child;leaf <self ns>`, one line per distinct stack, sorted.
    pub fn folded(&self) -> String {
        let own = self.self_ns();
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut path = vec![s.name];
            let mut up = s.parent;
            while let Some(p) = up {
                path.push(self.spans[p].name);
                up = self.spans[p].parent;
            }
            path.reverse();
            *stacks.entry(path.join(";")).or_default() += own[i];
        }
        stacks
            .into_iter()
            .map(|(stack, ns)| format!("{stack} {ns}\n"))
            .collect()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("run", Json::Num(s.run as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer whose spans are given, not timed.
    fn fixed(spans: Vec<Span>) -> Tracer {
        Tracer {
            spans,
            ..Tracer::new(true)
        }
    }

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>, run: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run,
        }
    }

    fn sample() -> Tracer {
        fixed(vec![
            sp("stage", 0, 100, None, 1),
            sp("a", 10, 40, Some(0), 1), // sibling
            sp("b", 40, 90, Some(0), 1), // sibling with a nested child
            sp("a", 50, 70, Some(2), 1), // nested under b
            sp("stage", 100, 150, None, 2),
            sp("a", 100, 110, Some(4), 2),
        ])
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = sample();
        // stage: 100 - (30 + 50); b: 50 - 20; leaves keep their duration.
        assert_eq!(t.self_ns(), vec![20, 30, 30, 20, 40, 10]);
        // Worst stage: run 2 leaves 40 of 50 unexplained.
        assert_eq!(t.residue_ratio(&["stage"]), 0.8);
        assert_eq!(t.residue_ratio(&["other"]), 0.0);
    }

    #[test]
    fn seconds_sums_within_a_run_and_takes_the_median_over_runs() {
        let t = sample();
        // "a": run 1 has 30 + 20, run 2 has 10 -> median of (50, 10).
        assert_eq!(t.seconds("a"), 30e-9);
        assert_eq!(t.seconds("b"), 50e-9);
        assert_eq!(t.seconds("missing"), 0.0);
    }

    #[test]
    fn folded_stacks_carry_self_time_per_distinct_path() {
        assert_eq!(
            sample().folded(),
            "stage 60\nstage;a 40\nstage;b 30\nstage;b;a 20\n"
        );
    }

    #[test]
    fn recording_nests_and_disabling_records_nothing() {
        let mut t = Tracer::new(true);
        t.next_run();
        let v = t.span("outer", |t| t.span("inner", |_| 1) + t.span("inner", |_| 2));
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(s.iter().all(|s| s.run == 1));
        let doc = t.to_json("w", 7);
        assert_eq!(doc.get("seed").unwrap().as_f64(), Some(7.0));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
