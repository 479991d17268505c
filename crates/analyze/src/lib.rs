//! # rock-analyze — static analysis over REE++ rulesets
//!
//! Rock's guarantee that every fix is a *certain* logical consequence of
//! the rules and ground truth (paper §4) only holds when the ruleset
//! itself is sound: a contradictory precondition never fires, a dead rule
//! wastes every round it is evaluated in, and two rules assigning
//! different constants to the same cell surface as runtime chase conflicts
//! that a static pass could have predicted. Related systems make this a
//! first-class phase — HoloClean compiles and analyzes denial constraints
//! before repair, ERBlox restricts matching dependencies to a provably
//! confluent class — and this crate gives REE++ the same treatment.
//!
//! Four passes, all purely syntactic (no data, no ML models):
//!
//! 1. **Well-formedness** ([`wellformed`]) — typed version of the classic
//!    `Rule::validate` checks plus constant-domain and ML-predicate sanity
//!    (`E001`–`E007`).
//! 2. **Local satisfiability** ([`sat`]) — preconditions that can never
//!    hold: conflicting constant bindings, contradictory comparisons,
//!    reflexive traps (`E101`–`E103`), and trivially-true dead weight
//!    (`W104`).
//! 3. **Inter-rule analysis** ([`graph`]) — builds the [`RuleGraph`] of
//!    (consequence action) → (precondition read) edges and reports dead
//!    and subsumed rules (`W201`/`W202`).
//! 4. **Chase certification** ([`certify`]) — classifies the ruleset's
//!    chase termination (static round bound / stratified lattice bound /
//!    unbounded), upgrades the confluence check to critical-pair
//!    co-satisfiability, and exports the stratified
//!    [`ChaseSchedule`](rock_rees::ChaseSchedule) (`W203`,
//!    `E301`/`W301`/`W302`).
//!
//! The graph and sat passes themselves live in `rock-rees`
//! ([`rock_rees::graph`], [`rock_rees::sat`], [`rock_rees::schedule`]) so
//! the chase can rebuild the same artifacts without depending on this
//! crate; this crate re-exports them path-compatibly and adds the
//! diagnostics, the certification pass and the CLI. The [`RuleGraph`] is
//! the chase's scheduling artifact, and the schedule that embeds it carries
//! the termination certificate every chase run is checked against (see
//! `rock-chase`).

// Same gate as rock-rees/rock-chase: the analyzer runs inside discovery's
// mining loop and the CI gate; a panic must not take those down.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use rock_data::{
    json,
    json::{Json, ToJson},
    DatabaseSchema, FxHashSet,
};
use rock_rees::schedule::ChaseSchedule;
use rock_rees::{Diagnostic, RuleSet, Severity};
use std::collections::BTreeMap;

pub mod certify;
pub mod wellformed;

// Path-compatible façade over the passes that moved into rock-rees: the
// analyzer's consumers keep importing `rock_analyze::{graph, sat}`.
pub use rock_rees::{graph, sat};

pub use rock_rees::graph::RuleGraph;

/// The analyzer: schema-bound, stateless across rulesets.
pub struct Analyzer<'a> {
    schema: &'a DatabaseSchema,
}

impl<'a> Analyzer<'a> {
    pub fn new(schema: &'a DatabaseSchema) -> Self {
        Analyzer { schema }
    }

    /// Run all three passes over a ruleset.
    pub fn analyze(&self, rules: &RuleSet) -> AnalysisReport {
        let mut diagnostics = Vec::new();
        // Pass 1: well-formedness. Rules with binding errors are excluded
        // from the later passes — their variable indices cannot be trusted.
        let mut malformed = vec![false; rules.len()];
        for (i, r) in rules.iter().enumerate() {
            let ds = wellformed::check_rule(r, self.schema);
            malformed[i] = ds.iter().any(|d| d.severity == Severity::Error);
            diagnostics.extend(ds);
        }
        // Pass 2: local satisfiability.
        let mut unsat = vec![false; rules.len()];
        for (i, r) in rules.iter().enumerate() {
            if malformed[i] {
                continue;
            }
            let ds = sat::check_rule(r);
            unsat[i] = ds.iter().any(|d| d.severity == Severity::Error);
            diagnostics.extend(ds);
        }
        // Pass 3: inter-rule analysis over the structurally sound rules.
        let graph = RuleGraph::build_masked(rules, self.schema, &malformed, &unsat);
        diagnostics.extend(graph.diagnose(rules, self.schema));
        // Pass 4: chase certification over the same graph.
        let schedule = ChaseSchedule::from_graph(graph.clone(), rules);
        diagnostics.extend(certify::diagnose(rules, &schedule, self.schema));
        AnalysisReport {
            diagnostics,
            graph,
            schedule,
        }
    }
}

/// Everything the analyzer found, plus the scheduling graph and the
/// termination certificate / stratified schedule.
#[derive(Debug)]
pub struct AnalysisReport {
    pub diagnostics: Vec<Diagnostic>,
    pub graph: RuleGraph,
    pub schedule: ChaseSchedule,
}

impl AnalysisReport {
    pub fn max_severity(&self) -> Option<Severity> {
        rock_rees::max_severity(&self.diagnostics)
    }

    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Diagnostic counts keyed by stable code (`"E101"` → 2, …).
    pub fn counts_by_code(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for d in &self.diagnostics {
            *out.entry(d.code.as_str()).or_insert(0) += 1;
        }
        out
    }

    /// Names of rules carrying at least one error-severity diagnostic —
    /// what discovery drops before accepting mined rules.
    pub fn rules_with_errors(&self) -> FxHashSet<String> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.rule.clone())
            .collect()
    }

    /// Names of rules flagged `W202` (subsumed by another rule).
    pub fn subsumed_rules(&self) -> FxHashSet<String> {
        self.diagnostics
            .iter()
            .filter(|d| d.code == rock_rees::DiagCode::SubsumedRule)
            .map(|d| d.rule.clone())
            .collect()
    }

    /// Process exit code contract: 0 clean/info, 1 warnings, 2 errors.
    pub fn exit_code(&self) -> i32 {
        self.max_severity().map_or(0, |s| s.exit_code())
    }

    /// Compact serializable summary for `DiscoveryReport` and the bench
    /// panels.
    pub fn stats(&self) -> AnalyzerStats {
        AnalyzerStats {
            rules: self.graph.nrules,
            errors: self.error_count(),
            warnings: self.warning_count(),
            dead_rules: self.graph.dead.iter().filter(|d| **d).count(),
            subsumed_rules: self.subsumed_rules().len(),
            diagnostics_by_code: self
                .counts_by_code()
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        }
    }

    /// Machine-readable report (the CLI's `--format json` and the CI
    /// artifact shape).
    pub fn to_json(&self, ruleset: &str) -> Json {
        json!({
            "ruleset": ruleset,
            "rules": self.graph.nrules,
            "max_severity": self.max_severity().map(|s| s.as_str()),
            "counts": self.counts_by_code(),
            "graph": {
                "edges": self.graph.edges,
                "dead": self.graph.dead,
                "follows_writes": self.graph.follows_writes,
            },
            "certificate": {
                "class": self.schedule.class.as_str(),
                "bound": self.schedule.bound,
                "strata": self.schedule.strata.len(),
                "cyclic_strata": self.schedule.stratum_cyclic.iter().filter(|c| **c).count(),
                "oscillations": self.schedule.oscillations,
                "cascades": self.schedule.cascades,
            },
            "diagnostics": self.diagnostics.iter().map(|d| json!({
                "code": d.code.as_str(),
                "severity": d.severity.as_str(),
                "rule": d.rule,
                "line": d.span.line,
                "span": [d.span.start, d.span.end],
                "message": d.message,
                "notes": d.notes,
            })).collect::<Vec<_>>(),
        })
    }
}

/// Serializable analyzer summary threaded into `DiscoveryReport` and the
/// `figures -- analyze` panel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalyzerStats {
    pub rules: usize,
    pub errors: usize,
    pub warnings: usize,
    pub dead_rules: usize,
    pub subsumed_rules: usize,
    pub diagnostics_by_code: BTreeMap<String, usize>,
}

impl ToJson for AnalyzerStats {
    fn to_json(&self) -> Json {
        json!({
            "rules": self.rules,
            "errors": self.errors,
            "warnings": self.warnings,
            "dead_rules": self.dead_rules,
            "subsumed_rules": self.subsumed_rules,
            "diagnostics_by_code": self.diagnostics_by_code,
        })
    }
}

impl AnalyzerStats {
    /// Accumulate another report's counters (discovery mines per relation
    /// and sums the screens into one `DiscoveryOutcome`).
    pub fn merge(&mut self, other: &AnalyzerStats) {
        self.rules += other.rules;
        self.errors += other.errors;
        self.warnings += other.warnings;
        self.dead_rules += other.dead_rules;
        self.subsumed_rules += other.subsumed_rules;
        for (k, v) in &other.diagnostics_by_code {
            *self.diagnostics_by_code.entry(k.clone()).or_insert(0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrType, RelationSchema};
    use rock_rees::parse_rules;

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[
                ("city", AttrType::Str),
                ("code", AttrType::Str),
                ("pop", AttrType::Int),
            ],
        )])
    }

    fn analyze(text: &str) -> AnalysisReport {
        let s = schema();
        let rules = RuleSet::new(parse_rules(text, &s).expect("rules parse"));
        Analyzer::new(&s).analyze(&rules)
    }

    #[test]
    fn clean_ruleset_is_clean() {
        let rep = analyze(
            "rule fd: T(t) && T(s) && t.city = s.city -> t.code = s.code\n\
             rule c1: T(t) && t.city = 'beijing' -> t.code = '010'\n\
             rule c2: T(t) && t.city = 'shanghai' -> t.code = '021'\n",
        );
        assert!(rep.is_clean(), "{:#?}", rep.diagnostics);
        assert_eq!(rep.exit_code(), 0);
    }

    #[test]
    fn report_counts_and_json() {
        let rep = analyze(
            "rule bad: T(t) && t.city = 'a' && t.city = 'b' -> t.code = '1'\n\
             rule ok: T(t) && t.city = 'a' -> t.code = '1'\n",
        );
        assert_eq!(rep.error_count(), 1);
        assert_eq!(rep.counts_by_code().get("E101"), Some(&1));
        assert!(rep.rules_with_errors().contains("bad"));
        assert_eq!(rep.exit_code(), 2);
        let j = rep.to_json("test");
        assert_eq!(j.field("ruleset").unwrap(), &json!("test"));
        let first = &j.field("diagnostics").unwrap().as_array().unwrap()[0];
        assert_eq!(first.field("code").unwrap(), &json!("E101"));
    }
}
