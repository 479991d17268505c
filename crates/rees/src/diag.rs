//! Typed, span-carrying diagnostics for ruleset analysis.
//!
//! Every static check over a ruleset — the well-formedness conditions of §2
//! that [`crate::rule::Rule::validate`] used to report as bare strings, plus
//! the satisfiability and inter-rule passes in `rock-analyze` — reports
//! through one [`Diagnostic`] shape, so the CLI, CI gate and discovery
//! filter all consume the same structure. Codes are stable identifiers
//! (`E001`, `W202`, …) documented in DESIGN.md; severity drives the
//! analyzer's process exit code.

use std::fmt;

/// A source region inside a rule's DSL text: 1-based line, byte columns
/// `[start, end)` within that line. `Span::none()` (all zeros) marks rules
/// built programmatically rather than parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub line: u32,
    pub start: u32,
    pub end: u32,
}

impl Span {
    /// The empty span, for rules that never went through the parser.
    pub fn none() -> Self {
        Span::default()
    }

    pub fn new(line: u32, start: u32, end: u32) -> Self {
        Span { line, start, end }
    }

    /// True when this span carries no position (programmatic rule).
    pub fn is_none(&self) -> bool {
        *self == Span::default()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "<no span>")
        } else {
            write!(f, "{}:{}-{}", self.line, self.start, self.end)
        }
    }
}

/// Source spans for a parsed rule: the whole rule plus one span per
/// precondition predicate and one for the consequence.
///
/// Kept as a side-structure on [`crate::rule::Rule`] rather than inline on
/// [`crate::predicate::Predicate`] so the AST stays a pure value type:
/// spans are *position* metadata, not rule identity. Two rules that parse
/// from different lines of the same DSL text are the same rule, so this
/// type compares equal to everything — round-trip (`parse → print →
/// parse`) equality keeps holding.
#[derive(Debug, Clone, Default)]
pub struct RuleSpans {
    pub rule: Span,
    pub preconditions: Vec<Span>,
    pub consequence: Span,
}

impl RuleSpans {
    /// Span of precondition predicate `i`, or the rule span as fallback for
    /// programmatic rules (whose vectors are empty).
    pub fn precondition(&self, i: usize) -> Span {
        self.preconditions.get(i).copied().unwrap_or(self.rule)
    }
}

impl PartialEq for RuleSpans {
    fn eq(&self, _other: &Self) -> bool {
        true // spans carry no semantic identity; see type docs
    }
}

/// Diagnostic severity, ordered so `max()` picks the worst. The
/// `rock-analyze` CLI exits with this as its status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Severity {
    #[default]
    Info,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Process exit code for the CLI: 0 info/clean, 1 warning, 2 error.
    pub fn exit_code(&self) -> i32 {
        match self {
            Severity::Info => 0,
            Severity::Warning => 1,
            Severity::Error => 2,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes. `E0xx` well-formedness, `E1xx`/`W1xx` local
/// satisfiability, `W2xx` inter-rule analysis, `E3xx`/`W3xx` chase
/// certification. The numeric bands match the analyzer's pass structure
/// (see DESIGN.md for the full table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// E001 — predicate uses a tuple variable not bound by a relation atom.
    UnboundTupleVar,
    /// E002 — predicate uses a vertex variable not bound by `vertex(x, G)`.
    UnboundVertexVar,
    /// E003 — attribute id out of range for the variable's relation.
    AttrOutOfRange,
    /// E004 — temporal/ranking predicate spans two different relations.
    CrossRelTemporal,
    /// E005 — constant's type can never satisfy the attribute's declared
    /// type (e.g. `t.amount = 'abc'` on an int attribute).
    ConstTypeMismatch,
    /// E006 — ML predicate with an empty evidence/attribute list.
    EmptyMlAttrs,
    /// E007 — correlation threshold δ outside `(0, 1]`.
    BadThreshold,
    /// E101 — conflicting constant bindings: `t.A = 'a' ∧ t.A = 'b'`.
    UnsatConstEq,
    /// E102 — contradictory comparisons: `t.A < s.B ∧ t.A > s.B`.
    UnsatCompare,
    /// E103 — reflexive predicate that can never hold, e.g. `t.A != t.A`.
    ReflexiveNeverTrue,
    /// W104 — predicate is trivially true (`t.A = t.A`): dead weight.
    TriviallyTrue,
    /// W201 — dead rule: the consequence is implied by the precondition or
    /// trivially true, so the rule can never produce a fix.
    DeadRule,
    /// W202 — subsumed rule: another rule with the same consequence has a
    /// strictly weaker precondition.
    SubsumedRule,
    /// W203 — confluence hazard: two rules can co-fire on overlapping
    /// valuations but assign conflicting constants to the same cell.
    ConfluenceHazard,
    /// E301 — unbounded chase: a constant-flow cycle keeps contesting one
    /// cell with different constants, so no termination bound exists.
    UnboundedChase,
    /// W301 — competing writers proven co-satisfiable: a concrete witness
    /// tuple fires both rules, turning the W203 hazard into a certainty.
    CompetingWriters,
    /// W302 — self-sustaining constant cascade: a constant-flow cycle
    /// whose writes are mutually consistent; terminating, but the round
    /// bound degrades from the dependency depth to the lattice height.
    ConstantCascade,
}

impl DiagCode {
    pub fn as_str(&self) -> &'static str {
        use DiagCode::*;
        match self {
            UnboundTupleVar => "E001",
            UnboundVertexVar => "E002",
            AttrOutOfRange => "E003",
            CrossRelTemporal => "E004",
            ConstTypeMismatch => "E005",
            EmptyMlAttrs => "E006",
            BadThreshold => "E007",
            UnsatConstEq => "E101",
            UnsatCompare => "E102",
            ReflexiveNeverTrue => "E103",
            TriviallyTrue => "W104",
            DeadRule => "W201",
            SubsumedRule => "W202",
            ConfluenceHazard => "W203",
            UnboundedChase => "E301",
            CompetingWriters => "W301",
            ConstantCascade => "W302",
        }
    }

    /// The severity this code always reports at (codes and severities are
    /// 1:1 — the `E`/`W` prefix is part of the code's contract).
    pub fn severity(&self) -> Severity {
        use DiagCode::*;
        match self {
            UnboundTupleVar | UnboundVertexVar | AttrOutOfRange | CrossRelTemporal
            | ConstTypeMismatch | EmptyMlAttrs | BadThreshold | UnsatConstEq | UnsatCompare
            | ReflexiveNeverTrue | UnboundedChase => Severity::Error,
            TriviallyTrue | DeadRule | SubsumedRule | ConfluenceHazard | CompetingWriters
            | ConstantCascade => Severity::Warning,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding, attached to a rule and a span within it.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub code: DiagCode,
    pub severity: Severity,
    /// Name of the rule the finding is about.
    pub rule: String,
    pub span: Span,
    pub message: String,
    /// Secondary context lines (e.g. the other rule of a subsumption pair).
    pub notes: Vec<String>,
}

impl Diagnostic {
    pub fn new(code: DiagCode, rule: impl Into<String>, span: Span, message: String) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            rule: rule.into(),
            span,
            message,
            notes: Vec::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] rule {}: {}",
            self.severity, self.code, self.rule, self.message
        )?;
        if !self.span.is_none() {
            write!(f, " (at {})", self.span)?;
        }
        for n in &self.notes {
            write!(f, "\n    note: {n}")?;
        }
        Ok(())
    }
}

/// Highest severity across a batch, `None` when there are no diagnostics.
pub fn max_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_exits() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.exit_code(), 2);
    }

    #[test]
    fn code_severity_bands() {
        assert_eq!(DiagCode::UnboundTupleVar.severity(), Severity::Error);
        assert_eq!(DiagCode::UnsatConstEq.severity(), Severity::Error);
        assert_eq!(DiagCode::SubsumedRule.severity(), Severity::Warning);
        assert_eq!(DiagCode::UnsatConstEq.as_str(), "E101");
    }

    #[test]
    fn spans_do_not_affect_rule_spans_equality() {
        let a = RuleSpans {
            rule: Span::new(3, 0, 10),
            preconditions: vec![Span::new(3, 2, 5)],
            consequence: Span::new(3, 6, 10),
        };
        let b = RuleSpans::default();
        assert_eq!(a, b);
    }

    #[test]
    fn display_carries_code_rule_and_notes() {
        let d = Diagnostic::new(
            DiagCode::UnsatConstEq,
            "phi9",
            Span::new(2, 4, 9),
            "t.city can never equal both 'a' and 'b'".into(),
        )
        .with_note("first binding here");
        let s = d.to_string();
        assert!(s.contains("E101"));
        assert!(s.contains("phi9"));
        assert!(s.contains("2:4-9"));
        assert!(s.contains("note: first binding"));
    }

    #[test]
    fn max_severity_picks_worst() {
        assert_eq!(max_severity(&[]), None);
        let d1 = Diagnostic::new(DiagCode::TriviallyTrue, "r", Span::none(), "x".into());
        let d2 = Diagnostic::new(DiagCode::AttrOutOfRange, "r", Span::none(), "y".into());
        assert_eq!(max_severity(&[d1.clone()]), Some(Severity::Warning));
        assert_eq!(max_severity(&[d1, d2]), Some(Severity::Error));
    }
}
