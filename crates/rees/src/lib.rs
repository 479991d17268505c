//! # rock-rees — the REE++ rule language (paper §2)
//!
//! An REE++ is a rule `φ : X → p0` over a database schema, where `X` (the
//! *precondition*) is a conjunction of predicates and `p0` (the
//! *consequence*) is a single predicate. The predicate grammar is the full
//! grammar of §2.1–2.3:
//!
//! ```text
//! p ::= R(t)                      relation atom (tuple-variable binding)
//!     | t.A op c                  constant predicate
//!     | t.A op s.B                attribute comparison
//!     | M(t[As], s[Bs])           ML predicate (Boolean classifier)
//!     | t <=[A] s | t <[A] s      temporal predicates            (§2.2)
//!     | Mrank(t1, t2, op[A])      ML ranking predicate           (§2.2)
//!     | vertex(x, G)              vertex-variable binding        (§2.3)
//!     | HER(t, x)                 heterogeneous ER               (§2.3)
//!     | match(t.A, x.path)        path-encodes-attribute check   (§2.3)
//!     | t[A] = val(x.path)        KG value extraction            (§2.3)
//!     | Mc(t[As], t.B='c') >= d   correlation w/ constant        (§2.3)
//!     | Mc(t[As], t.B) >= d       correlation w/ attribute       (§2.3)
//!     | t.B = Md(t[As])           ML value prediction            (§2.3)
//!     | null(t.A)                 null check (syntactic sugar, Ex. 3)
//!     | t.eid op s.eid            entity identification (ER consequences)
//! ```
//!
//! REE++s subsume CFDs, DCs and MDs as special cases ([39]); with op ranging
//! over `{=, !=, <, <=, >, >=}` and ML classifiers permitted on either side
//! of the arrow, they express every rule in the paper's examples (φ1…φ15
//! and the e-commerce rules of §6) — all of which appear in this
//! repository's tests, examples and workloads.
//!
//! The crate provides the AST ([`predicate`], [`rule`]), a text DSL with a
//! parser and pretty-printer ([`parser`]), valuations and satisfaction
//! semantics ([`eval`]), the work-unit plan that drives the enumerator in
//! detection and the chase ([`scan`]), the per-join-run evaluation of
//! FD-shaped rules ([`runs`]), and support/confidence measures
//! ([`measures`]).

// Rule evaluation sits on the chase's hot path and inside discovery's
// measure loops; a panic there takes a whole correction run down, so
// non-test code must surface errors as values (same gate as rock-crystal).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod diag;
pub mod eval;
pub mod graph;
pub mod measures;
pub mod op;
pub mod parser;
pub mod predicate;
pub mod rule;
pub mod runs;
pub mod sat;
pub mod scan;
pub mod schedule;

pub use diag::{max_severity, DiagCode, Diagnostic, RuleSpans, Severity, Span};
pub use eval::{EvalContext, Valuation};
pub use graph::RuleGraph;
pub use op::CmpOp;
pub use parser::{parse_rule, parse_rules, ParseError};
pub use predicate::{ModelRef, Predicate};
pub use rule::{Rule, RuleSet};
pub use runs::{FdRuns, FdShape, Run, RunKey};
pub use sat::{co_satisfiable, CoSat};
pub use scan::ScanPlan;
pub use schedule::{ChaseSchedule, Oscillation};
