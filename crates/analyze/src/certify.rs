//! Pass 4 — chase certification diagnostics.
//!
//! Consumes the facts computed by `rock_rees::schedule` (strata and
//! constant-flow cycles) and the critical-pair
//! co-satisfiability check in `rock_rees::sat`, and turns them into the
//! `3xx` diagnostic band plus the upgraded `W203`:
//!
//! * **W203** — two live rules pin the same `(relation, attribute)` cell
//!   to different constants and their preconditions are *not provably
//!   exclusive*. PR 4's version compared Eq-constant guards only; this
//!   pass runs [`rock_rees::co_satisfiable`] — the same interval/equality
//!   reasoning `sat.rs` applies within one rule, applied across the pair —
//!   so exclusive interval guards (`t.n > 10` vs `t.n < 5`) and
//!   null-vs-comparison guards no longer raise false alarms.
//! * **W301** — the pair's preconditions are proven co-satisfiable with a
//!   concrete witness tuple. The witness is the seed for a
//!   provenance-backed counterexample: `rock-analyze --why` replays it
//!   through a two-rule chase and prints both competing
//!   `ProvenanceGraph::why` chains.
//! * **E301** — a constant-flow cycle contests one cell with different
//!   constants (an oscillator): the chase need not terminate. Reported on
//!   *every* rule of the cycle, with the cycle as witness.
//! * **W302** — a constant-flow cycle whose writes are mutually
//!   consistent: terminating (the writes agree), but the cycle
//!   re-activates itself until every cell it pins holds its constant.

use rock_data::{AttrId, DatabaseSchema, RelId, Value};
use rock_rees::graph::const_eq_consequence;
use rock_rees::schedule::ChaseSchedule;
use rock_rees::{co_satisfiable, CoSat, DiagCode, Diagnostic, RuleSet};

/// A critical pair: two live rules writing the same cell with different
/// constants, plus what the co-satisfiability check could prove.
#[derive(Debug, Clone)]
pub struct Hazard {
    /// Rule indices, `i < j`; diagnostics attach to rule `j` (mirroring
    /// the original W203 convention of flagging the later rule).
    pub i: usize,
    pub j: usize,
    /// The contested cell.
    pub rel: RelId,
    pub attr: AttrId,
    /// `Some` when both preconditions were proven co-satisfiable: one
    /// tuple of the shared relation (one value per attribute, `Null` for
    /// unconstrained attributes) on which both rules fire.
    pub witness: Option<Vec<Value>>,
}

/// All non-exclusive critical pairs over the live rules. Pairs whose
/// preconditions are proven exclusive are dropped — they can never race.
pub fn hazards(rules: &RuleSet, schedule: &ChaseSchedule, schema: &DatabaseSchema) -> Vec<Hazard> {
    let rs: Vec<&rock_rees::Rule> = rules.iter().collect();
    let mut out = Vec::new();
    for i in 0..rs.len() {
        if schedule.graph.dead[i] {
            continue;
        }
        let Some(((vi, attri), ci)) = const_eq_consequence(rs[i]) else {
            continue;
        };
        for j in (i + 1)..rs.len() {
            if schedule.graph.dead[j] {
                continue;
            }
            let Some(((vj, attrj), cj)) = const_eq_consequence(rs[j]) else {
                continue;
            };
            let (reli, relj) = (rs[i].rel_of(vi), rs[j].rel_of(vj));
            if reli != relj || attri != attrj || ci.sql_eq(cj) {
                continue;
            }
            match co_satisfiable(rs[i], vi, rs[j], vj, schema) {
                CoSat::Exclusive => {}
                CoSat::Witness(tuple) => out.push(Hazard {
                    i,
                    j,
                    rel: reli,
                    attr: attri,
                    witness: Some(tuple),
                }),
                CoSat::Unknown => out.push(Hazard {
                    i,
                    j,
                    rel: reli,
                    attr: attri,
                    witness: None,
                }),
            }
        }
    }
    out
}

/// Render a witness tuple as `attr='v', …`, skipping unconstrained nulls.
pub fn render_witness(rel: RelId, tuple: &[Value], schema: &DatabaseSchema) -> String {
    let r = schema.relation(rel);
    let parts: Vec<String> = tuple
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_null())
        .map(|(a, v)| format!("{}='{v}'", r.attr_name(AttrId(a as u16))))
        .collect();
    if parts.is_empty() {
        format!("any {} tuple", r.name)
    } else {
        parts.join(", ")
    }
}

/// The certify diagnostics: upgraded `W203`, witnessed `W301`, and the
/// termination findings `E301`/`W302` from the strata pass.
pub fn diagnose(
    rules: &RuleSet,
    schedule: &ChaseSchedule,
    schema: &DatabaseSchema,
) -> Vec<Diagnostic> {
    let rs: Vec<&rock_rees::Rule> = rules.iter().collect();
    let mut out = Vec::new();

    for h in hazards(rules, schedule, schema) {
        let (ci, cj) = match (const_eq_consequence(rs[h.i]), const_eq_consequence(rs[h.j])) {
            (Some((_, ci)), Some((_, cj))) => (ci, cj),
            _ => continue, // unreachable: hazards() only yields const pairs
        };
        let cell = format!(
            "{}.{}",
            schema.relation(h.rel).name,
            schema.relation(h.rel).attr_name(h.attr)
        );
        out.push(
            Diagnostic::new(
                DiagCode::ConfluenceHazard,
                &rs[h.j].name,
                rs[h.j].spans.consequence,
                format!(
                    "sets {cell} to '{cj}' while rule '{}' sets it to '{ci}' — \
                     a tuple matching both preconditions becomes a chase conflict",
                    rs[h.i].name,
                ),
            )
            .with_note(format!("conflicts with rule '{}'", rs[h.i].name)),
        );
        if let Some(tuple) = &h.witness {
            out.push(
                Diagnostic::new(
                    DiagCode::CompetingWriters,
                    &rs[h.j].name,
                    rs[h.j].spans.consequence,
                    format!(
                        "competing write to {cell} is realizable: a tuple with {} \
                         fires both '{}' and '{}'",
                        render_witness(h.rel, tuple, schema),
                        rs[h.i].name,
                        rs[h.j].name,
                    ),
                )
                .with_note(
                    "run `rock-analyze --why` to replay the witness and print \
                     both competing fix chains",
                ),
            );
        }
    }

    for o in &schedule.oscillations {
        let names: Vec<&str> = o.cycle.iter().map(|&k| rs[k].name.as_str()).collect();
        let (wa, wb) = o.writers;
        let cell = format!(
            "{}.{}",
            schema.relation(o.rel).name,
            schema.relation(o.rel).attr_name(o.attr)
        );
        for &k in &o.cycle {
            out.push(
                Diagnostic::new(
                    DiagCode::UnboundedChase,
                    &rs[k].name,
                    rs[k].spans.consequence,
                    format!(
                        "constant-flow cycle [{}] keeps contesting {cell}: rules '{}' \
                         and '{}' write different constants and each write re-enables \
                         the cycle — the chase need not terminate",
                        names.join(" -> "),
                        rs[wa].name,
                        rs[wb].name,
                    ),
                )
                .with_note(format!("cycle witness: {}", names.join(" -> "))),
            );
        }
    }

    for cyc in &schedule.cascades {
        let names: Vec<&str> = cyc.iter().map(|&k| rs[k].name.as_str()).collect();
        for &k in cyc {
            out.push(
                Diagnostic::new(
                    DiagCode::ConstantCascade,
                    &rs[k].name,
                    rs[k].spans.consequence,
                    format!(
                        "self-sustaining constant cascade [{}]: each write satisfies \
                         the next rule's guard; terminating (the writes agree), but \
                         the cycle re-activates itself until every cell it pins \
                         holds its constant",
                        names.join(" -> "),
                    ),
                )
                .with_note(format!("cycle witness: {}", names.join(" -> "))),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
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

    fn analyze(text: &str) -> crate::AnalysisReport {
        let s = schema();
        let rules = RuleSet::new(parse_rules(text, &s).expect("rules parse"));
        Analyzer::new(&s).analyze(&rules)
    }

    fn codes(r: &crate::AnalysisReport, code: DiagCode) -> Vec<&Diagnostic> {
        r.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    #[test]
    fn confluence_hazard_unless_exclusive() {
        let rep = analyze(
            "rule a: T(t) && t.city = 'beijing' -> t.code = '010'\n\
             rule b: T(t) && t.city = 'shanghai' -> t.code = '021'\n\
             rule c: T(t) && t.pop > 100 -> t.code = '999'\n",
        );
        let w203 = codes(&rep, DiagCode::ConfluenceHazard);
        // a/b are exclusive on city; c clashes with both a and b
        assert_eq!(w203.len(), 2);
        assert!(w203.iter().all(|d| d.rule == "c"));
    }

    #[test]
    fn interval_exclusive_guards_no_longer_alarm() {
        let rep = analyze(
            "rule lo: T(t) && t.pop < 10 -> t.code = 'low'\n\
             rule hi: T(t) && t.pop > 90 -> t.code = 'high'\n",
        );
        assert!(
            codes(&rep, DiagCode::ConfluenceHazard).is_empty(),
            "disjoint intervals are exclusive: {:#?}",
            rep.diagnostics
        );
        assert!(rep.is_clean());
    }

    #[test]
    fn witnessed_pair_is_w301_with_the_witness_rendered() {
        let rep = analyze(
            "rule lo: T(t) && t.pop > 10 -> t.code = 'a'\n\
             rule hi: T(t) && t.pop < 90 -> t.code = 'b'\n",
        );
        let w301 = codes(&rep, DiagCode::CompetingWriters);
        assert_eq!(w301.len(), 1);
        assert_eq!(w301[0].rule, "hi");
        assert!(
            w301[0].message.contains("pop='"),
            "witness should pin pop: {}",
            w301[0].message
        );
        // the W203 hazard is still reported alongside the stronger W301
        assert_eq!(codes(&rep, DiagCode::ConfluenceHazard).len(), 1);
    }

    #[test]
    fn oscillating_cycle_is_e301_on_every_member() {
        let rep = analyze(
            "rule f1: T(t) && t.code = 'm1' -> t.code = 'm2'\n\
             rule f2: T(t) && t.code = 'm2' -> t.code = 'm1'\n",
        );
        let e301 = codes(&rep, DiagCode::UnboundedChase);
        assert_eq!(e301.len(), 2);
        let rules: Vec<&str> = e301.iter().map(|d| d.rule.as_str()).collect();
        assert!(rules.contains(&"f1") && rules.contains(&"f2"));
        // the pair's Eq guards are exclusive, so no W203/W301 noise
        assert!(codes(&rep, DiagCode::ConfluenceHazard).is_empty());
        assert!(!rep.schedule.terminates());
    }

    #[test]
    fn consistent_cascade_is_w302_not_e301() {
        let rep = analyze(
            "rule p1: T(t) && t.city = 'm1' -> t.code = 'm2'\n\
             rule p2: T(t) && t.code = 'm2' -> t.city = 'm1'\n",
        );
        assert_eq!(codes(&rep, DiagCode::ConstantCascade).len(), 2);
        assert!(codes(&rep, DiagCode::UnboundedChase).is_empty());
        assert!(rep.schedule.terminates());
    }
}
