//! Pass 4 — termination certification and the stratified chase schedule.
//!
//! The chase (paper §4) terminates on every instance *in principle* — the
//! fix store is a join-semilattice and every accepted fix climbs it — but
//! nothing in the earlier passes says *how fast*, and nothing rules out a
//! ruleset whose constant writes feed each other's guards in a loop and
//! keep contesting the same cell forever. This pass runs an abstract
//! interpretation over the rule program's write→read structure (attribute
//! level: the lattice element for a rule is the set of `(relation,
//! attribute)` cells it can touch) and produces:
//!
//! * a **termination class** per ruleset — [`TerminationClass::StaticBound`]
//!   when the certification graph is acyclic (rounds bounded by the longest
//!   dependency chain, independent of the data), [`TerminationClass::AcyclicStrata`]
//!   when cycles exist but every fix is monotone (rounds bounded by the
//!   lattice height of the instance, applied stratum by stratum), and
//!   [`TerminationClass::Unbounded`] when a constant-flow oscillation
//!   contests one cell with different constants around a cycle;
//! * a **stratified schedule** — the topologically ordered strongly
//!   connected components of the certification graph, each with its own
//!   [`RoundBound`] — which every chase run derives and executes under;
//! * **witnesses** for the certify diagnostics: oscillating cycles
//!   (`E301`) and self-sustaining but consistent constant cascades
//!   (`W302`). The diagnostics themselves are emitted by `rock-analyze`'s
//!   certify pass; this module only computes the facts.
//!
//! The certification graph is deliberately *denser* than
//! [`RuleGraph::edges`]: it keeps self-edges and adds consequence-source
//! reads (an FD copy `-> t.code = u.code` re-reads the cell it writes).
//! Scheduling cares about which rules a delta can re-activate; termination
//! cares about whether a rule can keep feeding itself.

use crate::graph::{self, const_eq_consequence, order_reads, order_writes, value_reads};
use crate::{sat, Predicate, Rule, RuleSet, Severity};
use rock_data::{AttrId, DatabaseSchema, RelId};

/// How the certifier classifies a ruleset's chase termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminationClass {
    /// The certification graph is acyclic (self-edges included): new fixes
    /// can only propagate down a finite dependency chain, so the round
    /// count is bounded by a constant of the *ruleset*, independent of the
    /// instance.
    StaticBound,
    /// Cyclic strata exist, but no constant-flow oscillation: every fix is
    /// monotone in the chase lattice, so each stratum quiesces within the
    /// lattice height of the instance and the strata are traversed in
    /// topological order.
    AcyclicStrata,
    /// A constant-flow cycle contests one cell with different constants —
    /// no monotonicity argument applies and the certifier refuses to bound
    /// the chase (`E301` carries the witness).
    Unbounded,
}

impl TerminationClass {
    pub fn as_str(self) -> &'static str {
        match self {
            TerminationClass::StaticBound => "static-bound",
            TerminationClass::AcyclicStrata => "acyclic-strata",
            TerminationClass::Unbounded => "unbounded",
        }
    }
}

/// A certified upper bound on chase rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundBound {
    /// Instance-independent: at most this many rounds, full stop.
    Rounds(u64),
    /// Instance-dependent: the height of the fix lattice — one step per
    /// cell repair plus one per tuple for entity merges, plus `tuples²`
    /// order edges when temporal consequences chase validated orders —
    /// plus structural `slack` rounds for cross-stratum propagation.
    LatticeHeight { slack: u64, ordered_attrs: bool },
}

rock_data::json_codec!(tagged RoundBound {
    Rounds(n),
    LatticeHeight { slack, ordered_attrs },
});

impl RoundBound {
    /// Concretize against an instance of `tuples` tuples / `cells` cells.
    pub fn resolve(&self, tuples: u64, cells: u64) -> u64 {
        match *self {
            RoundBound::Rounds(b) => b,
            RoundBound::LatticeHeight {
                slack,
                ordered_attrs,
            } => {
                let order = if ordered_attrs {
                    tuples.saturating_mul(tuples)
                } else {
                    0
                };
                cells
                    .saturating_add(tuples)
                    .saturating_add(order)
                    .saturating_add(slack)
            }
        }
    }
}

/// An `E301` witness: a constant-flow cycle around which two rules keep
/// pinning the same cell to different constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Oscillation {
    /// Rule indices forming the cycle (sorted; every member is reachable
    /// from every other through constant-flow edges).
    pub cycle: Vec<usize>,
    /// The contested cell.
    pub rel: RelId,
    pub attr: AttrId,
    /// Two cycle members writing `(rel, attr)` with differing constants.
    pub writers: (usize, usize),
}

rock_data::json_codec!(struct Oscillation { cycle, rel, attr, writers });

/// The certifier's full output: scheduling strata plus the termination
/// certificate the chase enforces at runtime.
#[derive(Debug, Clone)]
pub struct ChaseSchedule {
    /// The scheduling graph the chase filters its activation through.
    pub graph: graph::RuleGraph,
    /// Strongly connected components of the certification graph in
    /// topological order; members sorted. Dead rules appear in no stratum.
    pub strata: Vec<Vec<usize>>,
    /// Inverse map: `stratum_of[rule]`, `None` for dead rules.
    pub stratum_of: Vec<Option<usize>>,
    /// Whether each stratum contains a dependency cycle (more than one
    /// member, or a self-edge).
    pub stratum_cyclic: Vec<bool>,
    /// Per-stratum round bounds (acyclic strata quiesce in a constant
    /// number of rounds; cyclic strata climb the lattice).
    pub stratum_bounds: Vec<RoundBound>,
    /// The termination class of the whole ruleset.
    pub class: TerminationClass,
    /// The whole-chase bound; `None` exactly when `class` is `Unbounded`.
    pub bound: Option<RoundBound>,
    /// `E301` witnesses (oscillating constant-flow cycles).
    pub oscillations: Vec<Oscillation>,
    /// `W302` witnesses: constant-flow cycles whose writes are mutually
    /// consistent (sorted rule indices per cycle).
    pub cascades: Vec<Vec<usize>>,
}

impl ChaseSchedule {
    /// Build the schedule straight from a ruleset, mirroring the
    /// analyzer's pass masks (well-formedness, then local satisfiability)
    /// so the chase's self-built schedule and `rock-analyze`'s report can
    /// never disagree about which rules are live.
    pub fn derive(rules: &RuleSet, schema: &DatabaseSchema) -> ChaseSchedule {
        let mut malformed = vec![false; rules.len()];
        for (i, r) in rules.iter().enumerate() {
            malformed[i] = r
                .well_formedness(schema)
                .iter()
                .any(|d| d.severity == Severity::Error);
        }
        let mut unsat = vec![false; rules.len()];
        for (i, r) in rules.iter().enumerate() {
            if !malformed[i] {
                unsat[i] = sat::check_rule(r)
                    .iter()
                    .any(|d| d.severity == Severity::Error);
            }
        }
        let g = graph::RuleGraph::build_masked(rules, schema, &malformed, &unsat);
        ChaseSchedule::from_graph(g, rules)
    }

    /// Build the schedule from an already-computed scheduling graph.
    pub fn from_graph(g: graph::RuleGraph, rules: &RuleSet) -> ChaseSchedule {
        let rs: Vec<&Rule> = rules.iter().collect();
        let n = g.nrules;

        // Certification adjacency: scheduling edges + self-edges +
        // consequence-source reads, live rules only.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            if g.dead[i] {
                continue;
            }
            let order_w = order_writes(rs[i]);
            for j in 0..n {
                if g.dead[j] {
                    continue;
                }
                let reads = value_reads(rs[j]);
                let sources = graph::consequence_value_sources(rs[j]);
                let value_edge = g.cell_writes[i]
                    .iter()
                    .any(|c| reads.contains(c) || sources.contains(c));
                let order_edge = order_w.iter().any(|c| order_reads(rs[j]).contains(c));
                let merge_edge =
                    g.merge_rule[i] && g.rels[i].iter().any(|r| g.rels[j].binary_search(r).is_ok());
                if value_edge || order_edge || merge_edge {
                    adj[i].push(j);
                }
            }
        }

        let live: Vec<bool> = g.dead.iter().map(|d| !d).collect();
        let strata = condense(&adj, &live);
        let mut stratum_of = vec![None; n];
        for (s, members) in strata.iter().enumerate() {
            for &m in members {
                stratum_of[m] = Some(s);
            }
        }
        let stratum_cyclic: Vec<bool> = strata
            .iter()
            .map(|ms| ms.len() > 1 || ms.iter().any(|&m| adj[m].contains(&m)))
            .collect();

        // Constant-flow graph: which constant writes can *trigger* which
        // constant guards. Self-loops are excluded — re-firing a Const-Eq
        // consequence rewrites the identical value, which the fix store
        // absorbs idempotently.
        let mut flow: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            if g.dead[i] {
                continue;
            }
            let Some(((vi, attri), ci)) = const_eq_consequence(rs[i]) else {
                continue;
            };
            let celli = (rs[i].rel_of(vi), attri);
            for (j, rj) in rs.iter().enumerate() {
                if i == j || g.dead[j] || const_eq_consequence(rj).is_none() {
                    continue;
                }
                let triggered = rj.precondition.iter().any(|p| match p {
                    Predicate::Const {
                        var,
                        attr,
                        op,
                        value,
                    } => (rj.rel_of(*var), *attr) == celli && op.eval(ci, value),
                    _ => false,
                });
                if triggered {
                    flow[i].push(j);
                }
            }
        }
        let flow_live: Vec<bool> = (0..n)
            .map(|i| live[i] && const_eq_consequence(rs[i]).is_some())
            .collect();
        let mut oscillations = Vec::new();
        let mut cascades = Vec::new();
        for scc in condense(&flow, &flow_live) {
            if scc.len() < 2 {
                continue;
            }
            let contested = scc.iter().enumerate().find_map(|(k, &i)| {
                scc[k + 1..].iter().find_map(|&j| {
                    let ((vi, ai), ci) = const_eq_consequence(rs[i])?;
                    let ((vj, aj), cj) = const_eq_consequence(rs[j])?;
                    let (reli, relj) = (rs[i].rel_of(vi), rs[j].rel_of(vj));
                    (reli == relj && ai == aj && !ci.sql_eq(cj)).then_some((i, j, reli, ai))
                })
            });
            match contested {
                Some((i, j, rel, attr)) => oscillations.push(Oscillation {
                    cycle: scc,
                    rel,
                    attr,
                    writers: (i, j),
                }),
                None => cascades.push(scc),
            }
        }

        let ordered_attrs = (0..n).any(|i| live[i] && !order_writes(rs[i]).is_empty());
        let stratum_bounds: Vec<RoundBound> = stratum_cyclic
            .iter()
            .map(|&cyc| {
                if cyc {
                    RoundBound::LatticeHeight {
                        slack: 2,
                        ordered_attrs,
                    }
                } else {
                    RoundBound::Rounds(2)
                }
            })
            .collect();

        let (class, bound) = if !oscillations.is_empty() {
            (TerminationClass::Unbounded, None)
        } else if stratum_cyclic.iter().all(|&c| !c) {
            // Longest dependency chain over the (acyclic) certification
            // graph; strata are singletons in topological order.
            let mut depth = vec![0u64; n];
            let mut longest = 0u64;
            for ms in &strata {
                for &i in ms {
                    for &j in &adj[i] {
                        depth[j] = depth[j].max(depth[i].saturating_add(1));
                        longest = longest.max(depth[j]);
                    }
                }
            }
            (
                TerminationClass::StaticBound,
                Some(RoundBound::Rounds(longest.saturating_add(2))),
            )
        } else {
            (
                TerminationClass::AcyclicStrata,
                Some(RoundBound::LatticeHeight {
                    slack: (strata.len() as u64).saturating_add(2),
                    ordered_attrs,
                }),
            )
        };

        ChaseSchedule {
            graph: g,
            strata,
            stratum_of,
            stratum_cyclic,
            stratum_bounds,
            class,
            bound,
            oscillations,
            cascades,
        }
    }

    /// Cells every live rule can ever write — the lattice-height estimate
    /// counts only chased cells, keeping bounds honest on wide schemas.
    pub fn writable_cells(&self) -> Vec<(RelId, AttrId)> {
        let mut out: Vec<(RelId, AttrId)> = self
            .graph
            .cell_writes
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.graph.dead[*i])
            .flat_map(|(_, ws)| ws.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Strongly connected components of `adj` restricted to `live` nodes, in
/// topological order of the condensation (Tarjan emits reverse order).
fn condense(adj: &[Vec<usize>], live: &[bool]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut state = Condense {
        adj,
        live,
        index: vec![usize::MAX; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        sccs: Vec::new(),
    };
    for v in 0..n {
        if live[v] && state.index[v] == usize::MAX {
            state.strongconnect(v);
        }
    }
    let mut sccs = state.sccs;
    sccs.reverse();
    for scc in &mut sccs {
        scc.sort_unstable();
    }
    sccs
}

struct Condense<'a> {
    adj: &'a [Vec<usize>],
    live: &'a [bool],
    index: Vec<usize>,
    low: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    next: usize,
    sccs: Vec<Vec<usize>>,
}

impl Condense<'_> {
    fn strongconnect(&mut self, v: usize) {
        self.index[v] = self.next;
        self.low[v] = self.next;
        self.next += 1;
        self.stack.push(v);
        self.on_stack[v] = true;
        for k in 0..self.adj[v].len() {
            let w = self.adj[v][k];
            if !self.live[w] {
                continue;
            }
            if self.index[w] == usize::MAX {
                self.strongconnect(w);
                self.low[v] = self.low[v].min(self.low[w]);
            } else if self.on_stack[w] {
                self.low[v] = self.low[v].min(self.index[w]);
            }
        }
        if self.low[v] == self.index[v] {
            let mut scc = Vec::new();
            while let Some(w) = self.stack.pop() {
                self.on_stack[w] = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            self.sccs.push(scc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_rules;
    use rock_data::{AttrType, RelationSchema};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[
                ("a", AttrType::Str),
                ("b", AttrType::Str),
                ("c", AttrType::Str),
                ("n", AttrType::Int),
            ],
        )])
    }

    fn derive(text: &str) -> ChaseSchedule {
        let s = schema();
        let rules = RuleSet::new(parse_rules(text, &s).expect("rules parse"));
        ChaseSchedule::derive(&rules, &s)
    }

    #[test]
    fn acyclic_constant_chain_gets_a_static_bound() {
        let sch = derive(
            "rule r1: T(t) && t.a = 'x' -> t.b = 'y'\n\
             rule r2: T(t) && t.b = 'y' -> t.c = 'z'\n",
        );
        assert_eq!(sch.class, TerminationClass::StaticBound);
        // chain of one edge: depth 1, bound 3
        assert_eq!(sch.bound, Some(RoundBound::Rounds(3)));
        assert_eq!(sch.strata, vec![vec![0], vec![1]]);
        assert!(sch.stratum_cyclic.iter().all(|&c| !c));
        assert!(sch.oscillations.is_empty() && sch.cascades.is_empty());
    }

    #[test]
    fn fd_copy_self_edge_is_a_cyclic_stratum() {
        let sch = derive("rule fd: T(t) && T(u) && t.a = u.a -> t.b = u.b\n");
        assert_eq!(sch.class, TerminationClass::AcyclicStrata);
        assert_eq!(sch.strata, vec![vec![0]]);
        assert_eq!(sch.stratum_cyclic, vec![true]);
        let b = sch.bound.expect("finite bound");
        // 5 tuples × 4 attrs = 20 cells; no temporal rules
        assert_eq!(b.resolve(5, 20), 20 + 5 + 3);
    }

    #[test]
    fn flip_flop_is_unbounded_with_a_witness() {
        let sch = derive(
            "rule f1: T(t) && t.a = 'm1' -> t.a = 'm2'\n\
             rule f2: T(t) && t.a = 'm2' -> t.a = 'm1'\n",
        );
        assert_eq!(sch.class, TerminationClass::Unbounded);
        assert_eq!(sch.bound, None);
        assert_eq!(sch.oscillations.len(), 1);
        let o = &sch.oscillations[0];
        assert_eq!(o.cycle, vec![0, 1]);
        assert_eq!(o.writers, (0, 1));
    }

    #[test]
    fn consistent_ping_cycle_is_a_cascade_not_an_oscillation() {
        let sch = derive(
            "rule p1: T(t) && t.a = 'm1' -> t.b = 'm2'\n\
             rule p2: T(t) && t.b = 'm2' -> t.a = 'm1'\n",
        );
        assert_ne!(sch.class, TerminationClass::Unbounded);
        assert!(sch.oscillations.is_empty());
        assert_eq!(sch.cascades, vec![vec![0, 1]]);
        assert!(sch.bound.is_some());
    }

    #[test]
    fn dead_rules_join_no_stratum() {
        let sch = derive(
            "rule dead: T(t) && t.a = 'x' && t.a = 'y' -> t.b = 'z'\n\
             rule live: T(t) && t.a = 'x' -> t.b = 'z'\n",
        );
        assert_eq!(sch.stratum_of[0], None);
        assert_eq!(sch.stratum_of[1], Some(0));
        assert_eq!(sch.strata, vec![vec![1]]);
    }
}
