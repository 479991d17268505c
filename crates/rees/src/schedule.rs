//! Pass 4 — rule strata and the termination witnesses.
//!
//! The chase (paper §4) terminates because the fix store is a finite
//! join-semilattice and every accepted fix climbs it — Bahmani & Bertossi
//! get termination of the matching-dependency chase from the same
//! finite-domain argument. What that argument does not rule out is a
//! ruleset whose constant writes feed each other's guards in a loop and
//! keep contesting the same cell with different constants. This pass runs
//! an abstract interpretation over the rule program's write→read structure
//! (attribute level: the lattice element for a rule is the set of
//! `(relation, attribute)` cells it can touch) and produces:
//!
//! * the **strata** — the topologically ordered strongly connected
//!   components of the certification graph, with which of them are
//!   cyclic;
//! * **witnesses** for the certify diagnostics: oscillating cycles
//!   (`E301`, the ruleset does not terminate) and self-sustaining but
//!   consistent constant cascades (`W302`). The diagnostics themselves are
//!   emitted by `rock-analyze`'s certify pass; this module only computes
//!   the facts.
//!
//! Only `rock-analyze` computes this; the chase runs on the
//! [`RuleGraph`](graph::RuleGraph) alone. The certification graph is
//! deliberately *denser* than [`RuleGraph::edges`](graph::RuleGraph): it
//! keeps self-edges and adds consequence-source reads (an FD copy
//! `-> t.code = u.code` re-reads the cell it writes). Activation cares
//! about which rules a delta can re-activate; termination cares about
//! whether a rule can keep feeding itself.

use crate::graph::{
    self, const_eq_consequence, order_reads, order_writes, per_live_rule, value_reads,
};
use crate::{Predicate, Rule, RuleSet};
use rock_data::{AttrId, RelId};

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

/// The strata of a ruleset and its termination witnesses.
#[derive(Debug, Clone)]
pub struct ChaseSchedule {
    /// The rule graph the strata were computed over.
    pub graph: graph::RuleGraph,
    /// Strongly connected components of the certification graph in
    /// topological order; members sorted. Dead rules appear in no stratum.
    pub strata: Vec<Vec<usize>>,
    /// Whether each stratum contains a dependency cycle (more than one
    /// member, or a self-edge).
    pub stratum_cyclic: Vec<bool>,
    /// `E301` witnesses (oscillating constant-flow cycles).
    pub oscillations: Vec<Oscillation>,
    /// `W302` witnesses: constant-flow cycles whose writes are mutually
    /// consistent (sorted rule indices per cycle).
    pub cascades: Vec<Vec<usize>>,
}

impl ChaseSchedule {
    /// Compute the strata and witnesses over a rule graph.
    pub fn from_graph(g: graph::RuleGraph, rules: &RuleSet) -> ChaseSchedule {
        let rs: Vec<&Rule> = rules.iter().collect();
        let n = g.nrules;

        // Certification adjacency: scheduling edges + self-edges +
        // consequence-source reads, live rules only.
        let reads = per_live_rule(&rs, &g.dead, value_reads);
        let sources = per_live_rule(&rs, &g.dead, graph::consequence_value_sources);
        let order_r = per_live_rule(&rs, &g.dead, order_reads);
        let order_w = per_live_rule(&rs, &g.dead, order_writes);
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            if g.dead[i] {
                continue;
            }
            for j in 0..n {
                if g.dead[j] {
                    continue;
                }
                let value_edge = g.cell_writes[i]
                    .iter()
                    .any(|c| reads[j].contains(c) || sources[j].contains(c));
                let order_edge = order_w[i].iter().any(|c| order_r[j].contains(c));
                let merge_edge =
                    g.merge_rule[i] && g.rels[i].iter().any(|r| g.rels[j].binary_search(r).is_ok());
                if value_edge || order_edge || merge_edge {
                    adj[i].push(j);
                }
            }
        }

        let live: Vec<bool> = g.dead.iter().map(|d| !d).collect();
        let strata = condense(&adj, &live);
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

        ChaseSchedule {
            graph: g,
            strata,
            stratum_cyclic,
            oscillations,
            cascades,
        }
    }

    /// The ruleset terminates unless a constant-flow cycle oscillates
    /// (`E301`): every other fix climbs the finite fix lattice.
    pub fn terminates(&self) -> bool {
        self.oscillations.is_empty()
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
    for (v, &is_live) in live.iter().enumerate() {
        if is_live && state.index[v] == usize::MAX {
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
    use rock_data::{AttrType, DatabaseSchema, RelationSchema};

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
        ChaseSchedule::from_graph(graph::RuleGraph::derive(&rules, &s), &rules)
    }

    #[test]
    fn acyclic_constant_chain_has_singleton_strata() {
        let sch = derive(
            "rule r1: T(t) && t.a = 'x' -> t.b = 'y'\n\
             rule r2: T(t) && t.b = 'y' -> t.c = 'z'\n",
        );
        assert!(sch.terminates());
        assert_eq!(sch.strata, vec![vec![0], vec![1]]);
        assert!(sch.stratum_cyclic.iter().all(|&c| !c));
        assert!(sch.oscillations.is_empty() && sch.cascades.is_empty());
    }

    #[test]
    fn fd_copy_self_edge_is_a_cyclic_stratum() {
        let sch = derive("rule fd: T(t) && T(u) && t.a = u.a -> t.b = u.b\n");
        assert!(sch.terminates());
        assert_eq!(sch.strata, vec![vec![0]]);
        assert_eq!(sch.stratum_cyclic, vec![true]);
    }

    #[test]
    fn flip_flop_does_not_terminate_and_has_a_witness() {
        let sch = derive(
            "rule f1: T(t) && t.a = 'm1' -> t.a = 'm2'\n\
             rule f2: T(t) && t.a = 'm2' -> t.a = 'm1'\n",
        );
        assert!(!sch.terminates());
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
        assert!(sch.terminates());
        assert!(sch.oscillations.is_empty());
        assert_eq!(sch.cascades, vec![vec![0, 1]]);
    }
    #[test]
    fn dead_rules_join_no_stratum() {
        let sch = derive(
            "rule dead: T(t) && t.a = 'x' && t.a = 'y' -> t.b = 'z'\n\
             rule live: T(t) && t.a = 'x' -> t.b = 'z'\n",
        );
        assert_eq!(sch.strata, vec![vec![1]]);
    }
}
