//! Partial temporal orders `[A]⪯` with conflict detection (paper §4.1
//! "Validity" (b)): a fix store is invalid when `[A]⪯` contains both
//! `(t1, t2)` and `(t2, t1)` with one of them strict.
//!
//! Representation: a directed graph over tuple ids where an edge `t1 → t2`
//! means `t1 ⪯A t2` (strict edges additionally carry `≺`). Reachability
//! answers `holds` queries; adding an edge that closes a *strict* cycle is
//! a conflict and is rejected (the caller resolves it, §4.2(2)).

use rock_data::{FxHashMap, FxHashSet, TupleId};

/// One attribute's validated partial order.
#[derive(Debug, Clone, Default)]
pub struct PartialOrderStore {
    /// adjacency: t -> [(successor, strict)]
    succ: FxHashMap<TupleId, Vec<(TupleId, bool)>>,
    edges: usize,
}

/// Result of inserting an order pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderInsert {
    /// The pair is newly validated.
    Added,
    /// The pair was already derivable.
    Known,
    /// The pair contradicts validated orders (antisymmetry violation with a
    /// strict edge on the cycle).
    Conflict,
}

impl PartialOrderStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a store from a previously captured direct-edge list
    /// ([`Self::iter_edges`]). Bypasses the derivability check so the
    /// reconstructed store has the *identical* direct-edge set (and thus
    /// identical `edge_count`), not merely the same closure — checkpoint
    /// resume must restore the store exactly.
    pub fn from_edges(edges: &[(TupleId, TupleId, bool)]) -> Self {
        let mut s = PartialOrderStore::new();
        for &(a, b, strict) in edges {
            s.succ.entry(a).or_default().push((b, strict));
            s.edges += 1;
        }
        s
    }

    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Is `a ⪯ b` derivable (strict=false), or `a ≺ b` (strict=true)?
    /// Reflexive: `a ⪯ a` always holds; `a ≺ a` never does.
    pub fn holds(&self, a: TupleId, b: TupleId, strict: bool) -> bool {
        if a == b {
            return !strict;
        }
        // BFS; track whether any strict edge was used on some path.
        // For non-strict queries any path suffices; for strict queries we
        // need a path containing a strict edge.
        let mut seen: FxHashSet<(TupleId, bool)> = FxHashSet::default();
        let mut queue: Vec<(TupleId, bool)> = vec![(a, false)];
        seen.insert((a, false));
        while let Some((cur, used_strict)) = queue.pop() {
            if let Some(next) = self.succ.get(&cur) {
                for &(nxt, edge_strict) in next {
                    let s = used_strict || edge_strict;
                    if nxt == b && (!strict || s) {
                        return true;
                    }
                    if seen.insert((nxt, s)) {
                        queue.push((nxt, s));
                    }
                }
            }
        }
        false
    }

    /// Try to validate `a ⪯ b` / `a ≺ b`.
    pub fn insert(&mut self, a: TupleId, b: TupleId, strict: bool) -> OrderInsert {
        if a == b {
            return if strict {
                OrderInsert::Conflict
            } else {
                OrderInsert::Known
            };
        }
        // Conflict when the reverse direction holds with strictness on
        // either side: (a ≺ b) ∧ (b ⪯ a), or (a ⪯ b) ∧ (b ≺ a).
        if self.holds(b, a, !strict) && (strict || self.holds(b, a, true)) {
            return OrderInsert::Conflict;
        }
        if strict && self.holds(b, a, false) {
            return OrderInsert::Conflict;
        }
        if self.holds(a, b, strict) {
            return OrderInsert::Known;
        }
        self.succ.entry(a).or_default().push((b, strict));
        self.edges += 1;
        OrderInsert::Added
    }

    /// All directly validated pairs (not the closure).
    pub fn iter_edges(&self) -> impl Iterator<Item = (TupleId, TupleId, bool)> + '_ {
        self.succ
            .iter()
            .flat_map(|(&a, vs)| vs.iter().map(move |&(b, s)| (a, b, s)))
    }

    /// Tuples with no validated successor among `candidates` — the "latest"
    /// values TD reports (paper §1: "infer the latest attribute values of
    /// each entity"). Ties (incomparable tuples) are all returned.
    pub fn maximal(&self, candidates: &[TupleId]) -> Vec<TupleId> {
        candidates
            .iter()
            .copied()
            .filter(|&t| !candidates.iter().any(|&u| u != t && self.holds(t, u, true)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: TupleId = TupleId(0);
    const T1: TupleId = TupleId(1);
    const T2: TupleId = TupleId(2);

    #[test]
    fn reflexivity() {
        let p = PartialOrderStore::new();
        assert!(p.holds(T0, T0, false));
        assert!(!p.holds(T0, T0, true));
    }

    #[test]
    fn transitivity_via_reachability() {
        let mut p = PartialOrderStore::new();
        assert_eq!(p.insert(T0, T1, false), OrderInsert::Added);
        assert_eq!(p.insert(T1, T2, true), OrderInsert::Added);
        assert!(p.holds(T0, T2, false));
        // strict holds because a strict edge lies on the path
        assert!(p.holds(T0, T2, true));
        assert!(!p.holds(T2, T0, false));
    }

    #[test]
    fn non_strict_cycle_is_fine() {
        // t0 ⪯ t1 and t1 ⪯ t0 just means "equally current".
        let mut p = PartialOrderStore::new();
        assert_eq!(p.insert(T0, T1, false), OrderInsert::Added);
        assert_eq!(p.insert(T1, T0, false), OrderInsert::Added);
        assert!(p.holds(T0, T1, false));
        assert!(p.holds(T1, T0, false));
        assert!(!p.holds(T0, T1, true));
    }

    #[test]
    fn strict_reverse_is_conflict() {
        let mut p = PartialOrderStore::new();
        assert_eq!(p.insert(T0, T1, true), OrderInsert::Added);
        assert_eq!(p.insert(T1, T0, false), OrderInsert::Conflict);
        assert_eq!(p.insert(T1, T0, true), OrderInsert::Conflict);
    }

    #[test]
    fn strict_after_nonstrict_cycle_is_conflict() {
        let mut p = PartialOrderStore::new();
        p.insert(T0, T1, false);
        p.insert(T1, T0, false);
        assert_eq!(p.insert(T0, T1, true), OrderInsert::Conflict);
    }

    #[test]
    fn duplicate_insert_known() {
        let mut p = PartialOrderStore::new();
        assert_eq!(p.insert(T0, T1, false), OrderInsert::Added);
        assert_eq!(p.insert(T0, T1, false), OrderInsert::Known);
        assert_eq!(p.edge_count(), 1);
        // a strict insert over a known non-strict pair adds information
        assert_eq!(p.insert(T0, T1, true), OrderInsert::Added);
    }

    #[test]
    fn self_strict_is_conflict() {
        let mut p = PartialOrderStore::new();
        assert_eq!(p.insert(T0, T0, true), OrderInsert::Conflict);
        assert_eq!(p.insert(T0, T0, false), OrderInsert::Known);
    }

    #[test]
    fn maximal_elements() {
        let mut p = PartialOrderStore::new();
        p.insert(T0, T1, true);
        p.insert(T1, T2, true);
        assert_eq!(p.maximal(&[T0, T1, T2]), vec![T2]);
        // incomparable tuples are all maximal
        let q = PartialOrderStore::new();
        assert_eq!(q.maximal(&[T0, T1]), vec![T0, T1]);
    }
}
