//! Label paths `ρ = (l1, …, ln)` and their matches (paper §2,
//! Preliminaries: "A match of ρ in G is a list (v0, v1, …, vn) such that
//! (v_{i-1}, l_i, v_i) is an edge in G").

use crate::graph::{Graph, VertexId};
use rock_data::Value;
use std::fmt;
use std::sync::Arc;

/// A label path: a list of edge labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LabelPath {
    pub labels: Vec<Arc<str>>,
}

impl LabelPath {
    pub fn new<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        LabelPath {
            labels: labels.into_iter().map(|s| Arc::from(s.as_ref())).collect(),
        }
    }

    /// Parse from a `/`-separated string, e.g. `"LocationAt/AreaCode"`.
    pub fn parse(s: &str) -> Self {
        Self::new(s.split('/').filter(|p| !p.is_empty()))
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// All end vertices of matches of this path starting at `from`.
    /// An empty path matches trivially with end vertex `from`.
    pub fn matches(&self, g: &Graph, from: VertexId) -> Vec<VertexId> {
        let mut frontier = vec![from];
        for label in &self.labels {
            let mut next = Vec::new();
            for v in frontier {
                next.extend_from_slice(g.neighbours(v, label));
            }
            if next.is_empty() {
                return Vec::new();
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        frontier
    }

    /// Does any match of this path exist from `from`? (the `match(t.A, x.ρ)`
    /// predicate's existence half).
    pub fn has_match(&self, g: &Graph, from: VertexId) -> bool {
        !self.matches(g, from).is_empty()
    }

    /// The value `val(x.ρ)`: the label of the end vertex of the match.
    /// When multiple matches exist, the smallest vertex id wins — this keeps
    /// the extraction deterministic, a precondition for the Church-Rosser
    /// argument; MI conflict resolution (paper §4.2(3)) arbitrates between
    /// *different rules*, not within a single extraction.
    pub fn val(&self, g: &Graph, from: VertexId) -> Option<Value> {
        self.matches(g, from)
            .first()
            .map(|v| g.vertex(*v).label.clone())
    }
}

impl fmt::Display for LabelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for l in &self.labels {
            if !first {
                f.write_str("/")?;
            }
            f.write_str(l)?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, VertexId) {
        // s -a-> m1 -b-> e1 ; s -a-> m2 -b-> e2
        let mut g = Graph::new("G");
        let s = g.add_vertex(Value::str("s"), "");
        let m1 = g.add_vertex(Value::str("m1"), "");
        let m2 = g.add_vertex(Value::str("m2"), "");
        let e1 = g.add_vertex(Value::str("e1"), "");
        let e2 = g.add_vertex(Value::str("e2"), "");
        g.add_edge(s, "a", m1);
        g.add_edge(s, "a", m2);
        g.add_edge(m1, "b", e1);
        g.add_edge(m2, "b", e2);
        (g, s)
    }

    #[test]
    fn parse_display_roundtrip() {
        let p = LabelPath::parse("LocationAt/AreaCode");
        assert_eq!(p.len(), 2);
        assert_eq!(p.to_string(), "LocationAt/AreaCode");
        assert!(LabelPath::parse("").is_empty());
    }

    #[test]
    fn multi_step_match() {
        let (g, s) = diamond();
        let p = LabelPath::parse("a/b");
        let ends = p.matches(&g, s);
        assert_eq!(ends.len(), 2);
        assert!(p.has_match(&g, s));
        // deterministic: smallest id's label
        assert_eq!(p.val(&g, s), Some(Value::str("e1")));
    }

    #[test]
    fn no_match() {
        let (g, s) = diamond();
        let p = LabelPath::parse("a/zzz");
        assert!(!p.has_match(&g, s));
        assert_eq!(p.val(&g, s), None);
    }

    #[test]
    fn empty_path_matches_self() {
        let (g, s) = diamond();
        let p = LabelPath::new(Vec::<&str>::new());
        assert_eq!(p.matches(&g, s), vec![s]);
        assert_eq!(p.val(&g, s), Some(Value::str("s")));
    }

    #[test]
    fn dedup_on_converging_paths() {
        let mut g = Graph::new("G");
        let s = g.add_vertex(Value::str("s"), "");
        let m1 = g.add_vertex(Value::str("m1"), "");
        let m2 = g.add_vertex(Value::str("m2"), "");
        let e = g.add_vertex(Value::str("e"), "");
        g.add_edge(s, "a", m1);
        g.add_edge(s, "a", m2);
        g.add_edge(m1, "b", e);
        g.add_edge(m2, "b", e);
        assert_eq!(LabelPath::parse("a/b").matches(&g, s), vec![e]);
    }
}
