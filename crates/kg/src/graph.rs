//! Labeled graph `G = (V, E, L)` (paper §2, Preliminaries).

use rock_data::{FxHashMap, Value};
use std::sync::Arc;

/// Vertex identifier inside one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One vertex: a label (which "may carry values") plus an optional entity
/// name used by HER feature extraction.
#[derive(Debug, Clone)]
pub struct Vertex {
    /// The value this vertex carries (e.g. the string "Beijing").
    pub label: Value,
    /// Entity kind tag, e.g. "Store", "City" — lets HER candidates be
    /// filtered cheaply. Empty string = untyped.
    pub kind: Arc<str>,
}

/// A directed labeled edge `(u, l, v)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    pub from: VertexId,
    pub label: Arc<str>,
    pub to: VertexId,
}

/// In-memory labeled graph with per-vertex adjacency grouped by edge label,
/// so a label-path step is a hash lookup rather than a scan.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    pub name: String,
    vertices: Vec<Vertex>,
    /// adjacency: vertex -> edge label -> out-neighbours
    adj: Vec<FxHashMap<Arc<str>, Vec<VertexId>>>,
    edge_count: usize,
}

impl Graph {
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add a vertex, returning its id.
    pub fn add_vertex(&mut self, label: Value, kind: impl AsRef<str>) -> VertexId {
        let id = VertexId(self.vertices.len() as u32);
        self.vertices.push(Vertex {
            label,
            kind: Arc::from(kind.as_ref()),
        });
        self.adj.push(FxHashMap::default());
        id
    }

    /// Add a directed labeled edge.
    pub fn add_edge(&mut self, from: VertexId, label: impl AsRef<str>, to: VertexId) {
        assert!(from.index() < self.vertices.len() && to.index() < self.vertices.len());
        self.adj[from.index()]
            .entry(Arc::from(label.as_ref()))
            .or_default()
            .push(to);
        self.edge_count += 1;
    }

    pub fn vertex(&self, id: VertexId) -> &Vertex {
        &self.vertices[id.index()]
    }

    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Out-neighbours of `v` along edges labeled `label`.
    pub fn neighbours(&self, v: VertexId, label: &str) -> &[VertexId] {
        self.adj[v.index()]
            .get(label)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Iterate all vertices `(id, vertex)`.
    pub fn iter_vertices(&self) -> impl Iterator<Item = (VertexId, &Vertex)> {
        self.vertices
            .iter()
            .enumerate()
            .map(|(i, v)| (VertexId(i as u32), v))
    }

    /// Vertices of a given kind (HER candidate pool).
    pub fn vertices_of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = VertexId> + 'a {
        self.iter_vertices()
            .filter(move |(_, v)| &*v.kind == kind)
            .map(|(id, _)| id)
    }

    /// Distinct edge labels leaving `v`.
    pub fn out_labels(&self, v: VertexId) -> impl Iterator<Item = &Arc<str>> {
        self.adj[v.index()].keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> (Graph, VertexId, VertexId, VertexId) {
        let mut g = Graph::new("Wiki");
        let store = g.add_vertex(Value::str("Huawei Flagship"), "Store");
        let city = g.add_vertex(Value::str("Beijing"), "City");
        let code = g.add_vertex(Value::str("010"), "AreaCode");
        g.add_edge(store, "LocationAt", city);
        g.add_edge(city, "AreaCode", code);
        (g, store, city, code)
    }

    #[test]
    fn vertices_and_edges() {
        let (g, store, city, code) = g();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbours(store, "LocationAt"), &[city]);
        assert_eq!(g.neighbours(city, "AreaCode"), &[code]);
        assert!(g.neighbours(store, "Nope").is_empty());
        assert_eq!(g.vertex(city).label, Value::str("Beijing"));
    }

    #[test]
    fn kind_filter() {
        let (g, store, ..) = g();
        let stores: Vec<_> = g.vertices_of_kind("Store").collect();
        assert_eq!(stores, vec![store]);
        assert_eq!(g.vertices_of_kind("Nothing").count(), 0);
    }

    #[test]
    fn out_labels_enumerate() {
        let (g, store, ..) = g();
        let labels: Vec<&str> = g.out_labels(store).map(|l| &**l).collect();
        assert_eq!(labels, vec!["LocationAt"]);
    }
}
