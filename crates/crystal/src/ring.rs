//! Consistent hash ring (paper §5.1): "Crystal develops a consistent hash
//! ring to assign data objects and computing nodes in a cluster to positions
//! in a virtual ring structure. It aims to minimize the number of remapped
//! keys when the nodes are updated in the cluster."
//!
//! Nodes are hashed by CRC-32 over their address (as in the paper); each
//! node owns several *virtual* positions (vnodes) to even out load. Data
//! objects hash to a ring position and are owned by the first node
//! clockwise. The remapping guarantee (tested property): removing a node
//! only remaps keys that the removed node owned; adding a node only steals
//! keys from existing nodes.

use crate::crc32::crc32;
use std::collections::BTreeMap;

/// A computing node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Consistent hash ring with virtual nodes.
#[derive(Debug, Clone, Default)]
pub struct ConsistentHashRing {
    /// ring position -> node (BTreeMap = the sorted ring).
    ring: BTreeMap<u32, NodeId>,
    /// vnodes per physical node.
    vnodes: usize,
    nodes: Vec<(NodeId, String)>,
}

impl ConsistentHashRing {
    /// `vnodes` virtual positions per physical node (paper-style rings use
    /// 100–200; the default constructor uses 64 which is plenty for ≤32
    /// workers).
    pub fn new(vnodes: usize) -> Self {
        ConsistentHashRing {
            ring: BTreeMap::new(),
            vnodes: vnodes.max(1),
            nodes: Vec::new(),
        }
    }

    /// Add a node identified by an address string (the paper hashes IP
    /// addresses). Returns false if the node was already present.
    pub fn add_node(&mut self, node: NodeId, address: &str) -> bool {
        if self.nodes.iter().any(|(n, _)| *n == node) {
            return false;
        }
        for v in 0..self.vnodes {
            let pos = crc32(format!("{address}#{v}").as_bytes());
            // First-come-wins on (astronomically unlikely) position
            // collisions keeps removal exact.
            self.ring.entry(pos).or_insert(node);
        }
        self.nodes.push((node, address.to_owned()));
        true
    }

    /// Rebuild a ring from an explicit membership list (e.g. the live
    /// `nodes/` entries after lease expiry — see
    /// [`crate::scheduler::Cluster::sync_membership`]): only the listed
    /// nodes get positions, so ownership re-hashes onto survivors.
    pub fn from_members<'a>(
        vnodes: usize,
        members: impl IntoIterator<Item = (NodeId, &'a str)>,
    ) -> Self {
        let mut ring = ConsistentHashRing::new(vnodes);
        for (node, address) in members {
            ring.add_node(node, address);
        }
        ring
    }

    /// Whether a node is present.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.iter().any(|(n, _)| *n == node)
    }

    /// Remove a node; its keys flow to the next clockwise owners.
    pub fn remove_node(&mut self, node: NodeId) -> bool {
        let Some(idx) = self.nodes.iter().position(|(n, _)| *n == node) else {
            return false;
        };
        let (_, address) = self.nodes.remove(idx);
        for v in 0..self.vnodes {
            let pos = crc32(format!("{address}#{v}").as_bytes());
            if self.ring.get(&pos) == Some(&node) {
                self.ring.remove(&pos);
            }
        }
        true
    }

    /// Number of physical nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids, insertion order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|(n, _)| *n).collect()
    }

    /// Owner of a key (first node clockwise from the key's position).
    pub fn owner(&self, key: &[u8]) -> Option<NodeId> {
        if self.ring.is_empty() {
            return None;
        }
        let pos = crc32(key);
        self.ring
            .range(pos..)
            .next()
            .or_else(|| self.ring.iter().next())
            .map(|(_, n)| *n)
    }

    /// Owner of a pre-hashed position (work-unit placement uses the hash of
    /// the data partition directly, §5.2).
    pub fn owner_of_hash(&self, pos: u32) -> Option<NodeId> {
        if self.ring.is_empty() {
            return None;
        }
        self.ring
            .range(pos..)
            .next()
            .or_else(|| self.ring.iter().next())
            .map(|(_, n)| *n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHashMap;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("object-{i}")).collect()
    }

    fn assignment(ring: &ConsistentHashRing, keys: &[String]) -> FxHashMap<String, NodeId> {
        keys.iter()
            .map(|k| (k.clone(), ring.owner(k.as_bytes()).unwrap()))
            .collect()
    }

    fn build(n: usize) -> ConsistentHashRing {
        let mut ring = ConsistentHashRing::new(64);
        for i in 0..n {
            ring.add_node(NodeId(i as u32), &format!("10.0.0.{i}"));
        }
        ring
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = ConsistentHashRing::new(8);
        assert_eq!(ring.owner(b"x"), None);
    }

    #[test]
    fn all_keys_assigned_and_balanced() {
        let ring = build(8);
        let ks = keys(4000);
        let assign = assignment(&ring, &ks);
        let mut counts: FxHashMap<NodeId, usize> = FxHashMap::default();
        for n in assign.values() {
            *counts.entry(*n).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 8, "every node should own some keys");
        let max = *counts.values().max().unwrap() as f64;
        let min = *counts.values().min().unwrap() as f64;
        // with 64 vnodes the imbalance stays moderate
        assert!(max / min < 4.0, "imbalance {max}/{min}");
    }

    #[test]
    fn removing_node_only_remaps_its_keys() {
        let mut ring = build(8);
        let ks = keys(2000);
        let before = assignment(&ring, &ks);
        ring.remove_node(NodeId(3));
        let after = assignment(&ring, &ks);
        for k in &ks {
            if before[k] != NodeId(3) {
                assert_eq!(before[k], after[k], "key {k} moved needlessly");
            } else {
                assert_ne!(after[k], NodeId(3));
            }
        }
    }

    #[test]
    fn adding_node_only_steals_keys() {
        let mut ring = build(8);
        let ks = keys(2000);
        let before = assignment(&ring, &ks);
        ring.add_node(NodeId(99), "10.0.1.99");
        let after = assignment(&ring, &ks);
        let mut moved = 0usize;
        for k in &ks {
            if before[k] != after[k] {
                assert_eq!(after[k], NodeId(99), "key {k} moved to a non-new node");
                moved += 1;
            }
        }
        // Expected share ≈ 1/9 of keys; allow generous slack.
        assert!(moved > 0 && moved < ks.len() / 3, "moved {moved}");
    }

    #[test]
    fn from_members_matches_incremental_build() {
        let incremental = build(4);
        let members: Vec<(NodeId, String)> = (0..4)
            .map(|i| (NodeId(i as u32), format!("10.0.0.{i}")))
            .collect();
        let rebuilt =
            ConsistentHashRing::from_members(64, members.iter().map(|(n, a)| (*n, a.as_str())));
        assert_eq!(rebuilt.node_count(), 4);
        assert!(rebuilt.contains(NodeId(2)));
        assert!(!rebuilt.contains(NodeId(9)));
        for k in keys(500) {
            assert_eq!(incremental.owner(k.as_bytes()), rebuilt.owner(k.as_bytes()));
        }
        // excluding a member re-hashes exactly like removing it
        let survivors = ConsistentHashRing::from_members(
            64,
            members.iter().skip(1).map(|(n, a)| (*n, a.as_str())),
        );
        let mut removed = build(4);
        removed.remove_node(NodeId(0));
        for k in keys(500) {
            assert_eq!(survivors.owner(k.as_bytes()), removed.owner(k.as_bytes()));
        }
    }

    #[test]
    fn duplicate_add_remove() {
        let mut ring = build(2);
        assert!(!ring.add_node(NodeId(0), "10.0.0.0"));
        assert!(ring.remove_node(NodeId(0)));
        assert!(!ring.remove_node(NodeId(0)));
        assert_eq!(ring.node_count(), 1);
    }

    #[test]
    fn owner_of_hash_consistent_with_owner() {
        let ring = build(4);
        let k = b"some-partition";
        assert_eq!(ring.owner(k), ring.owner_of_hash(crate::crc32::crc32(k)));
    }
}
