//! Block store with two-level addressing (paper §5.1):
//!
//! "Data objects are partitioned and stored distributedly over a cluster …
//! Crystal develops a two-level addressing model. The first-level metadata
//! always resides in the memory of a cluster … each node maintains the
//! global meta information and knows where to fetch data. … Data at each
//! node is partitioned into blocks, stored as a linked list."
//!
//! The simulation: blocks hold opaque bytes; the directory (level 1) maps
//! `object → [block ids]` and `block → node`; fetching a block owned by a
//! remote node charges a simulated network cost. Per-node blocks are
//! chained (each block records the next block of its object on that node),
//! mirroring the linked-list layout.

use crate::hash::FxHashMap;
use crate::ring::{ConsistentHashRing, NodeId};
use crate::sync::{Arc, AtomicU64, LockRank, Ordering, RankedRwLock};

/// Identifies a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

#[derive(Debug, Clone)]
struct Block {
    data: Arc<[u8]>,
    node: NodeId,
    /// Next block of the same object on the same node (linked-list layout).
    next: Option<BlockId>,
}

/// First-level metadata for one object.
#[derive(Debug, Clone, Default)]
struct ObjectMeta {
    blocks: Vec<BlockId>,
}

/// The block store (a single shared directory — exactly what "first-level
/// metadata always resides in memory of the cluster" gives every node).
#[derive(Debug)]
pub struct BlockStore {
    // Rank order: BlockObjects < BlockData — a reader resolves the
    // directory before the data map (`get_object`); `put_object` takes
    // them one at a time in the other direction, which is legal because
    // it never holds both.
    blocks: RankedRwLock<FxHashMap<BlockId, Block>>,
    objects: RankedRwLock<FxHashMap<String, ObjectMeta>>,
    next_id: AtomicU64,
    /// Simulated bytes transferred across nodes.
    remote_bytes: AtomicU64,
    /// Simulated remote fetches.
    remote_fetches: AtomicU64,
}

impl Default for BlockStore {
    fn default() -> Self {
        BlockStore {
            blocks: RankedRwLock::new(LockRank::BlockData, FxHashMap::default()),
            objects: RankedRwLock::new(LockRank::BlockObjects, FxHashMap::default()),
            next_id: AtomicU64::new(0),
            remote_bytes: AtomicU64::new(0),
            remote_fetches: AtomicU64::new(0),
        }
    }
}

impl BlockStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Store an object split into blocks of `block_size`, placing each
    /// block on the ring owner of `(object, index)`. Returns `None` when
    /// the ring has no nodes to own the blocks (nothing is stored).
    pub fn put_object(
        &self,
        ring: &ConsistentHashRing,
        name: &str,
        data: &[u8],
        block_size: usize,
    ) -> Option<Vec<BlockId>> {
        assert!(block_size > 0);
        if ring.node_count() == 0 {
            return None;
        }
        let mut ids = Vec::new();
        let mut last_on_node: FxHashMap<NodeId, BlockId> = FxHashMap::default();
        let mut blocks = self.blocks.write();
        for (i, chunk) in data.chunks(block_size).enumerate() {
            let node = ring.owner(format!("{name}/{i}").as_bytes())?;
            let id = BlockId(self.next_id.fetch_add(1, Ordering::Relaxed));
            blocks.insert(
                id,
                Block {
                    data: Arc::from(chunk),
                    node,
                    next: None,
                },
            );
            if let Some(prev) = last_on_node.insert(node, id) {
                if let Some(b) = blocks.get_mut(&prev) {
                    b.next = Some(id);
                }
            }
            ids.push(id);
        }
        drop(blocks);
        self.objects.write().insert(
            name.to_owned(),
            ObjectMeta {
                blocks: ids.clone(),
            },
        );
        Some(ids)
    }

    /// Fetch an object's full contents from the perspective of `reader`:
    /// blocks on other nodes charge remote traffic.
    pub fn get_object(&self, name: &str, reader: NodeId) -> Option<Vec<u8>> {
        let meta = self.objects.read().get(name)?.clone();
        let blocks = self.blocks.read();
        let mut out = Vec::new();
        for id in &meta.blocks {
            let b = blocks.get(id)?;
            if b.node != reader {
                self.remote_bytes
                    .fetch_add(b.data.len() as u64, Ordering::Relaxed);
                self.remote_fetches.fetch_add(1, Ordering::Relaxed);
            }
            out.extend_from_slice(&b.data);
        }
        Some(out)
    }

    /// Which node hosts a block (level-1 lookup).
    pub fn block_node(&self, id: BlockId) -> Option<NodeId> {
        self.blocks.read().get(&id).map(|b| b.node)
    }

    /// Blocks of an object hosted on one node, in chain order.
    pub fn chain_on_node(&self, name: &str, node: NodeId) -> Vec<BlockId> {
        let Some(meta) = self.objects.read().get(name).cloned() else {
            return Vec::new();
        };
        let blocks = self.blocks.read();
        let mine: Vec<BlockId> = meta
            .blocks
            .iter()
            .copied()
            .filter(|id| blocks.get(id).map(|b| b.node) == Some(node))
            .collect();
        // verify chain integrity: each block's `next` is the following one
        let mut chained = Vec::new();
        let mut cur = mine.first().copied();
        while let Some(id) = cur {
            chained.push(id);
            cur = blocks.get(&id).and_then(|b| b.next);
        }
        if chained.len() == mine.len() {
            chained
        } else {
            mine
        }
    }

    /// Total simulated cross-node traffic in bytes.
    pub fn remote_bytes(&self) -> u64 {
        self.remote_bytes.load(Ordering::Relaxed)
    }

    /// Total simulated remote fetches.
    pub fn remote_fetches(&self) -> u64 {
        self.remote_fetches.load(Ordering::Relaxed)
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u32) -> ConsistentHashRing {
        let mut r = ConsistentHashRing::new(32);
        for i in 0..n {
            r.add_node(NodeId(i), &format!("10.0.0.{i}"));
        }
        r
    }

    #[test]
    fn roundtrip_object() {
        let store = BlockStore::new();
        let r = ring(4);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let ids = store.put_object(&r, "table/part0", &data, 64).unwrap();
        assert_eq!(ids.len(), 16); // ceil(1000/64)
        let back = store.get_object("table/part0", NodeId(0)).unwrap();
        assert_eq!(back, data);
        assert!(store.get_object("missing", NodeId(0)).is_none());
    }

    #[test]
    fn remote_traffic_accounted() {
        let store = BlockStore::new();
        let r = ring(4);
        let data = vec![7u8; 640];
        store.put_object(&r, "obj", &data, 64).unwrap();
        store.get_object("obj", NodeId(0)).unwrap();
        // with 4 nodes, roughly 3/4 of blocks are remote to node 0
        assert!(store.remote_fetches() > 0);
        assert!(store.remote_bytes() > 0);
        assert!(store.remote_bytes() <= 640);
    }

    #[test]
    fn single_node_no_remote_traffic() {
        let store = BlockStore::new();
        let r = ring(1);
        store.put_object(&r, "obj", &[1, 2, 3, 4], 2).unwrap();
        store.get_object("obj", NodeId(0)).unwrap();
        assert_eq!(store.remote_fetches(), 0);
    }

    #[test]
    fn empty_ring_rejects_put() {
        let store = BlockStore::new();
        let r = ConsistentHashRing::new(8);
        assert!(store.put_object(&r, "obj", &[1, 2, 3], 2).is_none());
        assert_eq!(store.object_count(), 0);
    }

    #[test]
    fn chains_are_per_node_linked_lists() {
        let store = BlockStore::new();
        let r = ring(3);
        let data = vec![0u8; 64 * 30];
        let ids = store.put_object(&r, "obj", &data, 64).unwrap();
        let mut covered = 0usize;
        for n in 0..3 {
            let chain = store.chain_on_node("obj", NodeId(n));
            covered += chain.len();
            for id in &chain {
                assert_eq!(store.block_node(*id), Some(NodeId(n)));
            }
        }
        assert_eq!(covered, ids.len());
    }
}
