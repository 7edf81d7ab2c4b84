//! Namenode: file and block metadata, replica placement.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::RwLock;
use sparkscore_cluster::NodeId;

use crate::block::BlockId;

/// Metadata for one immutable file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    pub path: String,
    /// Ordered blocks with their sizes in bytes.
    pub blocks: Vec<(BlockId, u64)>,
    pub total_bytes: u64,
}

impl FileMeta {
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// How replicas are placed on nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Deterministic rotation: block b's replicas go to nodes
    /// `(cursor + i) mod n`. Spreads load evenly and makes tests
    /// reproducible; real HDFS adds rack awareness we don't model.
    RoundRobin,
}

/// The metadata service.
#[derive(Debug)]
pub struct Namenode {
    files: RwLock<BTreeMap<String, FileMeta>>,
    replicas: RwLock<BTreeMap<BlockId, Vec<NodeId>>>,
    next_block: AtomicU64,
    cursor: AtomicUsize,
    #[allow(dead_code)]
    policy: PlacementPolicy,
}

impl Namenode {
    pub(crate) fn new(policy: PlacementPolicy) -> Self {
        Namenode {
            files: RwLock::new(BTreeMap::new()),
            replicas: RwLock::new(BTreeMap::new()),
            next_block: AtomicU64::new(0),
            cursor: AtomicUsize::new(0),
            policy,
        }
    }

    /// Allocate a fresh block id and pick `replication` distinct nodes from
    /// `candidates` for its replicas.
    pub(crate) fn allocate_block(
        &self,
        candidates: &[NodeId],
        replication: usize,
    ) -> (BlockId, Vec<NodeId>) {
        assert!(
            replication <= candidates.len(),
            "placement requires at least as many candidate nodes as replicas"
        );
        let id = BlockId(self.next_block.fetch_add(1, Ordering::Relaxed));
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        let placed: Vec<NodeId> = (0..replication)
            .map(|i| candidates[(start + i) % candidates.len()])
            .collect();
        self.replicas.write().insert(id, placed.clone());
        (id, placed)
    }

    /// Register a finished file.
    pub(crate) fn register_file(&self, path: &str, blocks: Vec<(BlockId, u64)>) -> FileMeta {
        let meta = FileMeta {
            path: path.to_string(),
            total_bytes: blocks.iter().map(|&(_, n)| n).sum(),
            blocks,
        };
        self.files.write().insert(path.to_string(), meta.clone());
        meta
    }

    pub(crate) fn lookup(&self, path: &str) -> Option<FileMeta> {
        self.files.read().get(path).cloned()
    }

    pub(crate) fn list_files(&self) -> Vec<String> {
        self.files.read().keys().cloned().collect()
    }

    /// All replica locations recorded for a block (no liveness filtering).
    pub(crate) fn replicas(&self, block: BlockId) -> Vec<NodeId> {
        self.replicas
            .read()
            .get(&block)
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn allocation_rotates_over_nodes() {
        let nn = Namenode::new(PlacementPolicy::RoundRobin);
        let cand = nodes(4);
        let (b0, r0) = nn.allocate_block(&cand, 2);
        let (b1, r1) = nn.allocate_block(&cand, 2);
        assert_ne!(b0, b1);
        assert_eq!(r0, vec![NodeId(0), NodeId(1)]);
        assert_eq!(r1, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn replicas_are_distinct_nodes() {
        let nn = Namenode::new(PlacementPolicy::RoundRobin);
        let cand = nodes(5);
        for _ in 0..20 {
            let (_, r) = nn.allocate_block(&cand, 3);
            let mut d = r.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "at least as many candidate nodes")]
    fn over_replication_panics() {
        let nn = Namenode::new(PlacementPolicy::RoundRobin);
        nn.allocate_block(&nodes(2), 3);
    }

    #[test]
    fn register_computes_totals() {
        let nn = Namenode::new(PlacementPolicy::RoundRobin);
        let meta = nn.register_file("/x", vec![(BlockId(0), 10), (BlockId(1), 32)]);
        assert_eq!(meta.total_bytes, 42);
        assert_eq!(meta.num_blocks(), 2);
        assert_eq!(nn.lookup("/x").unwrap().total_bytes, 42);
        assert!(nn.lookup("/y").is_none());
    }

    #[test]
    fn unknown_block_has_no_replicas() {
        let nn = Namenode::new(PlacementPolicy::RoundRobin);
        assert!(nn.replicas(BlockId(99)).is_empty());
    }
}
