//! Cluster topology: nodes, liveness, and cluster construction.
//!
//! A [`Cluster`] is a fixed set of [`Node`]s built from a [`ClusterSpec`]
//! (count × instance type, mirroring an EMR cluster request). Nodes can be
//! killed at runtime — the dataflow engine then loses the cached blocks and
//! shuffle outputs that lived there and must recover them from lineage,
//! which is the fault-tolerance property the paper inherits from Spark.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::instance::InstanceType;

/// Identifier of a node within one cluster (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// One machine in the simulated cluster.
#[derive(Debug)]
pub struct Node {
    pub id: NodeId,
    pub instance: InstanceType,
    alive: AtomicBool,
}

impl Node {
    #[inline]
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }
}

/// Shape of a cluster: how many nodes of which instance type.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    pub nodes: u32,
    pub instance: InstanceType,
}

impl ClusterSpec {
    /// The paper's cluster shape: `nodes` × m3.2xlarge.
    pub fn m3_2xlarge(nodes: u32) -> Self {
        ClusterSpec {
            nodes,
            instance: crate::instance::M3_2XLARGE,
        }
    }

    /// Small cluster of the test instance profile.
    pub fn test_small(nodes: u32) -> Self {
        ClusterSpec {
            nodes,
            instance: crate::instance::TEST_SMALL,
        }
    }

    /// Total memory in bytes across the cluster.
    #[cfg(test)]
    fn total_memory_bytes(&self) -> u64 {
        self.nodes as u64 * self.instance.memory_bytes()
    }
}

/// A provisioned cluster. Cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct Cluster {
    spec: ClusterSpec,
    nodes: Vec<Node>,
    /// Bumped after every liveness change; versions [`Cluster::alive_snapshot`].
    liveness_epoch: AtomicU64,
    /// Cached `(epoch, alive set)` so hot placement paths don't rebuild the
    /// alive-node `Vec` on every call.
    alive_cache: Mutex<(u64, Arc<Vec<NodeId>>)>,
}

impl Cluster {
    /// Provision a cluster. Panics on a zero-node spec — an EMR request for
    /// zero instances is a configuration bug, not a runtime condition.
    pub fn provision(spec: ClusterSpec) -> Self {
        assert!(spec.nodes > 0, "cluster must have at least one node");
        let nodes = (0..spec.nodes)
            .map(|i| Node {
                id: NodeId(i),
                instance: spec.instance.clone(),
                alive: AtomicBool::new(true),
            })
            .collect();
        Cluster {
            spec,
            nodes,
            liveness_epoch: AtomicU64::new(0),
            // Sentinel epoch so the first snapshot call populates the cache.
            alive_cache: Mutex::new((u64::MAX, Arc::new(Vec::new()))),
        }
    }

    #[inline]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// IDs of all currently-alive nodes.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_alive())
            .map(|n| n.id)
            .collect()
    }

    /// Cached shared snapshot of the alive-node set. Hot placement paths
    /// call this once per block/bucket; rebuilding a `Vec` each time (as
    /// [`Cluster::alive_nodes`] does) was measurable allocator churn. The
    /// cache is invalidated by [`Cluster::kill_node`] bumping the liveness
    /// epoch *after* the flag write, so a cached snapshot is always at least as new as its epoch.
    pub fn alive_snapshot(&self) -> Arc<Vec<NodeId>> {
        let epoch = self.liveness_epoch.load(Ordering::Acquire);
        let mut cache = self.alive_cache.lock();
        if cache.0 != epoch {
            *cache = (epoch, Arc::new(self.alive_nodes()));
        }
        Arc::clone(&cache.1)
    }

    pub fn num_alive(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_alive()).count()
    }

    /// Mark a node dead. Returns `true` if it was alive. Idempotent.
    pub fn kill_node(&self, id: NodeId) -> bool {
        let was_alive = self.nodes[id.index()].alive.swap(false, Ordering::AcqRel);
        if was_alive {
            self.liveness_epoch.fetch_add(1, Ordering::AcqRel);
        }
        was_alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TEST_SMALL;

    fn cluster(n: u32) -> Cluster {
        Cluster::provision(ClusterSpec::test_small(n))
    }

    #[test]
    fn provision_creates_dense_ids() {
        let c = cluster(4);
        assert_eq!(c.num_nodes(), 4);
        for (i, n) in c.nodes.iter().enumerate() {
            assert_eq!(n.id, NodeId(i as u32));
            assert!(n.is_alive());
            assert_eq!(n.instance, TEST_SMALL);
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = cluster(0);
    }

    #[test]
    fn kill_and_revive() {
        let c = cluster(3);
        assert!(c.kill_node(NodeId(1)));
        assert!(!c.kill_node(NodeId(1)), "second kill is a no-op");
        assert_eq!(c.num_alive(), 2);
        assert_eq!(c.alive_nodes(), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn alive_snapshot_caches_and_invalidates() {
        let c = cluster(3);
        let s1 = c.alive_snapshot();
        assert_eq!(*s1, vec![NodeId(0), NodeId(1), NodeId(2)]);
        let s2 = c.alive_snapshot();
        assert!(Arc::ptr_eq(&s1, &s2), "unchanged liveness reuses snapshot");
        c.kill_node(NodeId(1));
        let s3 = c.alive_snapshot();
        assert_eq!(*s3, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn spec_totals() {
        let spec = ClusterSpec::m3_2xlarge(6);
        assert_eq!(spec.total_memory_bytes(), 6 * 30 * 1024 * 1024 * 1024);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "node-7");
    }
}
