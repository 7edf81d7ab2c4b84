//! YARN-like resource manager.
//!
//! Spark-on-YARN jobs request a number of *containers* (executors), each
//! with a memory grant and a core count (`--num-executors`,
//! `--executor-memory`, `--executor-cores`). YARN packs containers onto
//! nodes subject to node capacities. The paper's auto-tuning experiment
//! (Tables VII/VIII, Fig 7) sweeps exactly these three flags on a fixed
//! 36-node cluster; [`ResourceManager::allocate`] performs the same packing
//! arithmetic and yields the [`ExecutorLayout`] the task scheduler runs on.

use std::fmt;
use std::sync::Arc;

use crate::topology::{Cluster, NodeId};

/// A Spark-on-YARN style container/executor request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerRequest {
    /// Number of containers (executors) requested.
    pub containers: u32,
    /// Memory per container, MiB.
    pub memory_mib: u64,
    /// Cores per container.
    pub cores: u32,
}

impl ContainerRequest {
    pub fn new(containers: u32, memory_mib: u64, cores: u32) -> Self {
        ContainerRequest {
            containers,
            memory_mib,
            cores,
        }
    }

    /// Table VIII, row 1: 42 containers × 10 GiB × 6 cores.
    pub fn paper_42() -> Self {
        Self::new(42, 10 * 1024, 6)
    }

    /// Table VIII, row 2: 84 containers × 5 GiB (half) × 3 cores.
    pub fn paper_84() -> Self {
        Self::new(84, 5 * 1024, 3)
    }

    /// Table VIII, row 3: 126 containers × 8/3 GiB × 2 cores.
    pub fn paper_126() -> Self {
        Self::new(126, 10 * 1024 / 3, 2)
    }

    /// Total task slots the request would provide if fully granted.
    pub fn total_slots(&self) -> u64 {
        self.containers as u64 * self.cores as u64
    }
}

/// One granted executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Executor {
    /// Dense executor index within the layout.
    pub id: u32,
    /// Node hosting the executor.
    pub node: NodeId,
    /// Concurrent task slots.
    pub cores: u32,
    /// Memory grant in bytes (storage + execution memory).
    pub memory_bytes: u64,
}

/// The set of executors a job runs on, plus derived totals.
#[derive(Debug, Clone)]
pub struct ExecutorLayout {
    executors: Vec<Executor>,
}

impl ExecutorLayout {
    pub(crate) fn executors(&self) -> &[Executor] {
        &self.executors
    }

    pub fn num_executors(&self) -> usize {
        self.executors.len()
    }

    /// Total concurrent task slots.
    pub fn total_slots(&self) -> usize {
        self.executors.iter().map(|e| e.cores as usize).sum()
    }

    /// Total granted memory in bytes.
    pub fn total_memory_bytes(&self) -> u64 {
        self.executors.iter().map(|e| e.memory_bytes).sum()
    }

    /// Nodes that host at least one executor, deduplicated, in node order.
    pub(crate) fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.executors.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// Why an allocation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// A single container needs more memory than any node can grant.
    ContainerTooLarge {
        memory_mib: u64,
        cores: u32,
        node_memory_mib: u64,
        node_cores: u32,
    },
    /// Aggregate demand exceeds aggregate cluster capacity.
    ClusterExhausted { granted: u32, requested: u32 },
    /// Request for zero containers or zero cores.
    EmptyRequest,
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::ContainerTooLarge {
                memory_mib,
                cores,
                node_memory_mib,
                node_cores,
            } => write!(
                f,
                "container ({memory_mib} MiB, {cores} cores) exceeds node capacity \
                 ({node_memory_mib} MiB, {node_cores} cores)"
            ),
            ResourceError::ClusterExhausted { granted, requested } => write!(
                f,
                "cluster exhausted: granted {granted} of {requested} containers"
            ),
            ResourceError::EmptyRequest => write!(f, "request for zero containers or cores"),
        }
    }
}

impl std::error::Error for ResourceError {}

/// Fraction of node memory YARN hands out to containers (the rest is
/// reserved for the OS/daemons). EMR defaults leave roughly 75–90%; we use
/// 90%.
const USABLE_MEMORY_FRACTION: f64 = 0.9;

/// Packs container requests onto cluster nodes (first-fit round-robin, the
/// effective behaviour of YARN's default capacity scheduler for uniform
/// containers on a homogeneous cluster).
///
/// Containers are packed by memory only, as YARN's default
/// `DefaultResourceCalculator` does — which is how the paper fits 42
/// containers × 6 cores onto 36 × 8-vCPU nodes (Table VIII).
#[derive(Debug)]
pub struct ResourceManager {
    cluster: Arc<Cluster>,
}

impl ResourceManager {
    pub fn new(cluster: Arc<Cluster>) -> Self {
        ResourceManager { cluster }
    }

    fn node_usable_memory(&self) -> u64 {
        let per_node = self.cluster.spec().instance.memory_bytes() as f64;
        (per_node * USABLE_MEMORY_FRACTION) as u64
    }

    /// Allocate `req`, spreading containers round-robin over alive nodes.
    pub fn allocate(&self, req: ContainerRequest) -> Result<ExecutorLayout, ResourceError> {
        if req.containers == 0 || req.cores == 0 {
            return Err(ResourceError::EmptyRequest);
        }
        let inst = &self.cluster.spec().instance;
        let node_mem = self.node_usable_memory();
        let req_mem = req.memory_mib * 1024 * 1024;
        if req_mem > node_mem {
            return Err(ResourceError::ContainerTooLarge {
                memory_mib: req.memory_mib,
                cores: req.cores,
                node_memory_mib: node_mem / (1024 * 1024),
                node_cores: inst.vcpus,
            });
        }

        let alive = self.cluster.alive_nodes();
        let mut free_mem: Vec<u64> = vec![node_mem; alive.len()];
        let mut executors = Vec::with_capacity(req.containers as usize);
        let mut cursor = 0usize;
        let mut granted = 0u32;

        'outer: while granted < req.containers {
            // One full round-robin sweep; if nothing fits anywhere, stop.
            let mut placed = false;
            for _ in 0..alive.len() {
                let i = cursor % alive.len();
                cursor += 1;
                if free_mem[i] >= req_mem {
                    free_mem[i] -= req_mem;
                    executors.push(Executor {
                        id: granted,
                        node: alive[i],
                        cores: req.cores,
                        memory_bytes: req_mem,
                    });
                    granted += 1;
                    placed = true;
                    if granted == req.containers {
                        break 'outer;
                    }
                }
            }
            if !placed {
                return Err(ResourceError::ClusterExhausted {
                    granted,
                    requested: req.containers,
                });
            }
        }
        Ok(ExecutorLayout { executors })
    }

    /// Convenience: one executor per alive node using every core and all
    /// usable memory — the layout the non-auto-tuning experiments use.
    pub fn one_executor_per_node(&self) -> ExecutorLayout {
        let inst = &self.cluster.spec().instance;
        let mem = self.node_usable_memory();
        let executors = self
            .cluster
            .alive_nodes()
            .into_iter()
            .enumerate()
            .map(|(i, node)| Executor {
                id: i as u32,
                node,
                cores: inst.vcpus,
                memory_bytes: mem,
            })
            .collect();
        ExecutorLayout { executors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClusterSpec;

    fn rm(nodes: u32) -> ResourceManager {
        ResourceManager::new(Arc::new(Cluster::provision(ClusterSpec::m3_2xlarge(nodes))))
    }

    #[test]
    fn one_executor_per_node_uses_all_cores() {
        let rm = rm(6);
        let layout = rm.one_executor_per_node();
        assert_eq!(layout.num_executors(), 6);
        assert_eq!(layout.total_slots(), 48);
        assert_eq!(layout.nodes().len(), 6);
        // Each executor gets 0.9 of its node's memory.
        let node_memory = ClusterSpec::m3_2xlarge(6).instance.memory_bytes();
        for executor in layout.executors() {
            assert_eq!(executor.memory_bytes, (node_memory as f64 * 0.9) as u64);
        }
    }

    #[test]
    fn paper_container_configs_fit_36_nodes() {
        // Tables VII/VIII: 36 m3.2xlarge nodes; 42, 84, 126 containers.
        let rm = rm(36);
        for (req, slots) in [
            (ContainerRequest::paper_42(), 252),
            (ContainerRequest::paper_84(), 252),
            (ContainerRequest::paper_126(), 252),
        ] {
            let layout = rm.allocate(req).expect("paper config must fit");
            assert_eq!(layout.num_executors(), req.containers as usize);
            assert_eq!(layout.total_slots(), slots, "req {req:?}");
        }
    }

    #[test]
    fn round_robin_spreads_over_nodes() {
        let rm = rm(4);
        let layout = rm.allocate(ContainerRequest::new(4, 1024, 2)).unwrap();
        let nodes = layout.nodes();
        assert_eq!(nodes.len(), 4, "4 small containers land on 4 nodes");
    }

    #[test]
    fn oversized_container_rejected_by_memory() {
        let rm = rm(2);
        let err = rm
            .allocate(ContainerRequest::new(1, 64 * 1024, 4))
            .unwrap_err();
        assert!(matches!(err, ResourceError::ContainerTooLarge { .. }));
    }

    #[test]
    fn cores_ignored_by_default_like_yarn_default_calculator() {
        // 16 cores > 8 vcpus, but the default calculator packs by memory.
        let rm = rm(2);
        assert!(rm.allocate(ContainerRequest::new(1, 1024, 16)).is_ok());
    }

    #[test]
    fn exhaustion_reports_partial_grant() {
        // 27 GiB usable per node -> two 10 GiB containers on each of 2 nodes.
        let rm = rm(2);
        let err = rm
            .allocate(ContainerRequest::new(5, 10 * 1024, 1))
            .unwrap_err();
        assert_eq!(
            err,
            ResourceError::ClusterExhausted {
                granted: 4,
                requested: 5
            }
        );
    }

    #[test]
    fn memory_exhaustion_without_core_enforcement() {
        // 27 GiB usable per node; 3 × 10 GiB doesn't fit on one node.
        let rm = rm(1);
        let err = rm
            .allocate(ContainerRequest::new(3, 10 * 1024, 1))
            .unwrap_err();
        assert_eq!(
            err,
            ResourceError::ClusterExhausted {
                granted: 2,
                requested: 3
            }
        );
    }

    #[test]
    fn empty_request_rejected() {
        let rm = rm(1);
        assert_eq!(
            rm.allocate(ContainerRequest::new(0, 1024, 1)).unwrap_err(),
            ResourceError::EmptyRequest
        );
        assert_eq!(
            rm.allocate(ContainerRequest::new(1, 1024, 0)).unwrap_err(),
            ResourceError::EmptyRequest
        );
    }

    #[test]
    fn dead_nodes_excluded_from_allocation() {
        let cluster = Arc::new(Cluster::provision(ClusterSpec::m3_2xlarge(3)));
        cluster.kill_node(NodeId(1));
        let rm = ResourceManager::new(Arc::clone(&cluster));
        let layout = rm.one_executor_per_node();
        assert_eq!(layout.num_executors(), 2);
        assert!(!layout.nodes().contains(&NodeId(1)));
    }

    #[test]
    fn error_display_is_informative() {
        let msg = ResourceError::ClusterExhausted {
            granted: 1,
            requested: 5,
        }
        .to_string();
        assert!(msg.contains("granted 1 of 5"));
    }
}
