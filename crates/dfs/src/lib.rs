//! In-memory model of an HDFS-like distributed file system.
//!
//! The paper's SparkScore pipeline begins with "Read input files from HDFS"
//! (Algorithm 1, step 1): genotype matrix, phenotype pairs, SNP weights and
//! SNP-sets are text files split into replicated blocks spread over the
//! datanodes, and Spark schedules input tasks onto nodes holding a local
//! replica. This crate reproduces that substrate:
//!
//! * [`block`] — block identity and payloads;
//! * [`text`] — the line-oriented input format (files are split into
//!   ~block-size chunks at line boundaries, like HDFS `TextInputFormat`
//!   with the simplification that records never straddle blocks);
//! * [`namenode`] — file → blocks → replica-locations metadata and the
//!   placement policy;
//! * [`datanode`] — per-node block stores that vanish when the node dies;
//! * [`Dfs`] — the facade the dataflow engine uses: write a text file,
//!   enumerate its blocks with locality hints, read a block from the best
//!   replica.
//!
//! Everything lives in host memory; "distribution" is metadata that the
//! virtual-time scheduler and fault injection act on.

pub mod block;
pub mod datanode;
pub mod namenode;
pub mod text;

use std::sync::Arc;

use parking_lot::RwLock;
use sparkscore_cluster::{Cluster, NodeId};

pub use block::{Block, BlockId};
pub use namenode::{FileMeta, Namenode, PlacementPolicy};
pub use text::{split_into_blocks, DEFAULT_BLOCK_SIZE};

use datanode::Datanode;

/// Errors surfaced by DFS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// No file registered under this path.
    FileNotFound(String),
    /// A file already exists under this path (DFS files are immutable).
    FileExists(String),
    /// Every replica of the block is on a dead node — with replication ≥ 2
    /// this needs multiple failures, mirroring real HDFS data loss.
    AllReplicasLost(BlockId),
    /// Replication factor is zero or exceeds the number of nodes.
    BadReplication { replication: usize, nodes: usize },
}

impl std::fmt::Display for DfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfsError::FileNotFound(p) => write!(f, "file not found: {p}"),
            DfsError::FileExists(p) => write!(f, "file already exists: {p}"),
            DfsError::AllReplicasLost(b) => write!(f, "all replicas lost for block {b:?}"),
            DfsError::BadReplication { replication, nodes } => {
                write!(
                    f,
                    "replication {replication} invalid for cluster size {nodes}"
                )
            }
        }
    }
}

impl std::error::Error for DfsError {}

/// The distributed file system facade.
pub struct Dfs {
    cluster: Arc<Cluster>,
    namenode: Namenode,
    datanodes: Vec<Datanode>,
    block_size: usize,
    replication: usize,
    /// Protects multi-step write (allocate + store) against concurrent
    /// writers of the same path.
    write_lock: RwLock<()>,
}

impl Dfs {
    /// Create a DFS over `cluster` with the given block size (bytes) and
    /// replication factor (HDFS default is 3, clamped to the cluster size).
    pub fn new(
        cluster: Arc<Cluster>,
        block_size: usize,
        replication: usize,
    ) -> Result<Self, DfsError> {
        assert!(block_size > 0, "block size must be positive");
        let nodes = cluster.num_nodes();
        if replication == 0 || replication > nodes {
            return Err(DfsError::BadReplication { replication, nodes });
        }
        let datanodes = (0..nodes).map(|_| Datanode::new()).collect();
        Ok(Dfs {
            cluster,
            namenode: Namenode::new(PlacementPolicy::RoundRobin),
            datanodes,
            block_size,
            replication,
            write_lock: RwLock::new(()),
        })
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Write `contents` as an immutable line-oriented text file.
    pub fn write_text(&self, path: &str, contents: &str) -> Result<FileMeta, DfsError> {
        let _guard = self.write_lock.write();
        if self.namenode.lookup(path).is_some() {
            return Err(DfsError::FileExists(path.to_string()));
        }
        let chunks = split_into_blocks(contents, self.block_size);
        let alive = self.cluster.alive_nodes();
        if alive.len() < self.replication {
            return Err(DfsError::BadReplication {
                replication: self.replication,
                nodes: alive.len(),
            });
        }
        let mut blocks = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let data: Arc<[u8]> = Arc::from(chunk.into_bytes().into_boxed_slice());
            let (id, replicas) = self.namenode.allocate_block(&alive, self.replication);
            for &node in &replicas {
                self.datanodes[node.index()].store(id, Arc::clone(&data));
            }
            blocks.push((id, data.len() as u64));
        }
        Ok(self.namenode.register_file(path, blocks))
    }

    /// Metadata for a file.
    pub fn stat(&self, path: &str) -> Result<FileMeta, DfsError> {
        self.namenode
            .lookup(path)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))
    }

    /// All registered paths, sorted.
    pub fn list_files(&self) -> Vec<String> {
        self.namenode.list_files()
    }

    /// Alive replica locations for a block (dead nodes filtered out).
    pub fn block_locations(&self, block: BlockId) -> Vec<NodeId> {
        self.namenode
            .replicas(block)
            .into_iter()
            .filter(|&n| self.cluster.node(n).is_alive())
            .collect()
    }

    /// Read a block, preferring a replica on `reader` if given. Returns the
    /// payload and the node that served it.
    pub fn read_block(
        &self,
        block: BlockId,
        reader: Option<NodeId>,
    ) -> Result<(Arc<[u8]>, NodeId), DfsError> {
        let locations = self.block_locations(block);
        let serving = match reader {
            Some(r) if locations.contains(&r) => Some(r),
            _ => locations.first().copied(),
        };
        let Some(node) = serving else {
            return Err(DfsError::AllReplicasLost(block));
        };
        match self.datanodes[node.index()].fetch(block) {
            Some(data) => Ok((data, node)),
            // Metadata said the replica exists but the store lost it (should
            // not happen outside of node-death races) — treat as loss.
            None => Err(DfsError::AllReplicasLost(block)),
        }
    }

    /// Read an entire file back as a `String` (joins blocks in order).
    pub fn read_to_string(&self, path: &str) -> Result<String, DfsError> {
        let meta = self.stat(path)?;
        let mut out = String::with_capacity(meta.total_bytes as usize);
        for &(block, _) in &meta.blocks {
            let (data, _) = self.read_block(block, None)?;
            out.push_str(std::str::from_utf8(&data).expect("text files are UTF-8"));
        }
        Ok(out)
    }

    /// Drop every block replica stored on `node` (called when a node dies;
    /// the node must already be marked dead on the cluster for locality
    /// filtering to agree). Returns the number of replicas dropped.
    pub fn drop_node_replicas(&self, node: NodeId) -> usize {
        self.datanodes[node.index()].clear()
    }

    /// Total bytes stored across all datanodes (counting replicas).
    pub fn stored_bytes(&self) -> u64 {
        self.datanodes.iter().map(|d| d.stored_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkscore_cluster::ClusterSpec;

    fn dfs(nodes: u32, block_size: usize, repl: usize) -> Dfs {
        let cluster = Arc::new(Cluster::provision(ClusterSpec::test_small(nodes)));
        Dfs::new(cluster, block_size, repl).unwrap()
    }

    fn lines(n: usize) -> String {
        (0..n).map(|i| format!("record-{i}\n")).collect()
    }

    #[test]
    fn write_then_read_round_trips() {
        let fs = dfs(3, 64, 2);
        let text = lines(20);
        let meta = fs.write_text("/data/geno.txt", &text).unwrap();
        assert!(meta.blocks.len() > 1, "64-byte blocks must split 20 lines");
        assert_eq!(fs.read_to_string("/data/geno.txt").unwrap(), text);
    }

    #[test]
    fn files_are_immutable() {
        let fs = dfs(2, 1024, 1);
        fs.write_text("/a", "x\n").unwrap();
        assert_eq!(
            fs.write_text("/a", "y\n").unwrap_err(),
            DfsError::FileExists("/a".into())
        );
    }

    #[test]
    fn missing_file_errors() {
        let fs = dfs(1, 1024, 1);
        assert_eq!(
            fs.stat("/nope").unwrap_err(),
            DfsError::FileNotFound("/nope".into())
        );
    }

    #[test]
    fn replication_spreads_blocks() {
        let fs = dfs(4, 32, 3);
        let meta = fs.write_text("/f", &lines(10)).unwrap();
        for &(block, _) in &meta.blocks {
            assert_eq!(fs.block_locations(block).len(), 3);
        }
        // Replicas of one block are on distinct nodes.
        let locs = fs.block_locations(meta.blocks[0].0);
        let mut dedup = locs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), locs.len());
    }

    #[test]
    fn read_prefers_local_replica() {
        let fs = dfs(4, 1024, 2);
        let meta = fs.write_text("/f", &lines(3)).unwrap();
        let block = meta.blocks[0].0;
        let locs = fs.block_locations(block);
        let (_, served_by) = fs.read_block(block, Some(locs[1])).unwrap();
        assert_eq!(served_by, locs[1]);
        // A reader holding no replica gets served remotely by some replica.
        let non_replica = (0..4).map(NodeId).find(|n| !locs.contains(n)).unwrap();
        let (_, served_by) = fs.read_block(block, Some(non_replica)).unwrap();
        assert!(locs.contains(&served_by));
    }

    #[test]
    fn single_node_death_survivable_with_replication() {
        let fs = dfs(3, 32, 2);
        let text = lines(12);
        fs.write_text("/f", &text).unwrap();
        fs.cluster().kill_node(NodeId(0));
        fs.drop_node_replicas(NodeId(0));
        assert_eq!(fs.read_to_string("/f").unwrap(), text);
    }

    #[test]
    fn losing_all_replicas_is_reported() {
        let fs = dfs(2, 1024, 2);
        let meta = fs.write_text("/f", "a\n").unwrap();
        for n in [NodeId(0), NodeId(1)] {
            fs.cluster().kill_node(n);
            fs.drop_node_replicas(n);
        }
        assert_eq!(
            fs.read_block(meta.blocks[0].0, None).unwrap_err(),
            DfsError::AllReplicasLost(meta.blocks[0].0)
        );
    }

    #[test]
    fn bad_replication_rejected() {
        let cluster = Arc::new(Cluster::provision(ClusterSpec::test_small(2)));
        assert!(matches!(
            Dfs::new(Arc::clone(&cluster), 1024, 3),
            Err(DfsError::BadReplication { .. })
        ));
        assert!(matches!(
            Dfs::new(cluster, 1024, 0),
            Err(DfsError::BadReplication { .. })
        ));
    }

    #[test]
    fn stored_bytes_counts_replicas() {
        let fs = dfs(3, 1024, 3);
        fs.write_text("/f", "abcd\n").unwrap();
        assert_eq!(fs.stored_bytes(), 3 * 5);
    }

    #[test]
    fn list_files_sorted() {
        let fs = dfs(1, 1024, 1);
        fs.write_text("/b", "1\n").unwrap();
        fs.write_text("/a", "2\n").unwrap();
        assert_eq!(fs.list_files(), vec!["/a".to_string(), "/b".to_string()]);
    }

    #[test]
    fn empty_file_has_no_blocks() {
        let fs = dfs(1, 1024, 1);
        let meta = fs.write_text("/empty", "").unwrap();
        assert!(meta.blocks.is_empty());
        assert_eq!(fs.read_to_string("/empty").unwrap(), "");
    }
}
