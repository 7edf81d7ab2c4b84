//! Datanode: one node's block store.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::block::BlockId;

/// Per-node replica store. All replicas on the node vanish together when
/// the node dies ([`Datanode::clear`]).
#[derive(Debug, Default)]
pub struct Datanode {
    blocks: RwLock<HashMap<BlockId, Arc<[u8]>>>,
}

impl Datanode {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn store(&self, id: BlockId, data: Arc<[u8]>) {
        self.blocks.write().insert(id, data);
    }

    pub fn fetch(&self, id: BlockId) -> Option<Arc<[u8]>> {
        self.blocks.read().get(&id).cloned()
    }

    /// Drop every replica; returns how many were dropped.
    pub fn clear(&self) -> usize {
        let mut guard = self.blocks.write();
        let n = guard.len();
        guard.clear();
        n
    }

    pub fn stored_bytes(&self) -> u64 {
        self.blocks.read().values().map(|b| b.len() as u64).sum()
    }

    pub fn num_blocks(&self) -> usize {
        self.blocks.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &str) -> Arc<[u8]> {
        Arc::from(s.as_bytes().to_vec().into_boxed_slice())
    }

    #[test]
    fn store_fetch_contains() {
        let dn = Datanode::new();
        dn.store(BlockId(1), bytes("abc"));
        assert_eq!(&*dn.fetch(BlockId(1)).unwrap(), b"abc");
        assert!(dn.fetch(BlockId(2)).is_none());
    }

    #[test]
    fn clear_reports_count() {
        let dn = Datanode::new();
        dn.store(BlockId(1), bytes("a"));
        dn.store(BlockId(2), bytes("bc"));
        assert_eq!(dn.stored_bytes(), 3);
        assert_eq!(dn.num_blocks(), 2);
        assert_eq!(dn.clear(), 2);
        assert_eq!(dn.num_blocks(), 0);
        assert_eq!(dn.stored_bytes(), 0);
    }
}
