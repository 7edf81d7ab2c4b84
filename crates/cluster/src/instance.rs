//! Instance-type profiles.
//!
//! The paper benchmarks on Amazon EC2 `m3.2xlarge` instances (Table I:
//! Intel Xeon E5-2670 v2, 8 vCPU, 30 GiB memory, 2×80 GB SSD). An
//! [`InstanceType`] captures the capacities the simulator cares about;
//! bandwidth figures are nominal values for that hardware generation and
//! only influence virtual time, never computed statistics.

use serde::{Deserialize, Serialize};

/// Hardware profile of one cluster node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceType {
    /// EC2-style name, e.g. `"m3.2xlarge"`.
    pub name: &'static str,
    /// Number of virtual CPUs (task slots before executor packing).
    pub vcpus: u32,
    /// Main memory in MiB.
    pub memory_mib: u64,
    /// Local instance storage in GB (paper: 2×80 SSD).
    pub storage_gb: u64,
    /// Sequential local-disk bandwidth in bytes/second.
    pub disk_bandwidth: u64,
    /// Network bandwidth in bytes/second ("High" on m3.2xlarge ≈ 1 Gbit/s
    /// sustained per flow, ~125 MB/s).
    pub network_bandwidth: u64,
}

impl InstanceType {
    /// Memory in bytes.
    #[inline]
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.memory_mib * 1024 * 1024
    }
}

/// The paper's instance type (Table I).
pub const M3_2XLARGE: InstanceType = InstanceType {
    name: "m3.2xlarge",
    vcpus: 8,
    memory_mib: 30 * 1024,
    storage_gb: 160,
    disk_bandwidth: 450 * 1024 * 1024,
    network_bandwidth: 125 * 1024 * 1024,
};

/// A small profile handy for unit tests (2 cores, 1 GiB).
pub const TEST_SMALL: InstanceType = InstanceType {
    name: "test.small",
    vcpus: 2,
    memory_mib: 1024,
    storage_gb: 10,
    disk_bandwidth: 200 * 1024 * 1024,
    network_bandwidth: 100 * 1024 * 1024,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m3_2xlarge_matches_table_i() {
        assert_eq!(M3_2XLARGE.name, "m3.2xlarge");
        assert_eq!(M3_2XLARGE.vcpus, 8);
        assert_eq!(M3_2XLARGE.memory_mib, 30 * 1024);
        assert_eq!(M3_2XLARGE.storage_gb, 2 * 80);
    }

    #[test]
    fn memory_bytes_converts_mib() {
        assert_eq!(TEST_SMALL.memory_bytes(), 1024 * 1024 * 1024);
    }

    #[test]
    fn clone_and_eq() {
        let cloned = M3_2XLARGE.clone();
        assert_eq!(cloned, M3_2XLARGE);
        assert_ne!(cloned, TEST_SMALL);
    }
}
