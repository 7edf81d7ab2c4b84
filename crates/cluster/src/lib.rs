//! Simulated compute cluster for the SparkScore reproduction.
//!
//! The original SparkScore system ran on Amazon EMR clusters of `m3.2xlarge`
//! EC2 instances managed by YARN. This crate models that substrate:
//!
//! * [`instance`] — instance-type profiles (vCPUs, memory, storage, network),
//!   including the paper's `m3.2xlarge` (Table I).
//! * [`topology`] — a cluster of nodes with liveness tracking, the unit the
//!   task scheduler, DFS placement, and fault injection operate on.
//! * [`resource`] — a YARN-like resource manager that packs container
//!   (executor) requests onto nodes and yields the executor/slot layout
//!   (`--num-executors/--executor-memory/--executor-cores` in the paper's
//!   auto-tuning experiment, Tables VII/VIII).
//! * [`cost`] — the fixed rates translating work counted by a task
//!   (records processed, bytes read/shuffled) into virtual nanoseconds.
//! * [`vtime`] — a deterministic list scheduler that assigns task costs to
//!   the cluster's virtual slots and computes job makespans; this is what
//!   reproduces the paper's *cluster scaling* results on a single host.
//! * [`fault`] — declarative fault plans (node kills, block drops) consumed
//!   by the dataflow engine to exercise lineage recovery.
//! * [`pricing`] — pay-as-you-go cost estimates at the paper's 2016 EMR
//!   rates, so harnesses can report the dollar trade-off between methods.
//!
//! Real numeric work always runs on the host; virtual time is bookkeeping
//! layered on top, so injected faults or changed cluster shapes never alter
//! computed statistics — only the simulated clock.

pub mod cost;
pub mod fault;
pub mod instance;
pub mod pricing;
pub mod resource;
pub mod topology;
pub mod vtime;

pub use fault::{FaultEvent, FaultPlan};
pub use instance::{InstanceType, M3_2XLARGE};
pub use pricing::{estimate_cost, CostEstimate};
pub use resource::{ContainerRequest, ExecutorLayout, ResourceError, ResourceManager};
pub use topology::{Cluster, ClusterSpec, Node, NodeId};
pub use vtime::{ScheduledTask, VirtualClock, VirtualScheduler, VirtualTask};
