//! A Spark-like dataflow engine, built from scratch for the SparkScore
//! reproduction.
//!
//! The paper implements its algorithms on Apache Spark and leans on four of
//! Spark's properties: lazy partitioned datasets with keyed operators,
//! explicit in-memory **caching** (the Monte Carlo method's `U` RDD),
//! **lineage-based fault tolerance**, and cluster task scheduling with data
//! locality. This crate provides all four over the simulated cluster and
//! DFS substrates:
//!
//! * [`Dataset`] — the operators the paper's algorithms, the resampling
//!   grid and the service use: lazy transformations (`map`, `filter`,
//!   `flat_map`, `map_partitions`, `key_by`, and keyed `reduce_by_key`,
//!   `combine_by_key`, `join`), `cache`, and eager actions (`collect`,
//!   `count`, `reduce`, `fold`, `take`, `grid_cells`).
//! * [`Engine`] — builds datasets (`parallelize`, `text_file`, and
//!   `text_file_with` for a caller's own block parser), runs jobs
//!   (stage planning at shuffle boundaries, cache-aware lineage pruning),
//!   broadcasts read-only values, applies fault plans, and accounts
//!   deterministic **virtual time** on the configured cluster shape.
//! * [`Broadcast`] — read-only values shipped once per node.
//!
//! # Example
//!
//! ```
//! use sparkscore_cluster::ClusterSpec;
//! use sparkscore_rdd::Engine;
//!
//! let engine = Engine::builder(ClusterSpec::m3_2xlarge(4)).build();
//! let squares = engine
//!     .parallelize((0u64..1000).collect::<Vec<_>>(), 8)
//!     .map(|x| x * x)
//!     .cache();
//! assert_eq!(squares.count(), 1000);
//! let total: u64 = squares.reduce(|a, b| a + b).unwrap();
//! assert_eq!(total, (0u64..1000).map(|x| x * x).sum::<u64>());
//! ```

// Closure trait objects (`Arc<dyn Fn(...) -> ... + Send + Sync>`) are the
// native vocabulary of a dataflow engine; aliasing them away would hide the
// one piece of information that matters at each site.
#![allow(clippy::type_complexity)]

pub mod cache;
pub mod context;
pub mod counters;
pub mod dataset;
pub mod engine;
pub mod estimate;
pub mod events;
pub mod gemm;
pub mod ledger;
pub mod meta;
pub mod metrics;
pub mod ops;
pub mod pool;
pub mod profiler;
pub mod recorder;
pub mod service;
pub mod shuffle;
mod wire;

pub use context::TaskCtx;
pub use counters::{TaskCounter, TaskCounters};
pub use dataset::Dataset;
pub use engine::{Broadcast, Engine, EngineBuilder};
pub use estimate::EstimateSize;
pub use events::{
    EngineEvent, EventBus, EventListener, EventLogListener, FaultDetail, MemoryEventListener,
    RegistryListener, SpanContext, StageKind, TaskMetrics,
};
pub use gemm::{plan_tiles, BroadcastTileCache, ReplicateTile, MAX_FUSED_TILES};
pub use ledger::{MemCategory, MemReading, MemoryLedger};
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use ops::shuffled::Aggregator;
pub use ops::Data;
pub use pool::{ParticipantSnapshot, ParticipantState, PoolDiagnostics, PoolSnapshot};
pub use profiler::{PoolProfile, PoolProfiler, ProfilerBuilder};
pub use recorder::{set_thread_tenant, FlightRecorder, JobStatus};
pub use service::{
    AdmissionQueue, JobInfo, JobService, JobServiceBuilder, JobState, QueueStats, QueueStatus,
    RejectReason, ServiceConfig, ShutdownMode, TenantConfig, TenantStatus,
};
pub use shuffle::SHUFFLE_SHARDS;

/// Identifier of one operator in a lineage graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

/// Identifier of one shuffle dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShuffleId(pub u64);
