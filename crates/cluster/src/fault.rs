//! Declarative fault plans.
//!
//! Spark's headline resilience property — and the one the paper leans on
//! ("harnesses the fault-tolerant features of Spark") — is that lost
//! partitions are recomputed from lineage rather than failing the job.
//! A [`FaultPlan`] describes faults to inject while a job runs; the dataflow
//! engine polls it at task boundaries and applies the resulting
//! [`FaultEvent`]s (killing a node, dropping cached blocks or shuffle
//! outputs). Tests then assert that results are unchanged and that the
//! engine's recompute counters moved.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::topology::NodeId;

/// A fault the engine must apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Kill this node: drop its cached blocks and shuffle outputs, remove
    /// its executors from scheduling.
    KillNode(NodeId),
    /// Drop one cached block (the engine picks the least-recently used).
    DropCachedBlock,
    /// Drop one map-output (shuffle) file.
    DropShuffleOutput,
}

/// Faults to inject, keyed on the global count of completed tasks.
///
/// All triggers are one-shot or periodic in that count. The count is one
/// `AtomicU64` shared by every task of every stage, so which task boundary
/// fires a trigger is predictable only when tasks complete in one order:
/// at `host_threads(1)`. With more host threads the n-th completion is
/// whichever task gets there first: each firing still lands on exactly one
/// task, but not on one a test can name (ROADMAP item 11 asks for triggers
/// that replay).
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Kill `node` once `after_tasks` tasks have completed.
    kill_node: Option<(NodeId, u64)>,
    kill_fired: AtomicBool,
    /// Every `n` completed tasks, drop a cached block.
    drop_cached_every: Option<u64>,
    /// Every `n` completed tasks, drop a shuffle output.
    drop_shuffle_every: Option<u64>,
    tasks_seen: AtomicU64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Kill `node` after `after_tasks` completed tasks.
    pub fn kill_node_after(node: NodeId, after_tasks: u64) -> Self {
        FaultPlan {
            kill_node: Some((node, after_tasks)),
            ..Self::default()
        }
    }

    /// Builder: drop one cached block every `n` completed tasks.
    pub fn with_cached_block_loss_every(mut self, n: u64) -> Self {
        assert!(n > 0, "period must be positive");
        self.drop_cached_every = Some(n);
        self
    }

    /// Builder: drop one shuffle output every `n` completed tasks.
    pub fn with_shuffle_loss_every(mut self, n: u64) -> Self {
        assert!(n > 0, "period must be positive");
        self.drop_shuffle_every = Some(n);
        self
    }

    /// Whether this plan can ever fire.
    pub fn is_active(&self) -> bool {
        self.kill_node.is_some()
            || self.drop_cached_every.is_some()
            || self.drop_shuffle_every.is_some()
    }

    /// Record one completed task; returns the faults that fire at this
    /// boundary. Thread-safe; each event fires on exactly one caller.
    pub fn on_task_complete(&self) -> Vec<FaultEvent> {
        if !self.is_active() {
            return Vec::new();
        }
        let count = self.tasks_seen.fetch_add(1, Ordering::AcqRel) + 1;
        let mut events = Vec::new();
        if let Some((node, after)) = self.kill_node {
            if count >= after && !self.kill_fired.swap(true, Ordering::AcqRel) {
                events.push(FaultEvent::KillNode(node));
            }
        }
        if let Some(n) = self.drop_cached_every {
            if count.is_multiple_of(n) {
                events.push(FaultEvent::DropCachedBlock);
            }
        }
        if let Some(n) = self.drop_shuffle_every {
            if count.is_multiple_of(n) {
                events.push(FaultEvent::DropShuffleOutput);
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for _ in 0..100 {
            assert!(plan.on_task_complete().is_empty());
        }
        // Inactive plans skip counting entirely.
        assert_eq!(plan.tasks_seen.load(Ordering::Acquire), 0);
    }

    #[test]
    fn node_kill_fires_exactly_once() {
        let plan = FaultPlan::kill_node_after(NodeId(2), 3);
        assert!(plan.on_task_complete().is_empty()); // 1
        assert!(plan.on_task_complete().is_empty()); // 2
        assert_eq!(
            plan.on_task_complete(),
            vec![FaultEvent::KillNode(NodeId(2))]
        ); // 3
        assert!(plan.on_task_complete().is_empty()); // 4: one-shot
    }

    #[test]
    fn periodic_cache_loss() {
        let plan = FaultPlan::none().with_cached_block_loss_every(2);
        let fired: usize = (0..10).map(|_| plan.on_task_complete().len()).sum();
        assert_eq!(fired, 5);
    }

    #[test]
    fn combined_events_on_same_boundary() {
        let plan = FaultPlan::kill_node_after(NodeId(0), 2)
            .with_cached_block_loss_every(2)
            .with_shuffle_loss_every(2);
        assert!(plan.on_task_complete().is_empty());
        let events = plan.on_task_complete();
        assert_eq!(events.len(), 3);
        assert!(events.contains(&FaultEvent::KillNode(NodeId(0))));
        assert!(events.contains(&FaultEvent::DropCachedBlock));
        assert!(events.contains(&FaultEvent::DropShuffleOutput));
    }

    #[test]
    fn concurrent_counting_fires_kill_once() {
        use std::sync::Arc;
        let plan = Arc::new(FaultPlan::kill_node_after(NodeId(1), 50));
        let mut handles = Vec::new();
        let total = Arc::new(AtomicU64::new(0));
        for _ in 0..4 {
            let plan = Arc::clone(&plan);
            let total = Arc::clone(&total);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let kills = plan
                        .on_task_complete()
                        .iter()
                        .filter(|e| matches!(e, FaultEvent::KillNode(_)))
                        .count();
                    total.fetch_add(kills as u64, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 1);
        assert_eq!(plan.tasks_seen.load(Ordering::Acquire), 400);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = FaultPlan::none().with_cached_block_loss_every(0);
    }
}
