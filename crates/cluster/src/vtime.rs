//! Virtual-time scheduling.
//!
//! The reproduction cannot rent 6–36 EC2 nodes, so cluster-scaling results
//! (paper Figs 6 and 7) come from a deterministic simulation: every task's
//! cost (its counted work at the rates in [`crate::cost`]) is list-scheduled
//! onto the virtual slots of the configured
//! [`crate::resource::ExecutorLayout`], with locality-aware input-read
//! costs, and the job's *virtual duration* is the resulting makespan. A [`VirtualClock`] accumulates makespans across the
//! jobs of an analysis (e.g. one observed pass + B resampling iterations).
//!
//! List scheduling (greedy earliest-finish-time) is the same policy family
//! as Spark's FIFO task scheduler with delay scheduling collapsed into the
//! finish-time comparison: a slot on a node holding the task's input blocks
//! reads at disk bandwidth, any other slot pays the network transfer, so
//! local slots win whenever they are not badly backlogged.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cost::{transfer_ns, REMOTE_FETCH_LATENCY_NS, TASK_OVERHEAD_NS};
use crate::instance::InstanceType;
use crate::resource::ExecutorLayout;
use crate::topology::NodeId;

/// A unit of schedulable work, produced by the dataflow engine after the
/// task has really executed (costs are known, results are already computed).
#[derive(Debug, Clone)]
pub struct VirtualTask {
    /// Pure compute cost in virtual ns ([`crate::cost::compute_ns`] of the
    /// task's counted work units).
    pub compute_ns: u64,
    /// Bytes of input read from the DFS or a cached block.
    pub input_bytes: u64,
    /// Nodes holding a local replica of the input (empty → no preference,
    /// input is either tiny or already partitioned in executor memory).
    pub preferred_nodes: Vec<NodeId>,
    /// Bytes fetched from shuffle outputs (always charged at network rate
    /// except for the fraction residing on the chosen node, which we
    /// approximate as `1/num_nodes` local).
    pub shuffle_bytes: u64,
}

/// Where and when a task ran in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledTask {
    pub node: NodeId,
    pub executor: u32,
    pub start_ns: u64,
    pub finish_ns: u64,
    /// Whether the input was read from a local replica.
    pub input_local: bool,
}

/// Outcome of scheduling one batch (stage) of tasks.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    pub tasks: Vec<ScheduledTask>,
    /// Stage makespan in virtual ns (0 for an empty stage).
    pub makespan_ns: u64,
    /// How many tasks read their input locally.
    pub local_reads: usize,
}

/// Greedy earliest-finish-time list scheduler over an executor layout.
#[derive(Debug)]
pub struct VirtualScheduler {
    /// One entry per slot: (executor index, node, next-free virtual time).
    slots: Vec<(u32, NodeId, u64)>,
    disk_bw: u64,
    net_bw: u64,
    num_nodes: usize,
    /// Jobs opened and not yet closed.
    open_jobs: usize,
    /// Horizon up to which job windows have been credited to the clock.
    credited_ns: u64,
}

impl VirtualScheduler {
    pub fn new(layout: &ExecutorLayout, instance: &InstanceType) -> Self {
        let mut slots = Vec::with_capacity(layout.total_slots());
        for exec in layout.executors() {
            for _ in 0..exec.cores {
                slots.push((exec.id, exec.node, 0u64));
            }
        }
        assert!(!slots.is_empty(), "layout provides no task slots");
        VirtualScheduler {
            slots,
            disk_bw: instance.disk_bandwidth,
            net_bw: instance.network_bandwidth,
            num_nodes: layout.nodes().len().max(1),
            open_jobs: 0,
            credited_ns: 0,
        }
    }

    fn task_duration(&self, task: &VirtualTask, node: NodeId) -> (u64, bool) {
        let local = task.preferred_nodes.is_empty() || task.preferred_nodes.contains(&node);
        let input_ns = if task.input_bytes == 0 {
            0
        } else if local {
            transfer_ns(task.input_bytes, self.disk_bw)
        } else {
            REMOTE_FETCH_LATENCY_NS + transfer_ns(task.input_bytes, self.net_bw)
        };
        // Shuffle reads: approximately (n-1)/n of the bytes cross the
        // network on an n-node cluster.
        let shuffle_ns = if task.shuffle_bytes == 0 {
            0
        } else {
            let remote = task.shuffle_bytes * (self.num_nodes as u64 - 1) / self.num_nodes as u64;
            let local_bytes = task.shuffle_bytes - remote;
            transfer_ns(remote, self.net_bw) + transfer_ns(local_bytes, self.disk_bw)
        };
        (
            TASK_OVERHEAD_NS + task.compute_ns + input_ns + shuffle_ns,
            local && task.input_bytes > 0,
        )
    }

    /// Schedule a batch of tasks that may all run concurrently (one stage).
    /// Slot backlogs carry over from previous calls, so successive stages
    /// pipeline onto the same virtual slots.
    pub fn schedule(&mut self, tasks: &[VirtualTask]) -> ScheduleOutcome {
        let stage_start = self.slots.iter().map(|s| s.2).min().unwrap_or(0);
        let mut out = Vec::with_capacity(tasks.len());
        let mut local_reads = 0usize;
        for task in tasks {
            // Pick the slot that finishes this task earliest.
            let mut best: Option<(usize, u64, u64, bool)> = None;
            for (i, &(_exec, node, avail)) in self.slots.iter().enumerate() {
                let (dur, local) = self.task_duration(task, node);
                let finish = avail + dur;
                let better = match best {
                    None => true,
                    Some((_, _, best_finish, _)) => finish < best_finish,
                };
                if better {
                    best = Some((i, avail, finish, local));
                }
            }
            let (slot_idx, start, finish, local) = best.expect("scheduler has at least one slot");
            self.slots[slot_idx].2 = finish;
            if local {
                local_reads += 1;
            }
            out.push(ScheduledTask {
                node: self.slots[slot_idx].1,
                executor: self.slots[slot_idx].0,
                start_ns: start,
                finish_ns: finish,
                input_local: local,
            });
        }
        let end = out.iter().map(|t| t.finish_ns).max().unwrap_or(stage_start);
        ScheduleOutcome {
            makespan_ns: end.saturating_sub(stage_start),
            tasks: out,
            local_reads,
        }
    }

    /// Remove the slots of a node that died mid-job; pending backlogs on
    /// other slots are kept. Refuses (returning `false`) when the node holds
    /// the only remaining slots — the engine keeps limping on the last node
    /// rather than aborting, matching a Spark driver that never schedules
    /// onto the lost executor again.
    pub fn remove_node_checked(&mut self, node: NodeId) -> bool {
        let remaining = self.slots.iter().filter(|&&(_, n, _)| n != node).count();
        if remaining == 0 {
            return false;
        }
        self.slots.retain(|&(_, n, _)| n != node);
        true
    }

    /// Current virtual time at which all slots are free (job end).
    pub fn horizon_ns(&self) -> u64 {
        self.slots.iter().map(|s| s.2).max().unwrap_or(0)
    }

    /// Open a job's window: synchronize every slot to the horizon. A
    /// driver submits jobs sequentially, so a new job's tasks cannot start
    /// before the previous job's last task finished — without this, small
    /// jobs would hide inside the backlog of earlier wide stages and read
    /// as free.
    pub fn open_job(&mut self) {
        let horizon = self.horizon_ns();
        for slot in &mut self.slots {
            slot.2 = horizon;
        }
        if self.open_jobs == 0 {
            self.credited_ns = horizon;
        }
        self.open_jobs += 1;
    }

    /// Close a job's window and return the virtual time it adds to the
    /// clock: how far the horizon has moved past the last credit (or past
    /// the job's opening, if no other job was open then). Each horizon
    /// interval inside some job's window is credited exactly once, to the
    /// first job that closes after it. With one driver that is each job's
    /// own makespan; when concurrent drivers' windows overlap, the clock
    /// advances by their union, not by the sum of their windows.
    pub fn close_job(&mut self) -> u64 {
        self.open_jobs -= 1;
        let horizon = self.horizon_ns();
        let credit = horizon.saturating_sub(self.credited_ns);
        self.credited_ns = self.credited_ns.max(horizon);
        credit
    }
}

/// Monotonic accumulator of virtual nanoseconds across jobs/stages.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ns: AtomicU64,
}

impl VirtualClock {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn advance(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn now_secs(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TEST_SMALL;
    use crate::resource::ResourceManager;
    use crate::topology::{Cluster, ClusterSpec};
    use std::sync::Arc;

    fn sched(nodes: u32) -> VirtualScheduler {
        let cluster = Arc::new(Cluster::provision(ClusterSpec::test_small(nodes)));
        let layout = ResourceManager::new(Arc::clone(&cluster)).one_executor_per_node();
        VirtualScheduler::new(&layout, &TEST_SMALL)
    }

    fn compute_only(compute_ns: u64) -> VirtualTask {
        VirtualTask {
            compute_ns,
            input_bytes: 0,
            preferred_nodes: Vec::new(),
            shuffle_bytes: 0,
        }
    }

    fn flat_tasks(n: usize, compute_ns: u64) -> Vec<VirtualTask> {
        (0..n).map(|_| compute_only(compute_ns)).collect()
    }

    #[test]
    fn slots_match_layout() {
        assert_eq!(sched(3).slots.len(), 6); // 3 nodes × 2 cores
    }

    #[test]
    fn single_task_duration_includes_overhead() {
        let mut s = sched(1);
        let out = s.schedule(&flat_tasks(1, 1_000_000));
        assert_eq!(out.makespan_ns, 1_000_000 + TASK_OVERHEAD_NS);
    }

    #[test]
    fn perfect_parallelism_within_slots() {
        let mut s = sched(2); // 4 slots
        let out = s.schedule(&flat_tasks(4, 10_000_000));
        let one = 10_000_000 + TASK_OVERHEAD_NS;
        assert_eq!(
            out.makespan_ns, one,
            "4 equal tasks on 4 slots take 1 task-time"
        );
    }

    #[test]
    fn oversubscription_serializes_waves() {
        let mut s = sched(1); // 2 slots
        let out = s.schedule(&flat_tasks(4, 10_000_000));
        let one = 10_000_000 + TASK_OVERHEAD_NS;
        assert_eq!(out.makespan_ns, 2 * one, "4 tasks on 2 slots = 2 waves");
    }

    #[test]
    fn more_nodes_never_slower() {
        let tasks = flat_tasks(64, 5_000_000);
        let m6 = sched(6).schedule(&tasks).makespan_ns;
        let m12 = sched(12).schedule(&tasks).makespan_ns;
        let m18 = sched(18).schedule(&tasks).makespan_ns;
        assert!(m12 <= m6);
        assert!(m18 <= m12);
        assert!(m18 < m6, "18 nodes must beat 6 on 64 tasks");
    }

    #[test]
    fn locality_preferred_when_available() {
        let mut s = sched(2);
        let task = VirtualTask {
            compute_ns: 1_000_000,
            input_bytes: 100 * 1024 * 1024,
            preferred_nodes: vec![NodeId(1)],
            shuffle_bytes: 0,
        };
        let out = s.schedule(std::slice::from_ref(&task));
        assert_eq!(out.tasks[0].node, NodeId(1));
        assert!(out.tasks[0].input_local);
        assert_eq!(out.local_reads, 1);
    }

    #[test]
    fn remote_read_costs_more() {
        // One node only, input lives elsewhere: remote read at network bw.
        let mut local = sched(1);
        let mut remote = sched(1);
        let bytes = 200 * 1024 * 1024u64;
        let t_local = VirtualTask {
            compute_ns: 0,
            input_bytes: bytes,
            preferred_nodes: vec![NodeId(0)],
            shuffle_bytes: 0,
        };
        let t_remote = VirtualTask {
            preferred_nodes: vec![NodeId(99)], // not in this cluster
            ..t_local.clone()
        };
        let m_local = local.schedule(std::slice::from_ref(&t_local)).makespan_ns;
        let m_remote = remote.schedule(std::slice::from_ref(&t_remote)).makespan_ns;
        assert!(
            m_remote > m_local,
            "network read ({m_remote}) must cost more than disk read ({m_local})"
        );
    }

    #[test]
    fn backlog_carries_across_stages() {
        let mut s = sched(1);
        let first = s.schedule(&flat_tasks(2, 10_000_000));
        let second = s.schedule(&flat_tasks(2, 10_000_000));
        assert!(s.horizon_ns() >= first.makespan_ns + second.makespan_ns);
    }

    #[test]
    fn remove_node_drops_slots() {
        let mut s = sched(2);
        assert!(s.remove_node_checked(NodeId(0)));
        assert_eq!(s.slots.len(), 2);
        let out = s.schedule(&flat_tasks(2, 1_000_000));
        assert!(out.tasks.iter().all(|t| t.node == NodeId(1)));
        // The last node's slots stay.
        assert!(!s.remove_node_checked(NodeId(1)));
        assert_eq!(s.slots.len(), 2);
    }

    #[test]
    fn clock_accumulates() {
        let clock = VirtualClock::new();
        clock.advance(1_500_000_000);
        clock.advance(500_000_000);
        assert_eq!(clock.now_ns(), 2_000_000_000);
        assert!((clock.now_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_prevents_backfill_into_prior_jobs() {
        let mut s = sched(1); // 2 slots
                              // A lopsided stage: one long task, one short → slot 2 idles.
        let long = compute_only(100_000_000);
        let short = compute_only(1_000_000);
        s.schedule(&[long, short]);
        let horizon = s.horizon_ns();
        // Without a barrier a tiny follow-up task would hide in the idle
        // slot and not move the horizon; with it, it must.
        s.open_job();
        s.schedule(&[compute_only(1_000_000)]);
        assert!(
            s.horizon_ns() > horizon,
            "post-barrier work must extend the horizon"
        );
    }

    #[test]
    fn overlapping_job_windows_credit_their_union_once() {
        let mut s = sched(1);
        let stage = flat_tasks(2, 10_000_000);
        s.open_job(); // A
        s.schedule(&stage);
        s.open_job(); // B opens while A is running ...
        s.schedule(&stage);
        let b = s.close_job(); // ... and closes first
        s.schedule(&stage);
        let a = s.close_job();
        assert_eq!(a + b, s.horizon_ns(), "every interval credited once");
        // A lone job later is credited its own window only.
        let before = s.horizon_ns();
        s.open_job();
        s.schedule(&stage);
        assert_eq!(s.close_job(), s.horizon_ns() - before);
    }

    #[test]
    fn empty_stage_has_zero_makespan() {
        let mut s = sched(1);
        let out = s.schedule(&[]);
        assert_eq!(out.makespan_ns, 0);
        assert!(out.tasks.is_empty());
    }

    #[test]
    fn shuffle_bytes_cost_scales_with_cluster_remote_fraction() {
        // On 1 node shuffle is all-local (disk); on 4 nodes 3/4 crosses
        // the network which is slower.
        let task = VirtualTask {
            compute_ns: 0,
            input_bytes: 0,
            preferred_nodes: vec![],
            shuffle_bytes: 400 * 1024 * 1024,
        };
        let m1 = sched(1).schedule(std::slice::from_ref(&task)).makespan_ns;
        let m4 = sched(4).schedule(std::slice::from_ref(&task)).makespan_ns;
        assert!(m4 > m1);
    }
}
