//! Behavioural tests for the dataflow engine: operator semantics vs
//! sequential oracles, caching, lineage recovery under injected faults,
//! shuffle correctness, virtual-time scaling.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use sparkscore_cluster::{ClusterSpec, FaultPlan, NodeId};
use sparkscore_rdd::{Aggregator, Dataset, Engine, EstimateSize};

fn engine(nodes: u32) -> Arc<Engine> {
    Engine::builder(ClusterSpec::test_small(nodes))
        .host_threads(4)
        .build()
}

fn numbers(e: &Arc<Engine>, n: u64, parts: usize) -> Dataset<u64> {
    e.parallelize((0..n).collect(), parts)
}

#[test]
fn map_filter_flat_map_match_iterators() {
    let e = engine(3);
    let ds = numbers(&e, 100, 7);
    let got = ds
        .map(|x| x + 1)
        .filter(|x| x % 3 == 0)
        .flat_map(|x| vec![x, x])
        .collect();
    let want: Vec<u64> = (0..100u64)
        .map(|x| x + 1)
        .filter(|x| x % 3 == 0)
        .flat_map(|x| vec![x, x])
        .collect();
    assert_eq!(got, want);
}

#[test]
fn collect_preserves_partition_order() {
    let e = engine(2);
    let ds = numbers(&e, 1000, 13);
    assert_eq!(ds.collect(), (0..1000u64).collect::<Vec<_>>());
}

#[test]
fn count_reduce_fold_first_take() {
    let e = engine(2);
    let ds = numbers(&e, 50, 4);
    assert_eq!(ds.count(), 50);
    assert_eq!(ds.reduce(|a, b| a + b), Some((0..50u64).sum()));
    assert_eq!(ds.fold(0, |a, b| a + b), (0..50u64).sum());
    assert_eq!(ds.first(), Some(0));
    assert_eq!(ds.take(3), vec![0, 1, 2]);
}

#[test]
fn empty_dataset_actions() {
    let e = engine(1);
    let ds: Dataset<u64> = e.parallelize(vec![], 3);
    assert_eq!(ds.count(), 0);
    assert_eq!(ds.reduce(|a, b| a + b), None);
    // Like Spark, fold applies `zero` once per partition plus once at the
    // driver, so it must be an identity of `f`.
    assert_eq!(ds.fold(0, |a, b| a + b), 0);
    assert_eq!(ds.fold(7, |a, b| a.max(b)), 7);
    assert!(ds.first().is_none());
    assert!(ds.collect().is_empty());
}

#[test]
fn more_partitions_than_records() {
    let e = engine(1);
    let ds = e.parallelize(vec![1u64, 2, 3], 10);
    assert_eq!(ds.num_partitions(), 10);
    assert_eq!(ds.collect(), vec![1, 2, 3]);
}

#[test]
fn map_partitions_sees_index_and_whole_partition() {
    let e = engine(2);
    let ds = numbers(&e, 20, 4);
    let sums = ds.map_partitions(|idx, part| vec![(idx, part.iter().sum::<u64>())]);
    let collected = sums.collect();
    assert_eq!(collected.len(), 4);
    let total: u64 = collected.iter().map(|&(_, s)| s).sum();
    assert_eq!(total, (0..20u64).sum());
    let idxs: Vec<usize> = collected.iter().map(|&(i, _)| i).collect();
    assert_eq!(idxs, vec![0, 1, 2, 3]);
}

#[test]
fn key_by_and_values_round_trip() {
    let e = engine(1);
    let ds = numbers(&e, 10, 2);
    let keyed = ds.key_by(|x| x % 2);
    assert_eq!(keyed.values().collect(), (0..10u64).collect::<Vec<_>>());
    assert_eq!(keyed.keys().count(), 10);
}

#[test]
fn reduce_by_key_matches_sequential_fold() {
    let e = engine(3);
    let pairs: Vec<(u64, u64)> = (0..500u64).map(|x| (x % 7, x)).collect();
    let ds = e.parallelize(pairs.clone(), 9);
    let mut got = ds.reduce_by_key(4, |a, b| a + b).collect();
    got.sort_unstable();
    let mut want: HashMap<u64, u64> = HashMap::new();
    for (k, v) in pairs {
        *want.entry(k).or_insert(0) += v;
    }
    let mut want: Vec<(u64, u64)> = want.into_iter().collect();
    want.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn join_matches_nested_loop_oracle() {
    let e = engine(2);
    let left: Vec<(u32, String)> = vec![
        (1, "a".into()),
        (2, "b".into()),
        (1, "c".into()),
        (4, "d".into()),
    ];
    let right: Vec<(u32, u64)> = vec![(1, 100), (2, 200), (3, 300), (1, 101)];
    let l = e.parallelize(left.clone(), 2);
    let r = e.parallelize(right.clone(), 3);
    let mut got = l.join(&r, 4).collect();
    got.sort_by(|a, b| (a.0, &a.1 .0, a.1 .1).cmp(&(b.0, &b.1 .0, b.1 .1)));
    let mut want = Vec::new();
    for (k, v) in &left {
        for (k2, w) in &right {
            if k == k2 {
                want.push((*k, (v.clone(), *w)));
            }
        }
    }
    want.sort_by(|a, b| (a.0, &a.1 .0, a.1 .1).cmp(&(b.0, &b.1 .0, b.1 .1)));
    assert_eq!(got, want);
}

#[test]
fn combine_by_key_custom_aggregator() {
    let e = engine(2);
    let pairs: Vec<(u8, f64)> = vec![(1, 2.0), (1, 4.0), (2, 6.0)];
    let ds = e.parallelize(pairs, 2);
    // Track (sum, count) to compute means.
    let agg: Aggregator<f64, (f64, u64)> = Aggregator {
        create: Arc::new(|v| (v, 1)),
        merge_value: Arc::new(|c, v| {
            c.0 += v;
            c.1 += 1;
        }),
        merge_combiners: Arc::new(|c, o| {
            c.0 += o.0;
            c.1 += o.1;
        }),
    };
    let means: HashMap<u8, f64> = ds
        .combine_by_key(agg, 2)
        .map(|(k, (s, n))| (k, s / n as f64))
        .collect_as_map();
    assert_eq!(means[&1], 3.0);
    assert_eq!(means[&2], 6.0);
}

#[test]
fn shuffle_results_are_deterministic_across_runs() {
    let run = || {
        let e = engine(3);
        let pairs: Vec<(u64, u64)> = (0..200).map(|x| ((x * 31) % 17, x)).collect();
        e.parallelize(pairs, 8)
            .reduce_by_key(5, |a, b| a + b)
            .collect()
    };
    assert_eq!(run(), run(), "same inputs must give identical output order");
}

#[test]
fn cache_hits_skip_recomputation() {
    let e = engine(2);
    let ds = numbers(&e, 1000, 8).map(|x| x * 2).cache();
    assert!(ds.is_cached());
    let first = ds.collect();
    let m1 = e.metrics_snapshot();
    assert_eq!(m1.cache_misses, 8, "first pass misses every partition");
    let second = ds.collect();
    let m2 = e.metrics_snapshot();
    assert_eq!(second, first);
    assert_eq!(m2.cache_hits - m1.cache_hits, 8, "second pass all hits");
    assert_eq!(m2.cache_misses, m1.cache_misses);
}

#[test]
fn unpersist_forces_recomputation() {
    let e = engine(2);
    let ds = numbers(&e, 100, 4).cache();
    ds.collect();
    ds.unpersist();
    assert!(!ds.is_cached());
    let before = e.metrics_snapshot();
    ds.collect();
    let after = e.metrics_snapshot();
    assert_eq!(after.cache_hits, before.cache_hits);
}

#[test]
fn tiny_cache_budget_evicts_but_results_stay_correct() {
    let e = Engine::builder(ClusterSpec::test_small(2))
        .host_threads(2)
        .cache_budget_bytes(256) // holds ~1 partition of 8
        .build();
    let ds = e.parallelize((0..256u64).collect(), 8).cache();
    let a = ds.collect();
    let b = ds.collect();
    assert_eq!(a, b);
    let m = e.metrics_snapshot();
    assert!(
        m.cache_evictions > 0 || m.cache_misses > 8,
        "budget pressure must show up in metrics: {m:?}"
    );
}

#[test]
fn cached_dataset_short_circuits_upstream_shuffle() {
    let e = engine(2);
    let pairs: Vec<(u64, u64)> = (0..100).map(|x| (x % 5, x)).collect();
    let reduced = e
        .parallelize(pairs, 4)
        .reduce_by_key(3, |a, b| a + b)
        .cache();
    reduced.collect();
    let m1 = e.metrics_snapshot();
    reduced.map(|(_, v)| v).collect();
    let m2 = e.metrics_snapshot();
    assert_eq!(
        m2.shuffle_map_tasks, m1.shuffle_map_tasks,
        "fully-cached reduce output must prune the upstream shuffle stage"
    );
    assert_eq!(m2.shuffle_bytes_read, m1.shuffle_bytes_read);
}

#[test]
fn text_file_round_trip_through_pipeline() {
    let e = engine(3);
    let content: String = (0..100).map(|i| format!("{i}\n")).collect();
    e.dfs().write_text("/nums.txt", &content).unwrap();
    let ds = e.text_file("/nums.txt").unwrap();
    let sum: u64 = ds
        .map(|line| line.parse::<u64>().expect("numeric line"))
        .reduce(|a, b| a + b)
        .unwrap();
    assert_eq!(sum, (0..100u64).sum());
    assert!(e.metrics_snapshot().input_bytes > 0);
}

#[test]
fn text_file_missing_path_errors() {
    let e = engine(1);
    assert!(e.text_file("/missing").is_err());
}

#[test]
fn text_file_with_hands_each_block_to_the_parser_once() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let e = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .dfs_block_size(64)
        .build();
    let content: String = (0..100).map(|i| format!("{i}\n")).collect();
    let meta = e.dfs().write_text("/nums.txt", &content).unwrap();
    assert!(meta.num_blocks() > 1, "the file must span blocks");

    let bytes = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&bytes);
    let ds = e
        .text_file_with("/nums.txt", move |ctx, block| {
            seen.fetch_add(block.len() as u64, Ordering::Relaxed);
            // One record per block: its partition and its text.
            vec![(ctx.partition(), String::from_utf8(block.to_vec()).unwrap())]
        })
        .unwrap();
    assert_eq!(ds.num_partitions(), meta.num_blocks());
    assert!(ds.lineage().contains("textFile"), "{}", ds.lineage());

    // Every block arrives once, under its own partition index, and in
    // file order the blocks are the file.
    let (partitions, blocks): (Vec<usize>, Vec<String>) = ds.collect().into_iter().unzip();
    assert_eq!(partitions, (0..meta.num_blocks()).collect::<Vec<_>>());
    assert_eq!(blocks.concat(), content);
    assert_eq!(bytes.load(Ordering::Relaxed), meta.total_bytes);
    // Input accounting is the operator's, not the parser's.
    assert_eq!(e.metrics_snapshot().input_bytes, meta.total_bytes);
}

#[test]
fn broadcast_value_visible_in_tasks() {
    let e = engine(2);
    let factor = e.broadcast(vec![10u64]);
    let ds = numbers(&e, 10, 2);
    let out = ds.map(move |x| x * factor.value()[0]).collect();
    assert_eq!(out, (0..10u64).map(|x| x * 10).collect::<Vec<_>>());
}

#[test]
fn node_death_mid_job_recovers_from_lineage() {
    let e = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(2)
        .dfs_replication(2)
        .build();
    let content: String = (0..200).map(|i| format!("{i}\n")).collect();
    e.dfs().write_text("/in.txt", &content).unwrap();
    let ds = e
        .text_file("/in.txt")
        .unwrap()
        .map(|l| l.parse::<u64>().unwrap())
        .cache();
    ds.collect(); // populate cache across nodes
    e.set_fault_plan(FaultPlan::kill_node_after(NodeId(0), 1));
    // Several more jobs; cached blocks on node 0 vanish and recompute.
    for _ in 0..3 {
        assert_eq!(ds.reduce(|a, b| a + b), Some((0..200u64).sum()));
    }
    assert!(!e.cluster().node(NodeId(0)).is_alive());
}

#[test]
fn lost_shuffle_output_is_rerun_inline() {
    // One host thread runs the reducers in partition order, so the map
    // output dropped when the second finishes is missing when the third
    // fetches. On several threads every reducer could fetch before the
    // drop, and no re-run was forced.
    let e = Engine::builder(ClusterSpec::test_small(2))
        .host_threads(1)
        .build();
    let pairs: Vec<(u64, u64)> = (0..300).map(|x| (x % 11, 1)).collect();
    let counted = e.parallelize(pairs, 6).reduce_by_key(4, |a, b| a + b);
    let first = counted.collect_as_map();
    // Drop a shuffle output every task from now on; re-collect must recover.
    e.set_fault_plan(FaultPlan::none().with_shuffle_loss_every(2));
    let second = counted.collect_as_map();
    assert_eq!(first, second);
    assert!(
        e.metrics_snapshot().shuffle_map_reruns > 0,
        "recovery must actually have re-run map tasks"
    );
}

/// Drop-vs-fetch stress: every completing task drops a shuffle output
/// while the other pool threads' reducers are fetching, so a recovered
/// output is routinely dropped again the moment it is stored. The inline
/// re-run must hand the reducer its bucket, not make it re-read the store.
#[test]
fn concurrent_shuffle_drops_never_strand_a_reducer() {
    let e = engine(2);
    let pairs: Vec<(u64, u64)> = (0..240).map(|x| (x % 13, 1)).collect();
    let counted = e.parallelize(pairs, 8).reduce_by_key(8, |a, b| a + b);
    let want = counted.collect_as_map();
    e.set_fault_plan(FaultPlan::none().with_shuffle_loss_every(1));
    for i in 0..1_000 {
        assert_eq!(counted.collect_as_map(), want, "iteration {i}");
    }
    assert!(e.metrics_snapshot().shuffle_map_reruns > 0);
}

#[test]
fn periodic_cache_loss_still_correct() {
    let e = engine(2);
    e.set_fault_plan(FaultPlan::none().with_cached_block_loss_every(3));
    let ds = numbers(&e, 500, 10).map(|x| x + 7).cache();
    let want: Vec<u64> = (0..500u64).map(|x| x + 7).collect();
    for _ in 0..5 {
        assert_eq!(ds.collect(), want);
    }
    assert!(e.metrics_snapshot().recomputed_partitions > 0);
}

#[test]
fn virtual_time_decreases_with_more_nodes() {
    let run = |nodes: u32| {
        let e = Engine::builder(ClusterSpec::m3_2xlarge(nodes))
            .host_threads(4)
            .build();
        let ds = e.parallelize((0..512u64).collect::<Vec<u64>>(), 96);
        // Deterministic modeled work (cost hints) so slot counts — not
        // host measurement noise — dominate the makespan.
        let heavy = ds.map_with_cost(500_000.0, |x| x * 3 + 1);
        heavy.count();
        e.virtual_time_ns()
    };
    let t6 = run(6) as f64;
    let t12 = run(12) as f64;
    let t18 = run(18) as f64;
    // 12 and 18 nodes both fit the 96 tasks in one wave, so they tie up to
    // host measurement jitter; allow 1%.
    assert!(
        t12 <= t6 * 1.01,
        "12 nodes ({t12}) must not be slower than 6 ({t6})"
    );
    assert!(
        t18 <= t12 * 1.01,
        "18 nodes ({t18}) must not be slower than 12 ({t12})"
    );
    // 6 nodes (48 slots) need two task waves for 96 tasks: a real gap.
    assert!(
        t18 < t6 * 0.8,
        "18 nodes ({t18}) must clearly beat 6 ({t6})"
    );
}

#[test]
fn cached_second_pass_is_virtually_faster() {
    let e = engine(2);
    let ds = numbers(&e, 20_000, 8)
        .map(|x| x.wrapping_mul(2654435761).rotate_left(13))
        .cache();
    ds.count();
    let t_first = e.virtual_time_ns();
    ds.count();
    let t_second = e.virtual_time_ns() - t_first;
    assert!(
        t_second < t_first,
        "cached pass ({t_second} ns) must beat cold pass ({t_first} ns)"
    );
}

#[test]
fn metrics_job_and_stage_counts() {
    let e = engine(1);
    let pairs: Vec<(u8, u8)> = vec![(1, 1), (2, 2)];
    let ds = e.parallelize(pairs, 2).reduce_by_key(2, |a, b| a + b);
    ds.collect();
    let m = e.metrics_snapshot();
    assert_eq!(m.jobs, 1);
    assert_eq!(m.stages, 2, "one shuffle map stage + one result stage");
    ds.collect();
    assert_eq!(e.metrics_snapshot().jobs, 2);
}

#[test]
fn lineage_string_mentions_operators() {
    let e = engine(1);
    let ds = numbers(&e, 10, 2).map(|x| x).filter(|_| true);
    let lineage = ds.lineage();
    assert!(lineage.contains("filter"));
    assert!(lineage.contains("map"));
    assert!(lineage.contains("parallelize"));
}

#[test]
fn dropping_datasets_releases_engine_state() {
    let e = engine(1);
    {
        let pairs: Vec<(u8, u8)> = vec![(1, 1)];
        let ds = e
            .parallelize(pairs, 1)
            .reduce_by_key(1, |a, b| a + b)
            .cache();
        ds.collect();
        assert!(e.metrics_snapshot().shuffle_bytes_written > 0);
    }
    // All datasets dropped: shuffle registrations empty.
    assert_eq!(e.shuffle_registrations(), 0, "shuffle stages must be GC'd");
}

#[test]
fn many_iterations_do_not_leak_shuffle_state() {
    let e = engine(1);
    let base = e.parallelize((0..100u64).collect::<Vec<_>>(), 4).cache();
    base.count();
    for _ in 0..50 {
        let keyed = base.map(|x| (x % 5, x)).reduce_by_key(2, |a, b| a + b);
        keyed.count();
    }
    assert!(
        e.shuffle_registrations() <= 1,
        "per-iteration shuffles must be cleaned up as datasets drop"
    );
}

/// The engine the narrow-pipeline, by-value and cost tests below run on.
fn two_thread_engine() -> Arc<Engine> {
    Engine::builder(ClusterSpec::test_small(2))
        .host_threads(2)
        .build()
}

#[test]
fn map_with_cost_changes_virtual_time_not_results() {
    let cheap_engine = two_thread_engine();
    let cheap = numbers(&cheap_engine, 1000, 4).map_with_cost(1.0, |x| x + 1);
    let cheap_result = cheap.collect();
    let cheap_time = cheap_engine.virtual_time_ns();

    let costly_engine = two_thread_engine();
    let costly = numbers(&costly_engine, 1000, 4).map_with_cost(10_000.0, |x| x + 1);
    let costly_result = costly.collect();
    let costly_time = costly_engine.virtual_time_ns();

    assert_eq!(cheap_result, costly_result, "cost hints never change data");
    assert!(
        costly_time > cheap_time * 2,
        "declared cost must dominate virtual time: {costly_time} vs {cheap_time}"
    );
}

/// A record that counts how often it is cloned.
struct Counted {
    value: u64,
    clones: Arc<AtomicUsize>,
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::Relaxed);
        Counted {
            value: self.value,
            clones: Arc::clone(&self.clones),
        }
    }
}

impl EstimateSize for Counted {
    fn estimate_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[test]
fn by_value_operators_move_a_partition_only_they_hold() {
    let e = two_thread_engine();
    let clones = Arc::new(AtomicUsize::new(0));
    // Records are born inside the lineage (no source copy to clone from)
    // and read back by reference, so every clone counted is an operator's.
    let born = {
        let clones = Arc::clone(&clones);
        numbers(&e, 1000, 4).map_partitions(move |_, xs| {
            xs.iter()
                .map(|&value| Counted {
                    value,
                    clones: Arc::clone(&clones),
                })
                .collect()
        })
    };
    let chain = born
        .map(|c| c)
        .filter(|c| c.value % 3 != 0)
        .flat_map(|c| vec![c]);
    let values = || -> Vec<u64> {
        chain
            .run_partitions(|p| p.iter().map(|c| c.value).collect::<Vec<_>>())
            .concat()
    };
    let want: Vec<u64> = (0..1000).filter(|v| v % 3 != 0).collect();

    assert_eq!(values(), want);
    assert_eq!(
        clones.load(Ordering::Relaxed),
        0,
        "uncached chain: every operator owns its input"
    );

    // Cached parent: the block cache shares each partition with the task,
    // so `map` — the one operator reading it — clones, on the miss pass
    // and on the hit pass alike; the operators after it still move.
    born.cache();
    assert_eq!(values(), want, "miss pass");
    assert_eq!(values(), want, "hit pass");
    assert_eq!(clones.load(Ordering::Relaxed), 2 * 1000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// map ∘ filter ∘ flat_map pipelines equal their iterator oracles for
    /// arbitrary data and partitioning.
    #[test]
    fn prop_narrow_pipeline_matches_oracle(
        data in proptest::collection::vec(0u64..1000, 0..200),
        parts in 1usize..12,
        mul in 1u64..5,
        modulus in 1u64..7,
    ) {
        let e = two_thread_engine();
        let got = e.parallelize(data.clone(), parts)
            .map(move |x| x * mul)
            .filter(move |x| x % modulus == 0)
            .flat_map(|x| vec![x, x + 1])
            .collect();
        let want: Vec<u64> = data.iter()
            .map(|&x| x * mul)
            .filter(|x| x % modulus == 0)
            .flat_map(|x| vec![x, x + 1])
            .collect();
        prop_assert_eq!(got, want);
    }

    /// reduce_by_key equals a sequential HashMap fold for arbitrary pairs.
    #[test]
    fn prop_reduce_by_key_matches_oracle(
        pairs in proptest::collection::vec((0u8..16, 0u64..100), 0..150),
        parts in 1usize..8,
        reducers in 1usize..6,
    ) {
        let e = two_thread_engine();
        let mut got = e.parallelize(pairs.clone(), parts)
            .reduce_by_key(reducers, |a, b| a + b)
            .collect();
        got.sort_unstable();
        let mut oracle: HashMap<u8, u64> = HashMap::new();
        for (k, v) in pairs {
            *oracle.entry(k).or_insert(0) += v;
        }
        let mut want: Vec<(u8, u64)> = oracle.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Caching never changes what an action returns.
    #[test]
    fn prop_cache_transparency(
        data in proptest::collection::vec(0u64..500, 1..100),
        parts in 1usize..6,
    ) {
        let e = two_thread_engine();
        let plain = e.parallelize(data.clone(), parts).map(|x| x ^ 0xff);
        let cached = e.parallelize(data, parts).map(|x| x ^ 0xff).cache();
        prop_assert_eq!(plain.collect(), cached.collect());
        // Second read served from cache must also be identical.
        prop_assert_eq!(plain.collect(), cached.collect());
    }
}
