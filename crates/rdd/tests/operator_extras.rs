//! Tests for the extended operator set (sample, distinct, coalesce,
//! zip_with_index, take_ordered, count_by_key, aggregate_by_key) and
//! property tests pinning pipelines to their sequential `Vec` oracles.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use sparkscore_cluster::ClusterSpec;
use sparkscore_rdd::{Dataset, Engine, EstimateSize};

fn engine() -> Arc<Engine> {
    Engine::builder(ClusterSpec::test_small(2))
        .host_threads(2)
        .build()
}

fn numbers(e: &Arc<Engine>, n: u64, parts: usize) -> Dataset<u64> {
    e.parallelize((0..n).collect(), parts)
}

#[test]
fn sample_is_deterministic_and_roughly_proportional() {
    let e = engine();
    let ds = numbers(&e, 10_000, 8);
    let a = ds.sample(0.3, 42).collect();
    let b = ds.sample(0.3, 42).collect();
    assert_eq!(a, b, "same seed, same sample");
    let frac = a.len() as f64 / 10_000.0;
    assert!((frac - 0.3).abs() < 0.03, "observed fraction {frac}");
    let c = ds.sample(0.3, 43).collect();
    assert_ne!(a, c, "different seed should differ");
    // Sampled records keep their relative order within partitions.
    assert!(a.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn sample_extremes() {
    let e = engine();
    let ds = numbers(&e, 100, 4);
    assert!(ds.sample(0.0, 1).collect().is_empty());
    assert_eq!(ds.sample(1.0, 1).count(), 100);
}

#[test]
fn distinct_removes_duplicates() {
    let e = engine();
    let ds = e.parallelize(vec![3u64, 1, 3, 2, 1, 1, 2], 3);
    let mut got = ds.distinct(2).collect();
    got.sort_unstable();
    assert_eq!(got, vec![1, 2, 3]);
}

#[test]
fn coalesce_preserves_records_and_order() {
    let e = engine();
    let ds = numbers(&e, 100, 10);
    let co = ds.coalesce(3);
    assert_eq!(co.num_partitions(), 3);
    assert_eq!(co.collect(), (0..100).collect::<Vec<_>>());
    // Coalescing beyond the partition count clamps.
    assert_eq!(ds.coalesce(50).num_partitions(), 10);
}

#[test]
fn zip_with_index_is_global_and_ordered() {
    let e = engine();
    let ds = e.parallelize(
        vec!["a", "b", "c", "d", "e"]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>(),
        3,
    );
    let zipped = ds.zip_with_index().collect();
    let want: Vec<(String, u64)> = ["a", "b", "c", "d", "e"]
        .iter()
        .enumerate()
        .map(|(i, s)| (s.to_string(), i as u64))
        .collect();
    assert_eq!(zipped, want);
}

#[test]
fn take_ordered_matches_sort_truncate() {
    let e = engine();
    let data: Vec<u64> = (0..500).map(|x| (x * 7919) % 997).collect();
    let ds = e.parallelize(data.clone(), 7);
    let got = ds.take_ordered(10, |a, b| a.cmp(b));
    let mut want = data;
    want.sort_unstable();
    want.truncate(10);
    assert_eq!(got, want);
    assert!(ds.take_ordered(0, |a, b| a.cmp(b)).is_empty());
}

#[test]
fn take_ordered_reverse_comparator() {
    let e = engine();
    let ds = numbers(&e, 50, 4);
    let got = ds.take_ordered(3, |a, b| b.cmp(a));
    assert_eq!(got, vec![49, 48, 47]);
}

#[test]
fn count_by_key_matches_oracle() {
    let e = engine();
    let pairs: Vec<(u8, u64)> = (0..300).map(|x| ((x % 5) as u8, x)).collect();
    let got = e.parallelize(pairs.clone(), 6).count_by_key(3);
    let mut want: HashMap<u8, u64> = HashMap::new();
    for (k, _) in pairs {
        *want.entry(k).or_insert(0) += 1;
    }
    assert_eq!(got, want);
}

#[test]
fn aggregate_by_key_computes_min_max() {
    let e = engine();
    let pairs: Vec<(u8, i64)> = vec![(1, 5), (1, -2), (2, 7), (1, 3), (2, 7)];
    let got = e
        .parallelize(pairs, 3)
        .aggregate_by_key(
            (i64::MAX, i64::MIN),
            2,
            |acc, v| {
                acc.0 = acc.0.min(v);
                acc.1 = acc.1.max(v);
            },
            |acc, other| {
                acc.0 = acc.0.min(other.0);
                acc.1 = acc.1.max(other.1);
            },
        )
        .collect_as_map();
    assert_eq!(got[&1], (-2, 5));
    assert_eq!(got[&2], (7, 7));
}

#[test]
fn save_as_text_file_round_trips_through_part_files() {
    let e = engine();
    let ds = numbers(&e, 100, 4).map(|x| format!("line-{x}"));
    ds.save_as_text_file("/out").unwrap();
    // Four Hadoop-style part files appear on the DFS.
    let parts: Vec<String> = e
        .dfs()
        .list_files()
        .into_iter()
        .filter(|p| p.starts_with("/out/part-"))
        .collect();
    assert_eq!(parts.len(), 4);
    assert!(parts.contains(&"/out/part-00000".to_string()));
    // Re-reading yields the same records in the same order.
    let back = e.text_file_dir("/out").unwrap().collect();
    assert_eq!(
        back,
        (0..100).map(|x| format!("line-{x}")).collect::<Vec<_>>()
    );
}

#[test]
fn text_file_dir_truncates_lineage() {
    let e = engine();
    let expensive = numbers(&e, 50, 2).map(|x| (x * x).to_string());
    expensive.save_as_text_file("/ckpt").unwrap();
    let reread = e.text_file_dir("/ckpt").unwrap();
    // The re-read dataset's lineage reaches text files, not the original
    // parallelize/map chain.
    let lineage = reread.lineage();
    assert!(lineage.contains("textFile"));
    assert!(!lineage.contains("parallelize"));
    // And it survives dropping the original dataset entirely.
    drop(expensive);
    assert_eq!(reread.count(), 50);
}

#[test]
fn text_file_dir_missing_dir_errors() {
    let e = engine();
    assert!(e.text_file_dir("/nothing").is_err());
}

#[test]
fn map_with_cost_changes_virtual_time_not_results() {
    let cheap_engine = engine();
    let cheap = numbers(&cheap_engine, 1000, 4).map_with_cost(1.0, |x| x + 1);
    let cheap_result = cheap.collect();
    let cheap_time = cheap_engine.virtual_time_ns();

    let costly_engine = engine();
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
    let e = engine();
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
        let e = engine();
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
        let e = engine();
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
        let e = engine();
        let plain = e.parallelize(data.clone(), parts).map(|x| x ^ 0xff);
        let cached = e.parallelize(data, parts).map(|x| x ^ 0xff).cache();
        prop_assert_eq!(plain.collect(), cached.collect());
        // Second read served from cache must also be identical.
        prop_assert_eq!(plain.collect(), cached.collect());
    }

    /// distinct equals a BTreeSet oracle.
    #[test]
    fn prop_distinct_matches_oracle(
        data in proptest::collection::vec(0u32..40, 0..120),
        parts in 1usize..6,
    ) {
        let e = engine();
        let mut got = e.parallelize(data.clone(), parts).distinct(3).collect();
        got.sort_unstable();
        let want: Vec<u32> = std::collections::BTreeSet::from_iter(data).into_iter().collect();
        prop_assert_eq!(got, want);
    }
}
