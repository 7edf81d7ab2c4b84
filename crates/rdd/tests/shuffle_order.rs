//! The shuffle operators' output, partition by partition and in order,
//! against an oracle that is the record-at-a-time shuffle the engine's
//! order contract is defined by: on the map side, one `DetHashMap` per
//! reducer filled in input order, a bucket being its table's iteration
//! order; on the reduce side, one `DetHashMap` filled bucket by bucket in
//! map-partition order, emitted with `into_iter`. Compared with `==`, not
//! as sets: per-key float folds inherit this order. The shuffle bytes the
//! map side writes are checked against the oracle's buckets as well.

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::sync::Arc;

use proptest::prelude::*;
use sparkscore_cluster::ClusterSpec;
use sparkscore_rdd::estimate::slice_bytes;
use sparkscore_rdd::shuffle::{DetHashMap, HashPartitioner};
use sparkscore_rdd::{Data, Dataset, Engine};

/// One map output per map partition, one bucket per reducer.
type MapOutputs<K, C> = Vec<Vec<Vec<(K, C)>>>;

fn map_side<K, V, C>(
    parts: &[Vec<(K, V)>],
    reduces: usize,
    create: impl Fn(V) -> C,
    merge_value: impl Fn(&mut C, V),
) -> MapOutputs<K, C>
where
    K: Data + Hash + Eq,
    V: Data,
{
    let partitioner = HashPartitioner::new(reduces);
    parts
        .iter()
        .map(|records| {
            let mut tables: Vec<DetHashMap<K, C>> =
                (0..reduces).map(|_| DetHashMap::default()).collect();
            for (k, v) in records.iter().cloned() {
                match tables[partitioner.partition(&k)].entry(k) {
                    Entry::Occupied(mut e) => merge_value(e.get_mut(), v),
                    Entry::Vacant(e) => {
                        e.insert(create(v));
                    }
                }
            }
            tables
                .into_iter()
                .map(|t| t.into_iter().collect())
                .collect()
        })
        .collect()
}

fn grouped<K: Data + Hash + Eq, V: Data>(
    parts: &[Vec<(K, V)>],
    reduces: usize,
) -> MapOutputs<K, Vec<V>> {
    map_side(parts, reduces, |v| vec![v], |c, v| c.push(v))
}

fn bytes_written<K: Data, C: Data>(outputs: &MapOutputs<K, C>) -> u64 {
    outputs
        .iter()
        .flatten()
        .map(|b| slice_bytes(b) as u64)
        .sum()
}

fn reduce_side<K: Data + Hash + Eq, C: Data>(
    outputs: &MapOutputs<K, C>,
    reduces: usize,
    merge_combiners: impl Fn(&mut C, C),
) -> Vec<Vec<(K, C)>> {
    (0..reduces)
        .map(|r| {
            let mut table: DetHashMap<K, C> = DetHashMap::default();
            for output in outputs {
                for (k, c) in output[r].iter().cloned() {
                    match table.entry(k) {
                        Entry::Occupied(mut e) => merge_combiners(e.get_mut(), c),
                        Entry::Vacant(e) => {
                            e.insert(c);
                        }
                    }
                }
            }
            table.into_iter().collect()
        })
        .collect()
}

type CoGroupedPart<K, V, W> = Vec<(K, (Vec<V>, Vec<W>))>;

fn co_group_side<K: Data + Hash + Eq, V: Data, W: Data>(
    left: &MapOutputs<K, Vec<V>>,
    right: &MapOutputs<K, Vec<W>>,
    reduces: usize,
) -> Vec<CoGroupedPart<K, V, W>> {
    (0..reduces)
        .map(|r| {
            let mut table: DetHashMap<K, (Vec<V>, Vec<W>)> = DetHashMap::default();
            for output in left {
                for (k, mut vs) in output[r].iter().cloned() {
                    table.entry(k).or_default().0.append(&mut vs);
                }
            }
            for output in right {
                for (k, mut ws) in output[r].iter().cloned() {
                    table.entry(k).or_default().1.append(&mut ws);
                }
            }
            table.into_iter().collect()
        })
        .collect()
}

/// `join` is `co_group` followed by a left-major nested loop per key.
fn joined<K: Data, V: Data, W: Data>(
    co_grouped: Vec<CoGroupedPart<K, V, W>>,
) -> Vec<Vec<(K, (V, W))>> {
    co_grouped
        .into_iter()
        .map(|part| {
            let mut out = Vec::new();
            for (k, (vs, ws)) in part {
                for v in &vs {
                    for w in &ws {
                        out.push((k.clone(), (v.clone(), w.clone())));
                    }
                }
            }
            out
        })
        .collect()
}

fn partitions<T: Data>(ds: &Dataset<T>) -> Vec<Vec<T>> {
    ds.run_partitions(|p| p.to_vec())
}

/// Run `ds` partition by partition and the shuffle bytes its job wrote.
fn run<T: Data>(engine: &Arc<Engine>, ds: &Dataset<T>) -> (Vec<Vec<T>>, u64) {
    let before = engine.metrics_snapshot().shuffle_bytes_written;
    let parts = partitions(ds);
    (
        parts,
        engine.metrics_snapshot().shuffle_bytes_written - before,
    )
}

/// Half the draws pile onto a few keys, half spread over `domain`.
fn skewed(raw: u64, domain: u64) -> u64 {
    if raw & 1 == 0 {
        u64::from(raw.trailing_zeros())
    } else {
        (raw >> 1) % domain
    }
}

/// A parallelized input, cached (the map side then reads a block the cache
/// shares, and clones) or not (it owns the partition, and moves).
fn input<T: Data>(engine: &Arc<Engine>, records: Vec<T>, parts: usize, cached: bool) -> Dataset<T> {
    let ds = engine.parallelize(records, parts);
    if cached {
        ds.cache()
    } else {
        ds
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wide_operators_emit_the_oracle_order_partition_by_partition(
        (domain, left_maps, right_maps, reduces) in (1u64..60, 1usize..9, 1usize..6, 1usize..9),
        (cache_left, cache_right) in (any::<bool>(), any::<bool>()),
        left_raw in collection::vec((any::<u64>(), 0u32..1000), 0..300),
        right_raw in collection::vec((any::<u64>(), "[a-c]{0,3}"), 0..60),
    ) {
        let engine = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(2)
            .build();
        // Float values: a per-key sum in another order gives other bits.
        let left_records: Vec<(u64, f64)> = left_raw
            .iter()
            .map(|&(r, v)| (skewed(r, domain), f64::from(v) * 0.1 + 1e-3))
            .collect();
        let right_records: Vec<(u64, String)> = right_raw
            .iter()
            .map(|(r, s)| (skewed(*r, domain), s.clone()))
            .collect();
        let left = input(&engine, left_records, left_maps, cache_left);
        let right = input(&engine, right_records, right_maps, cache_right);
        let left_parts = partitions(&left);
        let right_parts = partitions(&right);

        let (got, bytes) = run(&engine, &left.reduce_by_key(reduces, |a, b| a + b));
        let outputs = map_side(&left_parts, reduces, |v| v, |c, v| *c += v);
        prop_assert!(got == reduce_side(&outputs, reduces, |c, o| *c += o));
        prop_assert_eq!(bytes, bytes_written(&outputs));

        let (got, bytes) = run(&engine, &left.group_by_key(reduces));
        let outputs = grouped(&left_parts, reduces);
        prop_assert!(got == reduce_side(&outputs, reduces, |c, mut o| c.append(&mut o)));
        prop_assert_eq!(bytes, bytes_written(&outputs));

        let (left_out, right_out) = (grouped(&left_parts, reduces), grouped(&right_parts, reduces));
        let co_grouped = co_group_side(&left_out, &right_out, reduces);
        let sides = bytes_written(&left_out) + bytes_written(&right_out);

        let (got, bytes) = run(&engine, &left.co_group(&right, reduces));
        prop_assert!(got == co_grouped);
        prop_assert_eq!(bytes, sides);

        let (got, bytes) = run(&engine, &left.join(&right, reduces));
        prop_assert!(got == joined(co_grouped));
        prop_assert_eq!(bytes, sides);
    }
}
