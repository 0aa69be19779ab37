//! Independent oracles the engine's property tests compare the
//! production shuffle against. Each is the simplest correct version of
//! what it checks — no shared code with the path under test.

use gesall_formats::wire::Wire;
use gesall_mapreduce::shuffle::Segment;
use gesall_mapreduce::Partitioner;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Stable k-way merge of sorted runs on a binary heap: ties break by run
/// index, then intra-run order — the order `merge_runs` promises.
pub fn merge_runs_heap<K: Wire + Ord + Clone, V: Wire>(runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut iters: Vec<std::vec::IntoIter<(K, V)>> =
        runs.into_iter().map(|r| r.into_iter()).collect();
    let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::new();
    let mut heads: Vec<Option<V>> = Vec::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        match it.next() {
            Some((k, v)) => {
                heap.push(Reverse((k, i)));
                heads.push(Some(v));
            }
            None => heads.push(None),
        }
    }
    while let Some(Reverse((k, i))) = heap.pop() {
        let v = heads[i].take().expect("head value present for popped run");
        out.push((k, v));
        if let Some((nk, nv)) = iters[i].next() {
            heap.push(Reverse((nk, i)));
            heads[i] = Some(nv);
        }
    }
    out
}

/// The materializing reduce merge: decode every segment into typed
/// pairs up front, multipass-merge the runs `merge_factor` at a time
/// with [`merge_runs_heap`], then group equal keys. The streaming
/// `reduce_merge` must match it for any segment set, codec mix and
/// fan-in.
pub fn reduce_merge_materialized<K: Wire + Ord + Clone, V: Wire>(
    segments: Vec<Segment>,
    merge_factor: usize,
) -> Vec<(K, Vec<V>)> {
    let merge_factor = merge_factor.max(2);
    let mut runs: VecDeque<Vec<(K, V)>> = segments
        .iter()
        .filter(|s| s.records > 0)
        .map(|s| s.to_pairs())
        .collect();
    while runs.len() > merge_factor {
        let batch: Vec<Vec<(K, V)>> = runs.drain(..merge_factor).collect();
        runs.push_back(merge_runs_heap(batch));
    }
    let merged = merge_runs_heap(runs.into_iter().collect());
    let mut out: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in merged {
        match out.last_mut() {
            Some((lk, vs)) if *lk == k => vs.push(v),
            _ => out.push((k, vec![v])),
        }
    }
    out
}

/// What a map task's sort buffer must produce for an emission stream:
/// the records grouped by reduce partition, each group stable-sorted by
/// key (equal keys keep their emission order), whatever the spill
/// pattern.
pub fn spill_sort_oracle<K: Ord + Clone, V: Clone>(
    records: &[(K, V)],
    n_partitions: usize,
    partitioner: &dyn Partitioner<K>,
) -> Vec<Vec<(K, V)>> {
    let mut groups: Vec<Vec<(K, V)>> = vec![Vec::new(); n_partitions];
    for (k, v) in records {
        groups[partitioner.partition(k, n_partitions)].push((k.clone(), v.clone()));
    }
    for g in &mut groups {
        g.sort_by(|a, b| a.0.cmp(&b.0));
    }
    groups
}
