//! End-to-end gray-failure tests for the DFS-transit shuffle: silent
//! block corruption, flaky reads, and slow-but-alive nodes — the
//! storage-layer failure matrix the ISSUE-6 integrity layer exists to
//! survive. Every scenario must finish with reduce output byte-identical
//! to the fault-free run; the counters prove the machinery actually
//! fired rather than the faults never landing.

use gesall_dfs::{metrics_keys, Dfs, DfsConfig};
use gesall_mapreduce::counters::keys;
use gesall_mapreduce::{
    ClusterResources, FaultPlan, HashPartitioner, InputSplit, JobConfig, MapContext,
    MapReduceEngine, Mapper, ReduceContext, Reducer,
};
use std::time::Duration;

struct Tokenize;
impl Mapper for Tokenize {
    type InKey = u64;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;
    fn map(&self, _k: &u64, line: &String, ctx: &mut MapContext<'_, String, u64>) {
        for w in line.split_whitespace() {
            ctx.emit(w.to_string(), 1);
        }
    }
}

struct Sum;
impl Reducer for Sum {
    type InKey = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&self, k: String, vs: Vec<u64>, ctx: &mut ReduceContext<'_, String, u64>) {
        ctx.emit(k, vs.iter().sum());
    }
}

/// `n_splits` splits of deterministic text (same generator as the
/// fault-tolerance suite, so oracles are comparable across files).
fn word_splits(n_splits: usize, lines_per_split: usize) -> Vec<InputSplit<u64, String>> {
    let words = ["gesall", "hadoop", "yarn", "hdfs", "bwa", "gatk", "shuffle"];
    (0..n_splits)
        .map(|s| {
            let records: Vec<(u64, String)> = (0..lines_per_split)
                .map(|i| {
                    let line: Vec<&str> = (0..5)
                        .map(|j| words[(s * 31 + i * 7 + j) % words.len()])
                        .collect();
                    (i as u64, line.join(" "))
                })
                .collect();
            InputSplit::new(format!("split-{s}"), records)
        })
        .collect()
}

fn sorted_output(res: &gesall_mapreduce::JobResult<String, u64>) -> Vec<(String, u64)> {
    let mut all: Vec<(String, u64)> = res.outputs.iter().flatten().cloned().collect();
    all.sort();
    all
}

/// Speculation off so injected storage stalls don't race backup tasks
/// into the exact counters the assertions read.
fn quick_cfg() -> JobConfig {
    JobConfig {
        n_reducers: 3,
        io_sort_bytes: 4096,
        retry_backoff_ms: 1.0,
        speculative: false,
        ..JobConfig::default()
    }
}

/// A 3-node transit DFS with replication 2: one surviving verified
/// replica for every block, plus a third node to host repairs.
fn transit_dfs() -> Dfs {
    Dfs::new(DfsConfig {
        n_nodes: 3,
        block_size: 1 << 20,
        replication: 2,
        ..DfsConfig::default()
    })
}

/// The same job with no DFS and no fault plan — the reference output.
fn fault_free_output(n_splits: usize) -> Vec<(String, u64)> {
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096));
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(n_splits, 30))
        .expect("fault-free job");
    sorted_output(&res)
}

/// Corruption detected from a hedged read's helper thread can land just
/// after the job returns; wait (bounded) until detections have matching
/// repairs before asserting.
fn settle_integrity_counters(dfs: &Dfs) -> (u64, u64) {
    let get = |k: &str| dfs.metrics().counter(k).get();
    for _ in 0..400 {
        let d = get(metrics_keys::BLOCKS_CORRUPT_DETECTED);
        let r = get(metrics_keys::BLOCKS_CORRUPT_REPAIRED);
        if d > 0 && r == d {
            return (d, r);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    (
        get(metrics_keys::BLOCKS_CORRUPT_DETECTED),
        get(metrics_keys::BLOCKS_CORRUPT_REPAIRED),
    )
}

#[test]
fn corrupted_replica_never_reaches_a_reducer() {
    // Map task 0's shuffle output gets its primary replica bit-flipped
    // at write time. The primary is what reducers read first, so the
    // read path must detect the damage, quarantine the replica, serve
    // the fetch from the survivor, and repair — and the reduce output
    // must equal the uncorrupted oracle byte for byte.
    let dfs = transit_dfs();
    let plan = FaultPlan::seeded(0x6E55).corrupt_block("map-00000", 0, 0);
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096))
        .with_shuffle_dfs(dfs.clone())
        .with_fault_plan(plan);
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(8, 30))
        .expect("a corrupt replica must never fail the job");

    assert_eq!(sorted_output(&res), fault_free_output(8));
    assert!(res.counters.get(keys::SHUFFLE_BYTES_DFS) > 0);
    let (detected, repaired) = settle_integrity_counters(&dfs);
    assert!(detected >= 1, "the injected corruption must be detected on read");
    assert_eq!(repaired, detected, "every detection must be repaired from a survivor");
    assert_eq!(res.counters.get(keys::FAILED_ATTEMPTS), 0, "integrity is a DFS-level save");
}

#[test]
fn flaky_and_slow_nodes_still_complete_with_retries_and_hedges() {
    // Every node's first six replica reads flake with a transient error
    // and node 2 limps at 15 ms per read. The job must complete with
    // exact output, the DFS retry loop must have fired (the budgets
    // guarantee some read finds both its replicas flaking at once), and
    // node 2's latency histogram must have pushed reads into hedging.
    let dfs = transit_dfs();
    let plan = FaultPlan::seeded(0xF1A)
        .flaky_read(0, 6)
        .flaky_read(1, 6)
        .flaky_read(2, 6)
        .slow_node(2, 15);
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096))
        .with_shuffle_dfs(dfs.clone())
        .with_fault_plan(plan);
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(12, 30))
        .expect("transient flakes and a limping node must be survivable");

    assert_eq!(sorted_output(&res), fault_free_output(12));
    let get = |k: &str| dfs.metrics().counter(k).get();
    assert!(
        get(metrics_keys::READS_RETRIED) >= 1,
        "a read that finds every replica flaking must retry with backoff"
    );
    assert!(
        get(metrics_keys::READS_HEDGED) >= 1,
        "reads against the limping node must hedge once its p90 is on record"
    );
    assert_eq!(
        get(metrics_keys::BLOCKS_CORRUPT_DETECTED),
        0,
        "flakes and stalls are not corruption"
    );
}

#[test]
fn acceptance_corrupt_slow_and_flaky_job_matches_fault_free_run() {
    // The PR's acceptance scenario: one corrupt_block + one slow_node +
    // flaky_read injections in a single seeded plan. The job completes
    // with byte-identical reduce output, corruption is detected and
    // fully repaired, and hedged reads fired against the slow node.
    let dfs = transit_dfs();
    let plan = FaultPlan::seeded(0xACCE97)
        .corrupt_block("map-00000", 0, 0)
        .flaky_read(0, 6)
        .flaky_read(1, 6)
        .slow_node(2, 15);
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096))
        .with_shuffle_dfs(dfs.clone())
        .with_fault_plan(plan);
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(12, 30))
        .expect("the combined gray-failure matrix must be survivable");

    assert_eq!(sorted_output(&res), fault_free_output(12));
    let (detected, repaired) = settle_integrity_counters(&dfs);
    assert!(detected > 0, "dfs.blocks.corrupt.detected must be nonzero");
    assert_eq!(repaired, detected, "dfs.blocks.corrupt.repaired must equal detected");
    assert!(
        dfs.metrics().counter(metrics_keys::READS_HEDGED).get() > 0,
        "dfs.reads.hedged must be nonzero"
    );
    assert!(res.counters.get(keys::SHUFFLE_BYTES_DFS) > 0);
}
