//! End-to-end fault-tolerance tests: retries, job abort, speculative
//! execution, node loss mid-wave, and seeded determinism — the engine's
//! side of the Hadoop failure model the paper's production runs rely on.

use gesall_mapreduce::counters::keys;
use gesall_mapreduce::runtime::AttemptOutcome;
use gesall_mapreduce::{
    ClusterResources, FaultPlan, GesallError, HashPartitioner, InputSplit, JobConfig, MapContext,
    MapReduceEngine, Mapper, ReduceContext, Reducer, TaskKind,
};

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

/// `n_splits` splits of deterministic text.
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

/// Speculation is off by default here: a panicking attempt can be slow
/// enough (panic-hook output) to look like a straggler, and a backup
/// winning the race turns the panic into an uncounted *moot* failure —
/// correct engine behavior, but it would make exact failure-count
/// assertions racy. The speculative test opts back in.
fn quick_cfg() -> JobConfig {
    JobConfig {
        n_reducers: 3,
        io_sort_bytes: 4096,
        retry_backoff_ms: 1.0,
        speculative: false,
        ..JobConfig::default()
    }
}

/// The same job with no fault plan — the reference output.
fn fault_free_output() -> Vec<(String, u64)> {
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096));
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(8, 30))
        .expect("fault-free job");
    sorted_output(&res)
}

#[test]
fn panicking_attempts_are_retried_until_success() {
    // Map task 2 panics on attempts 0 and 1, succeeds on attempt 2;
    // reduce task 0 panics once. Output must still be exact.
    let plan = FaultPlan::seeded(1)
        .panic_on(TaskKind::Map, 2, 0)
        .panic_on(TaskKind::Map, 2, 1)
        .panic_on(TaskKind::Reduce, 0, 0);
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_fault_plan(plan);
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(8, 30))
        .expect("retries must rescue the job");

    assert_eq!(sorted_output(&res), fault_free_output());
    assert_eq!(res.counters.get(keys::FAILED_ATTEMPTS), 3);
    // The rescued map task committed on its third attempt.
    let winner = res
        .events
        .iter()
        .find(|e| {
            e.kind == TaskKind::Map && e.task_id == 2 && e.outcome == AttemptOutcome::Succeeded
        })
        .expect("task 2 must eventually succeed");
    assert_eq!(winner.attempt, 2);
    // The failures are on the record, with the injected message.
    let failures: Vec<_> = res
        .events
        .iter()
        .filter(|e| e.outcome == AttemptOutcome::Failed)
        .collect();
    assert_eq!(failures.len(), 3);
    assert!(failures
        .iter()
        .all(|e| e.error.as_deref().unwrap_or("").contains("injected panic")));
}

#[test]
fn job_fails_after_max_attempts() {
    // Every attempt of map task 1 panics; with max_attempts = 2 the job
    // must abort with a TaskFailed naming the task.
    let plan = FaultPlan::seeded(2)
        .panic_on(TaskKind::Map, 1, 0)
        .panic_on(TaskKind::Map, 1, 1);
    let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096)).with_fault_plan(plan);
    let cfg = JobConfig {
        max_attempts: 2,
        ..quick_cfg()
    };
    let err = engine
        .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(6, 20))
        .expect_err("job must abort once the task is out of attempts");
    match err {
        GesallError::TaskFailed {
            kind,
            task_id,
            attempts,
            last_error,
        } => {
            assert_eq!(kind, TaskKind::Map);
            assert_eq!(task_id, 1);
            assert_eq!(attempts, 2);
            assert!(last_error.contains("injected panic"), "{last_error}");
        }
        other => panic!("expected TaskFailed, got {other}"),
    }
}

#[test]
fn speculative_backup_beats_slowed_original() {
    // Map task 0's first attempt is stretched far past the median; the
    // straggler detector must launch a backup, which wins the race.
    let plan = FaultPlan::seeded(3).slow_down(TaskKind::Map, 0, 0, 5_000);
    let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096)).with_fault_plan(plan);
    let cfg = JobConfig {
        speculative: true,
        speculative_multiplier: 1.5,
        speculative_min_runtime_ms: 10.0,
        ..quick_cfg()
    };
    let res = engine
        .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(8, 30))
        .expect("speculation must not corrupt the job");

    assert_eq!(sorted_output(&res), fault_free_output());
    assert!(res.counters.get(keys::SPECULATIVE_LAUNCHED) >= 1);
    // The backup attempt committed; the slowed original was killed.
    let winner = res
        .events
        .iter()
        .find(|e| {
            e.kind == TaskKind::Map && e.task_id == 0 && e.outcome == AttemptOutcome::Succeeded
        })
        .expect("task 0 must succeed");
    assert!(winner.speculative, "the backup must win against a 5 s straggler");
    assert!(res.events.iter().any(|e| {
        e.kind == TaskKind::Map
            && e.task_id == 0
            && !e.speculative
            && e.outcome == AttemptOutcome::Killed
    }));
    assert_eq!(res.counters.get(keys::FAILED_ATTEMPTS), 0);
}

#[test]
fn node_death_mid_map_wave_recovers_and_completes() {
    // Node 1 dies after 6 map commits. Its in-flight work is re-queued,
    // its committed map outputs re-executed, and the job still produces
    // the exact fault-free output.
    let plan = {
        let mut p = FaultPlan::seeded(4).kill_node_after_maps(1, 6);
        // Stretch every first attempt so all six slots (two on the doomed
        // node) are mid-flight together: the first six commits then land
        // at ~40 ms, two of them homed on node 1, guaranteeing the death
        // evicts committed map output.
        for t in 0..12 {
            p = p.slow_down(TaskKind::Map, t, 0, 40);
        }
        p
    };
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_fault_plan(plan);
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(12, 30))
        .expect("two surviving nodes must finish the job");

    assert_eq!(sorted_output(&res), fault_free_output_12());
    assert_eq!(engine.dead_nodes(), vec![1]);
    assert!(
        res.counters.get(keys::MAPS_RERUN_ON_NODE_LOSS) >= 1,
        "a node with 2 slots must have committed some of the first 6 maps"
    );
    // No event may claim a commit on the dead node after it died — every
    // success on node 1 must have been re-run (evicted) or the task
    // re-committed elsewhere; the output equality above already proves
    // the shuffle never read lost data.
}

#[test]
fn node_death_after_map_commit_reships_from_dfs_replica() {
    use gesall_dfs::{Dfs, DfsConfig};
    // Same death scenario as above, but with the DFS-transit shuffle on
    // and replication 2: the committed map outputs homed on the dying
    // node survive on a replica, so the engine re-ships instead of
    // re-running — zero map re-executions.
    let dfs = Dfs::new(DfsConfig {
        n_nodes: 3,
        block_size: 1 << 20,
        replication: 2,
        ..DfsConfig::default()
    });
    let plan = {
        let mut p = FaultPlan::seeded(9).kill_node_after_maps(1, 6);
        // Slow every first attempt so the death reliably lands while
        // committed output is homed on node 1 (see the test above).
        for t in 0..12 {
            p = p.slow_down(TaskKind::Map, t, 0, 40);
        }
        p
    };
    let hook_dfs = dfs.clone();
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096))
        .with_shuffle_dfs(dfs.clone())
        .with_fault_plan(plan)
        .on_node_death(move |node| {
            // Mirror the death onto the DFS — its copies on that node are
            // gone — then restore replication from the survivors, as the
            // namenode would.
            hook_dfs.fail_node(node);
            hook_dfs.re_replicate();
        });
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(12, 30))
        .expect("replicated shuffle output must survive one node death");

    assert_eq!(sorted_output(&res), fault_free_output_12());
    assert_eq!(engine.dead_nodes(), vec![1]);
    assert!(
        res.counters.get(keys::MAPS_RESHIPPED_FROM_DFS) >= 1,
        "committed maps homed on the dead node must be served from a replica"
    );
    assert_eq!(
        res.counters.get(keys::MAPS_RERUN_ON_NODE_LOSS),
        0,
        "with replication 2 and a single death no map output is lost"
    );
    assert!(res.counters.get(keys::SHUFFLE_BYTES_DFS) > 0);
}

/// Reference output for the 12-split job used in the node-death test.
fn fault_free_output_12() -> Vec<(String, u64)> {
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096));
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(12, 30))
        .expect("fault-free job");
    sorted_output(&res)
}

#[test]
fn acceptance_rate_panics_plus_node_death_match_fault_free_run() {
    // The PR's acceptance scenario: ~10% of map attempts panic AND one
    // node dies mid-wave; the job must complete with output identical to
    // the fault-free run and the fault counters must be non-zero.
    let plan = FaultPlan::seeded(0xFA_17).with_map_panic_rate(0.10).kill_node_after_maps(2, 5);
    // The plan is deterministic: make sure this seed actually injects at
    // least one first-attempt panic over 16 tasks.
    let planned: usize = (0..16)
        .filter(|&t| plan.should_panic(TaskKind::Map, t, 0))
        .count();
    assert!(planned >= 1, "seed must inject at least one panic");

    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_fault_plan(plan);
    let res = engine
        .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(16, 30))
        .expect("retries + recovery must rescue the job");

    let fault_free = {
        let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096));
        let res = engine
            .run_job(quick_cfg(), &Tokenize, &Sum, &HashPartitioner, word_splits(16, 30))
            .expect("fault-free job");
        sorted_output(&res)
    };
    assert_eq!(sorted_output(&res), fault_free);
    assert!(res.counters.get(keys::FAILED_ATTEMPTS) >= planned as u64);
    assert_eq!(engine.dead_nodes(), vec![2]);
}

#[test]
fn same_seed_gives_byte_identical_histories() {
    // Panics-only plan with speculation off: the attempt history must be
    // byte-identical across two fresh engines. (Speculation and node
    // deaths depend on wall-clock placement, so they are excluded from
    // this contract.)
    let run = || {
        let plan = FaultPlan::seeded(99).with_map_panic_rate(0.3).with_reduce_panic_rate(0.3);
        let engine =
            MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_fault_plan(plan);
        let cfg = JobConfig {
            speculative: false,
            ..quick_cfg()
        };
        engine
            .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(10, 20))
            .expect("bounded panics must be survivable")
            .history()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    // And the history really recorded injected failures.
    assert!(first.iter().any(|l| l.contains("outcome=Failed")));
}
