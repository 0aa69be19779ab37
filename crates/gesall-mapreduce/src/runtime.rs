//! The job driver: input splits → map wave → shuffle → reduce wave.
//!
//! Tasks execute as numbered *attempts* under `catch_unwind` isolation:
//! a panicking attempt is retried (with exponential backoff) up to
//! [`JobConfig::max_attempts`] times before the job fails. Stragglers are
//! backed up by speculative attempts, first finisher wins. Node deaths —
//! injected via [`crate::fault::FaultPlan`] — re-schedule the dead node's
//! in-flight attempts and re-run already-committed map tasks whose
//! shuffle output lived on it, exactly as Hadoop must when a slave is
//! lost mid-job (the failure model behind the paper's production-cluster
//! observations).

use crate::cluster::ClusterResources;
use crate::counters::{keys, Counters};
use crate::error::{panic_message, GesallError};
use crate::fault::{FaultPlan, NodeDeath};
use crate::lease::{LeasePermit, SlotLease};
use crate::shipping;
use crate::shuffle::{reduce_merge_streamed, Segment, SortSpillBuffer, COMPRESS_MIN_BYTES};
use crate::spillpool::SpillPool;
use crate::task::{MapContext, Mapper, Partitioner, ReduceContext, Reducer};
use gesall_dfs::{Dfs, DfsConfig, PinnedPlacement, ReadAffinity, SweepReason};
use gesall_formats::Codec;
use gesall_telemetry::{Phase, Recorder, Span, SpanId, SpanKind};
use parking_lot::{Condvar, Mutex};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-task output slots: `None` until the task's winning attempt commits.
type TaskOutputs<K, V> = Vec<Mutex<Option<Vec<(K, V)>>>>;

/// A committed map task's decision on whether its outputs survive a
/// node death — wired by the DFS-transit shuffle so reducers re-fetch
/// from replicas instead of the engine re-running the map.
type SurvivalCheck<'a> = Option<&'a (dyn Fn(usize) -> bool + Sync)>;

/// How many map-output partition fetches may run ahead of the reduce
/// merge (the bounded prefetch pipeline): the fetch of segment *n+1*
/// always overlaps the merge draining segment *n*.
const SHUFFLE_PREFETCH_DEPTH: usize = 2;

/// A committed map task's shuffle output: one indexed file on the
/// transit DFS, pinned to the mapper's node; each reducer range-reads
/// its partition's frame. `metas` keeps the per-partition shape for
/// shuffle-matrix recording without touching the file again.
struct MapOutput {
    path: String,
    metas: Vec<SegMeta>,
}

/// Per-partition shape of a shipped map output.
struct SegMeta {
    wire_len: usize,
    compressed: bool,
    /// Record count — lets a reducer know how many nonempty source
    /// runs its merge will see *before* fetching them, which is what
    /// allows the fetch to pipeline with the merge without perturbing
    /// the multipass structure (see
    /// [`reduce_merge_streamed`](crate::shuffle::reduce_merge_streamed)).
    records: u64,
}

/// Per-job configuration (the Hadoop parameters the paper tunes).
#[derive(Debug, Clone)]
pub struct JobConfig {
    pub name: String,
    pub n_reducers: usize,
    /// Map-side sort buffer (`mapreduce.task.io.sort.mb`), in bytes here.
    pub io_sort_bytes: usize,
    /// Reduce-side merge fan-in.
    pub merge_factor: usize,
    /// Compress map output (the paper's Snappy setting).
    pub compress_map_output: bool,
    /// Smallest raw partition payload worth compressing; below it the
    /// segment travels raw even with compression on (default
    /// [`COMPRESS_MIN_BYTES`]).
    pub compress_min_bytes: usize,
    /// Sort spill batches with the radix kernel
    /// ([`Wire::sort_prefix`](gesall_formats::wire::Wire::sort_prefix)-keyed
    /// LSD radix, DESIGN.md §5) instead of the comparison sort. Output
    /// is identical either way; off = the scalar-twin benchmark config.
    pub radix_sort: bool,
    pub map_vcores: usize,
    pub map_memory_mb: usize,
    pub reduce_vcores: usize,
    pub reduce_memory_mb: usize,
    /// Maximum attempts per task (`mapreduce.map.maxattempts` analogue).
    /// A task whose attempts all fail aborts the job.
    pub max_attempts: usize,
    /// Base delay before re-running a failed attempt; doubles per
    /// consecutive failure of the same task.
    pub retry_backoff_ms: f64,
    /// Launch backup attempts for stragglers
    /// (`mapreduce.map.speculative` analogue).
    pub speculative: bool,
    /// An attempt is a straggler once it has run this multiple of the
    /// median completed-attempt runtime.
    pub speculative_multiplier: f64,
    /// ... but never before it has run at least this long (keeps
    /// micro-tasks from being pointlessly backed up).
    pub speculative_min_runtime_ms: f64,
    /// Telemetry span to parent this job's trace under ([`SpanId::NONE`]
    /// = a root span). Set by drivers that trace a larger unit — e.g. a
    /// pipeline round — so the job nests inside it.
    pub parent_span: SpanId,
    /// Container-slot lease for this job, handed in by an external
    /// capacity scheduler (gesall-jobsvc). Wave workers take a permit
    /// before each attempt and release it after, so the job never runs
    /// more than the lease's current grant concurrently — the mechanism
    /// that lets many jobs share one engine without oversubscribing the
    /// cluster. `None` (the default) leaves the job unthrottled.
    pub slot_lease: Option<SlotLease>,
    /// DFS directory the job's shuffle transit lives under: transit
    /// files go to `{namespace}/shuffle-{run}/…` instead of the default
    /// `/{name}/shuffle-{run}/…`. The job service sets `/{tenant}/{job}`
    /// here so every tenant's transit sits under one sweepable prefix.
    pub shuffle_namespace: Option<String>,
    /// Codec compressed map-output partitions travel under, for every
    /// key and value type. [`Codec::Lz`] (the default) is the fastest
    /// compressed codec; benchmarks and tests force `Seq` or `Raw` here
    /// for twin runs.
    pub shuffle_codec: Codec,
}

impl Default for JobConfig {
    fn default() -> JobConfig {
        JobConfig {
            name: "job".into(),
            n_reducers: 1,
            io_sort_bytes: 64 * 1024 * 1024,
            merge_factor: 10,
            compress_map_output: true,
            compress_min_bytes: COMPRESS_MIN_BYTES,
            radix_sort: true,
            map_vcores: 1,
            map_memory_mb: 1024,
            reduce_vcores: 1,
            reduce_memory_mb: 1024,
            max_attempts: 4,
            retry_backoff_ms: 10.0,
            speculative: true,
            speculative_multiplier: 1.5,
            speculative_min_runtime_ms: 25.0,
            parent_span: SpanId::NONE,
            slot_lease: None,
            shuffle_namespace: None,
            shuffle_codec: Codec::Lz,
        }
    }
}

/// One unit of map input: typed records plus a locality preference
/// (the node holding the logical partition's blocks).
#[derive(Debug, Clone)]
pub struct InputSplit<K, V> {
    pub label: String,
    pub preferred_node: Option<usize>,
    pub records: Vec<(K, V)>,
}

impl<K, V> InputSplit<K, V> {
    pub fn new(label: impl Into<String>, records: Vec<(K, V)>) -> InputSplit<K, V> {
        InputSplit {
            label: label.into(),
            preferred_node: None,
            records,
        }
    }

    pub fn at_node(mut self, node: usize) -> InputSplit<K, V> {
        self.preferred_node = Some(node);
        self
    }
}

/// Map task or reduce task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    Map,
    Reduce,
}

/// How one task attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt's result was committed as the task's output.
    Succeeded,
    /// The attempt panicked; the task was retried (or the job aborted).
    Failed,
    /// The attempt finished but its result was discarded — it lost a
    /// speculative race, or its node died while it ran.
    Killed,
}

/// One task attempt's history record — the raw material for Fig. 7-style
/// progress plots and for fault post-mortems.
#[derive(Debug, Clone)]
pub struct TaskEvent {
    pub kind: TaskKind,
    pub task_id: usize,
    /// Attempt number within the task, starting at 0.
    pub attempt: usize,
    /// Whether this was a speculative (backup) attempt.
    pub speculative: bool,
    pub outcome: AttemptOutcome,
    /// Panic message for `Failed` attempts.
    pub error: Option<String>,
    pub node: usize,
    /// Milliseconds since job start.
    pub start_ms: f64,
    pub end_ms: f64,
    /// Whether the task ran on its preferred (data-local) node.
    pub data_local: bool,
}

/// Everything a finished job reports.
#[derive(Debug)]
pub struct JobResult<K, V> {
    /// One output vector per reducer (or per map task for map-only jobs).
    pub outputs: Vec<Vec<(K, V)>>,
    pub counters: Counters,
    pub events: Vec<TaskEvent>,
    pub wall_ms: f64,
    pub config: JobConfig,
}

impl<K, V> JobResult<K, V> {
    /// Canonical attempt history: one line per attempt, sorted, with
    /// wall-clock times and node/thread placement excluded. For a given
    /// [`FaultPlan`] seed this is byte-identical across runs — the
    /// contract the seed-determinism test asserts.
    pub fn history(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "{:?} task={} attempt={} speculative={} outcome={:?} error={}",
                    e.kind,
                    e.task_id,
                    e.attempt,
                    e.speculative,
                    e.outcome,
                    e.error.as_deref().unwrap_or("-"),
                )
            })
            .collect();
        lines.sort();
        lines
    }
}

/// The engine: a cluster's worth of worker threads.
pub struct MapReduceEngine {
    cluster: ClusterResources,
    fault_plan: FaultPlan,
    /// Scheduled deaths not yet fired (each fires at most once per engine).
    pending_deaths: Mutex<Vec<NodeDeath>>,
    /// Nodes lost so far; a dead node schedules no further attempts, in
    /// any wave of any subsequent job on this engine.
    dead_nodes: Mutex<HashSet<usize>>,
    /// Called (outside scheduler locks) when a node dies — the DFS layer
    /// hooks re-replication in here.
    node_death_hook: Option<Arc<dyn Fn(usize) + Send + Sync>>,
    /// Span recorder; inert by default ([`Recorder::disabled`]).
    recorder: Recorder,
    /// Engine-wide spill-encoder pool, spawned by the first shuffling job.
    spill_pool: Mutex<Option<Arc<SpillPool>>>,
    /// The DFS every shuffle ships through: the engine's private
    /// transit store until a caller attaches its own.
    shuffle_dfs: Mutex<Dfs>,
    /// Monotone id source for shuffle directories and attempt files, so
    /// retried/speculative attempts and repeated jobs never collide on
    /// a DFS path.
    shuffle_seq: AtomicU64,
    /// Whether the fault plan's storage-layer gray failures have been
    /// armed on the shuffle DFS (once per engine: flaky-read budgets
    /// are consumable and must not be re-armed per job).
    dfs_faults_armed: AtomicBool,
}

impl MapReduceEngine {
    pub fn new(cluster: ClusterResources) -> MapReduceEngine {
        // Private transit: one datanode per cluster node and no extra
        // replicas, so a map output lives only on its mapper's node and
        // a node death forces the map to re-run.
        let transit = Dfs::new(DfsConfig {
            n_nodes: cluster.n_nodes().max(1),
            replication: 1,
            ..DfsConfig::default()
        });
        MapReduceEngine {
            cluster,
            fault_plan: FaultPlan::default(),
            pending_deaths: Mutex::new(Vec::new()),
            dead_nodes: Mutex::new(HashSet::new()),
            node_death_hook: None,
            recorder: Recorder::disabled(),
            spill_pool: Mutex::new(None),
            shuffle_dfs: Mutex::new(transit),
            shuffle_seq: AtomicU64::new(0),
            dfs_faults_armed: AtomicBool::new(false),
        }
    }

    /// The engine-wide spill-encoder pool, created lazily and shared by
    /// every map task of every job on this engine. Starts small (a
    /// quarter of the cores) and grows itself toward one thread per
    /// core (capped at 16) from observed submit-wait backpressure —
    /// map-light jobs keep a couple of threads, all-spill workloads
    /// earn more.
    pub fn spill_pool(&self) -> Arc<SpillPool> {
        self.spill_pool
            .lock()
            .get_or_insert_with(|| {
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(2);
                Arc::new(SpillPool::adaptive((cores / 4).max(2), cores.min(16), 4))
            })
            .clone()
    }

    /// Ship every shuffle through `dfs` instead of the engine's private
    /// transit store (builder form).
    pub fn with_shuffle_dfs(self, dfs: Dfs) -> MapReduceEngine {
        self.set_shuffle_dfs(dfs);
        self
    }

    /// Replace the shuffle-transit DFS on an existing engine.
    pub fn set_shuffle_dfs(&self, dfs: Dfs) {
        *self.shuffle_dfs.lock() = dfs;
    }

    /// A single-node engine with `slots` concurrent tasks.
    pub fn local(slots: usize) -> MapReduceEngine {
        MapReduceEngine::new(ClusterResources::uniform(1, slots.max(1), usize::MAX / 2))
    }

    /// Inject faults according to `plan` (panics, slowdowns, node deaths).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> MapReduceEngine {
        *self.pending_deaths.get_mut() = plan.node_deaths().to_vec();
        self.fault_plan = plan;
        self
    }

    /// Register a callback fired once per node death, after the scheduler
    /// has marked the node dead and re-queued its work.
    pub fn on_node_death(
        mut self,
        hook: impl Fn(usize) + Send + Sync + 'static,
    ) -> MapReduceEngine {
        self.node_death_hook = Some(Arc::new(hook));
        self
    }

    /// Trace jobs run on this engine through `recorder` (builder form).
    pub fn with_recorder(mut self, recorder: Recorder) -> MapReduceEngine {
        self.recorder = recorder;
        self
    }

    /// Swap the span recorder on an existing engine.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    pub fn cluster(&self) -> &ClusterResources {
        &self.cluster
    }

    /// Nodes that have died so far on this engine.
    pub fn dead_nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.dead_nodes.lock().iter().copied().collect();
        v.sort_unstable();
        v
    }

    fn is_dead(&self, node: usize) -> bool {
        self.dead_nodes.lock().contains(&node)
    }

    /// Run a full map + shuffle + reduce job.
    pub fn run_job<M, R>(
        &self,
        config: JobConfig,
        mapper: &M,
        reducer: &R,
        partitioner: &dyn Partitioner<M::OutKey>,
        splits: Vec<InputSplit<M::InKey, M::InValue>>,
    ) -> Result<JobResult<R::OutKey, R::OutValue>, GesallError>
    where
        M: Mapper,
        R: Reducer<InKey = M::OutKey, InValue = M::OutValue>,
    {
        let counters = Counters::new();
        let events: Mutex<Vec<TaskEvent>> = Mutex::new(Vec::new());
        let t0 = Instant::now();
        let job_span = self
            .recorder
            .start(SpanKind::Job, &config.name, config.parent_span);
        let n_maps = splits.len();
        let n_reducers = config.n_reducers.max(1);

        // ---- Map wave -------------------------------------------------
        let shuffle_dfs = self.shuffle_dfs.lock().clone();
        let dfs_nodes = shuffle_dfs.config().n_nodes;
        // Arm the plan's storage-layer gray failures on the transit DFS,
        // once per engine (flaky-read budgets are consumable).
        let faults = self.fault_plan.dfs_faults();
        if !faults.is_empty() && !self.dfs_faults_armed.swap(true, Ordering::SeqCst) {
            for c in &faults.corrupt_blocks {
                shuffle_dfs.inject_corrupt_on_write(&c.path_contains, c.block, c.replica);
            }
            for &(node, n) in &faults.flaky_reads {
                shuffle_dfs.inject_flaky_reads(node, n);
            }
            for &(node, ms) in &faults.slow_nodes {
                shuffle_dfs.inject_slow_node(node, ms);
            }
        }
        // Per-run shuffle directory: the id makes repeated jobs on one
        // engine (and their retried attempts' files, below) disjoint.
        // The run counter is monotone per engine — never wall-clock
        // derived — so transit paths are stable across reruns of the
        // same seed. A namespaced job (job service tenancy) shuffles
        // under its own `/{tenant}/{job}/` prefix instead.
        let shuffle_run = self.shuffle_seq.fetch_add(1, Ordering::Relaxed);
        let shuffle_base = match &config.shuffle_namespace {
            Some(ns) => format!("{}/shuffle-{}", ns.trim_end_matches('/'), shuffle_run),
            None => format!("/{}/shuffle-{}", config.name, shuffle_run),
        };
        // Drop every shipped map output for this run, on success *and*
        // every error path — losing attempts leave orphans at unique
        // paths, so a retention prefix sweep is the only correct
        // cleanup (charged to `dfs.retention.swept.completed`).
        let cleanup_shuffle = || {
            shuffle_dfs.sweep_prefix(&shuffle_base, SweepReason::Completed);
        };
        let map_outputs: Vec<Mutex<Option<MapOutput>>> =
            (0..n_maps).map(|_| Mutex::new(None)).collect();
        let prefs: Vec<Option<usize>> = splits.iter().map(|s| s.preferred_node).collect();
        // Pool busy time and backpressure are engine-wide gauges; the
        // before/after delta around the map wave is this job's share.
        // (Per-attempt bags can't carry it: a discarded speculative
        // attempt's bag is dropped, but its encoder time was real.)
        let pool = self.spill_pool();
        let pool_busy0 = pool.busy_nanos();
        let pool_waits0 = pool.submit_waits();
        let pool_grown0 = pool.workers_grown();

        // A committed map whose home node dies may still be readable
        // from a replica: probe actual datanode storage, excluding every
        // engine-dead node's co-located datanode (the DFS may not have
        // been told about the death yet — the failure hook runs after
        // eviction decisions).
        let survival = |task: usize| -> bool {
            let slot = map_outputs[task].lock();
            let Some(MapOutput { path, .. }) = &*slot else {
                return false;
            };
            let mut excluded: Vec<usize> = self
                .dead_nodes
                .lock()
                .iter()
                .map(|d| d % dfs_nodes)
                .collect();
            excluded.sort_unstable();
            excluded.dedup();
            shuffle_dfs.file_available_excluding(path, &excluded)
        };

        let map_wave = self.run_wave(
            TaskKind::Map,
            &config,
            &counters,
            &events,
            t0,
            job_span.id,
            &prefs,
            &map_outputs,
            Some(&survival),
            |task_id, exec_node, bag| {
                let t_task = Instant::now();
                let split = &splits[task_id];
                bag.add(keys::MAP_INPUT_RECORDS, split.records.len() as u64);
                let mut buf = SortSpillBuffer::new(
                    config.io_sort_bytes,
                    n_reducers,
                    partitioner,
                    config.compress_map_output,
                    pool.clone(),
                    bag.clone(),
                )
                .with_min_compress_bytes(config.compress_min_bytes)
                .with_codec(config.shuffle_codec)
                .with_radix(config.radix_sort);
                {
                    let mut sink = |k: M::OutKey, v: M::OutValue| buf.emit(k, v);
                    let mut ctx = MapContext { sink: &mut sink };
                    for (k, v) in &split.records {
                        mapper.map(k, v, &mut ctx);
                    }
                    mapper.finish(&mut ctx);
                }
                let segments = buf.finish();
                // Map phase = task body minus the timed sub-phases. The
                // sort overlaps the map loop on the encoder pool, so only
                // the merge and the drain wait are subtracted — SortSpill
                // nanos (recorded by the encoders) do not come out of
                // this task's wall-clock.
                let accounted = bag.get(Phase::MapMerge.counter_key())
                    + bag.get(keys::SPILL_POOL_DRAIN_WAIT_NANOS);
                let total = t_task.elapsed().as_nanos() as u64;
                bag.add(Phase::Map.counter_key(), total.saturating_sub(accounted));
                let metas = segments
                    .iter()
                    .map(|s| SegMeta {
                        wire_len: s.wire_len(),
                        compressed: s.is_compressed(),
                        records: s.records,
                    })
                    .collect();
                // Attempt-unique path: a speculative or retried attempt
                // of the same task must never collide with (or clobber)
                // another attempt's file.
                let uid = self.shuffle_seq.fetch_add(1, Ordering::Relaxed);
                let path = format!("{shuffle_base}/map-{task_id:05}-a{uid}.segs");
                let t_ship = Instant::now();
                let pin = PinnedPlacement(exec_node % dfs_nodes);
                if let Err(e) = shipping::store_map_output_with_policy(
                    &shuffle_dfs,
                    &path,
                    &segments,
                    &pin,
                    bag,
                ) {
                    // A panic here is an attempt failure → retry.
                    panic!("shipping map output {path} to DFS: {e}");
                }
                // Persisting the output is the map-side half of the
                // shuffle, not map compute.
                bag.add(
                    Phase::Shuffle.counter_key(),
                    t_ship.elapsed().as_nanos() as u64,
                );
                MapOutput { path, metas }
            },
        );
        counters.add(
            keys::SPILL_POOL_BUSY_NANOS,
            pool.busy_nanos().saturating_sub(pool_busy0),
        );
        counters.add(
            keys::SPILL_POOL_SUBMIT_WAITS,
            pool.submit_waits().saturating_sub(pool_waits0),
        );
        counters.add(
            keys::SPILL_POOL_WORKERS_GROWN,
            pool.workers_grown().saturating_sub(pool_grown0),
        );
        if let Err(e) = map_wave {
            cleanup_shuffle();
            return Err(e);
        }

        // ---- Shuffle + reduce wave ------------------------------------
        let collected: Result<Vec<MapOutput>, GesallError> = map_outputs
            .into_iter()
            .map(|m| {
                m.into_inner().ok_or_else(|| {
                    GesallError::Runtime("map wave ended without committed output".into())
                })
            })
            .collect();
        let map_outputs = match collected {
            Ok(v) => v,
            Err(e) => {
                cleanup_shuffle();
                return Err(e);
            }
        };
        // The shuffle matrix: bytes each reducer pulls from each map
        // output. Recorded once, between the waves, so retried or
        // speculative reduce attempts cannot double-count a cell.
        if self.recorder.is_enabled() {
            for (m, out) in map_outputs.iter().enumerate() {
                for (r, meta) in out.metas.iter().enumerate() {
                    self.recorder
                        .shuffle_cell(m, r, meta.wire_len as u64, meta.compressed);
                }
            }
        }
        let reduce_outputs: TaskOutputs<R::OutKey, R::OutValue> =
            (0..n_reducers).map(|_| Mutex::new(None)).collect();
        let reduce_prefs: Vec<Option<usize>> = vec![None; n_reducers];

        let reduce_wave = self.run_wave(
            TaskKind::Reduce,
            &config,
            &counters,
            &events,
            t0,
            job_span.id,
            &reduce_prefs,
            &reduce_outputs,
            None,
            |partition, exec_node, bag| {
                let t_task = Instant::now();
                // Locality hint: the reducer's exec node, mapped onto
                // the DFS node space exactly as map outputs were
                // pinned, so a fetch prefers the co-located replica.
                let affinity = ReadAffinity::node(exec_node % dfs_nodes);
                // The merge must know its nonempty-run count before
                // fetching anything — the shipped metas carry it.
                let n_runs = map_outputs
                    .iter()
                    .filter(|out| out.metas[partition].records > 0)
                    .count();
                let outputs: &[MapOutput] = &map_outputs;
                let dfs = &shuffle_dfs;
                // Pull this partition from every map output: a DFS range
                // read per shipped file, so only this reducer's frame
                // travels. The fetcher thread runs up to
                // SHUFFLE_PREFETCH_DEPTH segments ahead of the merge;
                // only the time the merge *waits* on it is charged as
                // shuffle — overlapped fetch time is the latency the
                // pipeline hides.
                let grouped = std::thread::scope(|scope| {
                    let (tx, rx) = std::sync::mpsc::sync_channel::<Result<Segment, String>>(
                        SHUFFLE_PREFETCH_DEPTH,
                    );
                    scope.spawn(move || {
                        for MapOutput { path, .. } in outputs {
                            // The DFS already retries transient replica
                            // failures internally; this outer loop covers
                            // whole-op failures that outlive its budget
                            // (e.g. a deadline expiry). Non-retryable
                            // errors — corrupt beyond repair, missing
                            // file — surface immediately: that's an
                            // attempt failure, and the scheduler's re-run
                            // (or reship probe) is the right recovery.
                            let mut tries = 0usize;
                            let res = loop {
                                match shipping::fetch_partition_at(
                                    dfs, path, partition, affinity, bag,
                                ) {
                                    Ok(seg) => {
                                        bag.add(keys::SHUFFLE_BYTES_DFS, seg.wire_len() as u64);
                                        break Ok(seg);
                                    }
                                    Err(e) if e.is_retryable() && tries < 2 => {
                                        tries += 1;
                                        bag.add(keys::SHUFFLE_FETCH_RETRIES, 1);
                                    }
                                    Err(e) => {
                                        break Err(format!(
                                            "fetching partition {partition} of {path}: {e}"
                                        ));
                                    }
                                }
                            };
                            let failed = res.is_err();
                            // A closed channel means the merge side is
                            // done (or unwinding); either way stop.
                            if tx.send(res).is_err() || failed {
                                return;
                            }
                        }
                    });
                    let next_segment = || match rx.try_recv() {
                        Ok(res) => {
                            // Already resident: the prefetch ran ahead
                            // of the merge drain.
                            bag.add(keys::SHUFFLE_FETCH_PREFETCHED, 1);
                            Some(res.unwrap_or_else(|e| panic!("{e}")))
                        }
                        // Blocking wait: the prefetch hasn't caught up.
                        // The wait elapses inside the merge, whose own
                        // ledger attributes supplier time to the shuffle
                        // phase — no charge here.
                        Err(std::sync::mpsc::TryRecvError::Empty) => match rx.recv() {
                            Ok(res) => Some(res.unwrap_or_else(|e| panic!("{e}"))),
                            Err(_) => None,
                        },
                        Err(std::sync::mpsc::TryRecvError::Disconnected) => None,
                    };
                    reduce_merge_streamed::<M::OutKey, M::OutValue>(
                        n_runs,
                        next_segment,
                        config.merge_factor,
                        bag,
                    )
                });
                let mut out = Vec::new();
                {
                    let mut ctx = ReduceContext { out: &mut out };
                    for (k, vs) in grouped {
                        reducer.reduce(k, vs, &mut ctx);
                    }
                    reducer.finish(&mut ctx);
                }
                bag.add(keys::REDUCE_OUTPUT_RECORDS, out.len() as u64);
                // Reduce phase = task body minus shuffle + merge time.
                let accounted = bag.get(Phase::Shuffle.counter_key())
                    + bag.get(Phase::ReduceMerge.counter_key());
                let total = t_task.elapsed().as_nanos() as u64;
                bag.add(Phase::Reduce.counter_key(), total.saturating_sub(accounted));
                out
            },
        );
        if let Err(e) = reduce_wave {
            cleanup_shuffle();
            return Err(e);
        }

        let collected: Result<Vec<_>, GesallError> = reduce_outputs
            .into_iter()
            .map(|m| {
                m.into_inner().ok_or_else(|| {
                    GesallError::Runtime("reduce wave ended without committed output".into())
                })
            })
            .collect();
        // Shuffle transit is consumed; free the run's DFS files whether
        // the job succeeded or not.
        cleanup_shuffle();
        let outputs = collected?;
        let mut events = events.into_inner();
        sort_events(&mut events);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.recorder.end_with(
            job_span,
            &config.name,
            vec![
                ("n_maps".into(), n_maps.to_string()),
                ("n_reducers".into(), n_reducers.to_string()),
            ],
            counters.snapshot(),
        );
        Ok(JobResult {
            outputs,
            counters,
            events,
            wall_ms,
            config,
        })
    }

    /// Run a map-only job (the paper's Round 1): each map task's emitted
    /// records come back in emission order, one output per split.
    pub fn run_map_only<M>(
        &self,
        config: JobConfig,
        mapper: &M,
        splits: Vec<InputSplit<M::InKey, M::InValue>>,
    ) -> Result<JobResult<M::OutKey, M::OutValue>, GesallError>
    where
        M: Mapper,
    {
        let counters = Counters::new();
        let events: Mutex<Vec<TaskEvent>> = Mutex::new(Vec::new());
        let t0 = Instant::now();
        let job_span = self
            .recorder
            .start(SpanKind::Job, &config.name, config.parent_span);
        let n_maps = splits.len();
        let outputs: TaskOutputs<M::OutKey, M::OutValue> =
            (0..n_maps).map(|_| Mutex::new(None)).collect();
        let prefs: Vec<Option<usize>> = splits.iter().map(|s| s.preferred_node).collect();

        self.run_wave(
            TaskKind::Map,
            &config,
            &counters,
            &events,
            t0,
            job_span.id,
            &prefs,
            &outputs,
            None,
            |task_id, _exec_node, bag| {
                let t_task = Instant::now();
                let split = &splits[task_id];
                bag.add(keys::MAP_INPUT_RECORDS, split.records.len() as u64);
                let mut out = Vec::new();
                {
                    let mut sink = |k, v| out.push((k, v));
                    let mut ctx = MapContext { sink: &mut sink };
                    for (k, v) in &split.records {
                        mapper.map(k, v, &mut ctx);
                    }
                    mapper.finish(&mut ctx);
                }
                bag.add(keys::MAP_OUTPUT_RECORDS, out.len() as u64);
                // No sort/spill in a map-only job: the whole body is map.
                bag.add(Phase::Map.counter_key(), t_task.elapsed().as_nanos() as u64);
                out
            },
        )?;

        let outputs = outputs
            .into_inner_vec()
            .into_iter()
            .map(|o| {
                o.ok_or_else(|| {
                    GesallError::Runtime("map wave ended without committed output".into())
                })
            })
            .collect::<Result<_, _>>()?;
        let mut events = events.into_inner();
        sort_events(&mut events);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.recorder.end_with(
            job_span,
            &config.name,
            vec![("n_maps".into(), n_maps.to_string())],
            counters.snapshot(),
        );
        Ok(JobResult {
            outputs,
            counters,
            events,
            wall_ms,
            config,
        })
    }

    /// Execute one wave of tasks with per-node container slots, attempt
    /// retries, speculative backups, and node-loss recovery.
    #[allow(clippy::too_many_arguments)]
    fn run_wave<T, F>(
        &self,
        kind: TaskKind,
        config: &JobConfig,
        counters: &Counters,
        events: &Mutex<Vec<TaskEvent>>,
        t0: Instant,
        job_span: SpanId,
        prefs: &[Option<usize>],
        outputs: &[Mutex<Option<T>>],
        survives: SurvivalCheck<'_>,
        body: F,
    ) -> Result<(), GesallError>
    where
        T: Send,
        F: Fn(usize, usize, &Counters) -> T + Send + Sync,
    {
        let n_tasks = prefs.len();
        let wave_name = match kind {
            TaskKind::Map => "map-wave",
            TaskKind::Reduce => "reduce-wave",
        };
        let wave_span = self.recorder.start(SpanKind::Wave, wave_name, job_span);
        let done: Vec<AtomicBool> = (0..n_tasks).map(|_| AtomicBool::new(false)).collect();
        let state = Mutex::new(WaveState {
            pending: (0..n_tasks)
                .map(|t| PendingTask {
                    task: t,
                    not_before: None,
                })
                .collect(),
            running: Vec::new(),
            tasks: (0..n_tasks)
                .map(|t| TaskState {
                    preferred: prefs[t],
                    failures: 0,
                    next_attempt: 0,
                    backup_launched: false,
                    home: None,
                })
                .collect(),
            remaining: n_tasks,
            completed_ms: Vec::new(),
            total_commits: 0,
            fatal: None,
        });
        // Wakes idle workers when the schedule changes (commit, requeue,
        // fatal) instead of letting them busy-poll the state mutex.
        let idle = Condvar::new();
        let wave = WaveCtx {
            engine: self,
            kind,
            config,
            counters,
            events,
            t0,
            wave_span: wave_span.id,
            state: &state,
            idle: &idle,
            done: &done,
            outputs,
            survives,
        };

        // Deaths already due (threshold 0) fire before any work starts.
        if kind == TaskKind::Map {
            let fired = {
                let mut st = state.lock();
                wave.fire_due_deaths(&mut st)
            };
            wave.notify_deaths(&fired);
        }

        let (task_vcores, task_memory_mb) = match kind {
            TaskKind::Map => (config.map_vcores, config.map_memory_mb),
            TaskKind::Reduce => (config.reduce_vcores, config.reduce_memory_mb),
        };

        let scope_result = crossbeam::thread::scope(|s| {
            let mut first_live_worker = true;
            for node in 0..self.cluster.n_nodes() {
                if self.is_dead(node) {
                    continue;
                }
                let slots = self.cluster.slots_on(node, task_vcores, task_memory_mb);
                let slots = slots.max(if first_live_worker { 1 } else { 0 });
                if slots > 0 {
                    first_live_worker = false;
                }
                for _ in 0..slots {
                    let wave = &wave;
                    let body = &body;
                    s.spawn(move |_| wave.worker_loop(node, body));
                }
            }
        });
        scope_result.map_err(|_| GesallError::Runtime("task wave worker panicked".into()))?;

        let st = state.into_inner();
        self.recorder.end_with(
            wave_span,
            wave_name,
            Vec::new(),
            vec![
                ("tasks".to_string(), n_tasks as u64),
                ("commits".to_string(), st.total_commits as u64),
            ],
        );
        if let Some(fatal) = st.fatal {
            return Err(fatal);
        }
        if st.remaining > 0 {
            return Err(GesallError::NoHealthyNodes {
                pending_tasks: st.remaining,
            });
        }
        Ok(())
    }
}

fn sort_events(events: &mut [TaskEvent]) {
    events.sort_by(|a, b| {
        (a.kind == TaskKind::Reduce, a.task_id, a.attempt).cmp(&(
            b.kind == TaskKind::Reduce,
            b.task_id,
            b.attempt,
        ))
    });
}

/// Helper so `Vec<Mutex<Option<T>>>` unwraps uniformly.
trait IntoInnerVec<T> {
    fn into_inner_vec(self) -> Vec<Option<T>>;
}

impl<T> IntoInnerVec<T> for Vec<Mutex<Option<T>>> {
    fn into_inner_vec(self) -> Vec<Option<T>> {
        self.into_iter().map(|m| m.into_inner()).collect()
    }
}

struct PendingTask {
    task: usize,
    /// Earliest time the task may be re-attempted (retry backoff).
    not_before: Option<Instant>,
}

struct TaskState {
    preferred: Option<usize>,
    failures: usize,
    next_attempt: usize,
    backup_launched: bool,
    /// Node whose local disk holds the committed output (shuffle home).
    home: Option<usize>,
}

struct RunningAttempt {
    task: usize,
    attempt: usize,
    started: Instant,
    speculative: bool,
}

struct WaveState {
    pending: Vec<PendingTask>,
    running: Vec<RunningAttempt>,
    tasks: Vec<TaskState>,
    /// Tasks without a committed output.
    remaining: usize,
    /// Durations of committed attempts — the speculative baseline.
    completed_ms: Vec<f64>,
    /// Successful commits in this wave (monotone; re-runs recount).
    total_commits: usize,
    fatal: Option<GesallError>,
}

#[derive(Clone, Copy)]
struct Assignment {
    task: usize,
    attempt: usize,
    speculative: bool,
    data_local: bool,
}

enum Acquired {
    Got(Assignment),
    Idle,
    Exit,
}

/// Marker error: the job's slot lease has no free permit right now.
struct LeaseSaturated;

struct WaveCtx<'a, T> {
    engine: &'a MapReduceEngine,
    kind: TaskKind,
    config: &'a JobConfig,
    counters: &'a Counters,
    events: &'a Mutex<Vec<TaskEvent>>,
    t0: Instant,
    wave_span: SpanId,
    state: &'a Mutex<WaveState>,
    /// Notified whenever the schedule changes; see [`WaveCtx::idle_wait`].
    idle: &'a Condvar,
    done: &'a [AtomicBool],
    outputs: &'a [Mutex<Option<T>>],
    /// Probe whether a committed task's output survives a node death
    /// (a shipped map output); `None` means outputs live only on their
    /// home node.
    survives: SurvivalCheck<'a>,
}

impl<T> WaveCtx<'_, T> {
    fn now_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    fn worker_loop<F>(&self, node: usize, body: &F)
    where
        F: Fn(usize, usize, &Counters) -> T + Send + Sync,
    {
        // Delay scheduling: prefer local tasks; wait one beat before
        // stealing a remote one (or launching a backup attempt). The
        // beats are condvar waits, not sleeps: a commit or requeue
        // wakes idle workers immediately, while the timeouts remain
        // as the backstop that drives the time-based machinery
        // (retry backoff expiry, straggler detection).
        let mut allow_steal = false;
        loop {
            // The job's slot lease gates admission to *work*, not the
            // worker threads themselves: a saturated lease parks the
            // worker until a running attempt releases its permit or the
            // grant grows. Shrinking the grant therefore reclaims slots
            // preemption-free — in-flight attempts finish, new ones
            // simply don't start.
            let permit = match self.lease_permit() {
                Ok(p) => p,
                Err(LeaseSaturated) => {
                    if self.wave_over(node) {
                        break;
                    }
                    self.idle_wait(Duration::from_micros(500));
                    allow_steal = true;
                    continue;
                }
            };
            match self.acquire(node, allow_steal) {
                Acquired::Exit => break,
                Acquired::Got(a) => {
                    self.run_attempt(node, a, body);
                    allow_steal = false;
                }
                Acquired::Idle => {
                    // An idle worker holds no permit — a parked thread
                    // is not an occupied container slot.
                    drop(permit);
                    self.idle_wait(Duration::from_micros(if allow_steal { 200 } else { 500 }));
                    allow_steal = true;
                }
            }
        }
    }

    /// Take a permit on the job's slot lease (`Ok(None)` for unleased
    /// jobs, which may use every spawned worker).
    fn lease_permit(&self) -> Result<Option<LeasePermit>, LeaseSaturated> {
        match &self.config.slot_lease {
            None => Ok(None),
            Some(lease) => lease.try_acquire().map(Some).ok_or(LeaseSaturated),
        }
    }

    /// Whether this worker should exit instead of waiting for a permit.
    fn wave_over(&self, node: usize) -> bool {
        let st = self.state.lock();
        st.fatal.is_some() || st.remaining == 0 || self.engine.is_dead(node)
    }

    /// Park on the schedule-change condvar for at most `timeout`,
    /// counting how the worker came back: a notification
    /// ([`keys::SCHED_WAKEUPS`]) means the schedule changed while we
    /// slept; a timeout ([`keys::SCHED_IDLE_TIMEOUTS`]) is the old
    /// busy-poll beat, now visible in the counters.
    fn idle_wait(&self, timeout: Duration) {
        let mut st = self.state.lock();
        // Re-check under the lock — a notify between the failed acquire
        // and this wait must not be lost.
        if st.fatal.is_some() || st.remaining == 0 {
            return;
        }
        if self.idle.wait_for(&mut st, timeout).timed_out() {
            self.counters.add(keys::SCHED_IDLE_TIMEOUTS, 1);
        } else {
            self.counters.add(keys::SCHED_WAKEUPS, 1);
        }
    }

    /// Pick work for `node`. Local pending tasks first; with
    /// `allow_steal`, remote pending tasks, then speculative backups.
    fn acquire(&self, node: usize, allow_steal: bool) -> Acquired {
        let mut st = self.state.lock();
        if st.fatal.is_some() || st.remaining == 0 || self.engine.is_dead(node) {
            return Acquired::Exit;
        }
        let now = Instant::now();
        let ready = |p: &PendingTask| p.not_before.is_none_or(|nb| nb <= now);

        let local_pos = st.pending.iter().position(|p| {
            ready(p)
                && (st.tasks[p.task].preferred == Some(node) || st.tasks[p.task].preferred.is_none())
        });
        let pos = match local_pos {
            Some(p) => Some(p),
            None if allow_steal => st.pending.iter().position(ready),
            None => None,
        };
        if let Some(pos) = pos {
            let task = st.pending.remove(pos).task;
            let ts = &mut st.tasks[task];
            let attempt = ts.next_attempt;
            ts.next_attempt += 1;
            let data_local = ts.preferred == Some(node) || ts.preferred.is_none();
            st.running.push(RunningAttempt {
                task,
                attempt,
                started: now,
                speculative: false,
            });
            return Acquired::Got(Assignment {
                task,
                attempt,
                speculative: false,
                data_local,
            });
        }

        if allow_steal && self.config.speculative && !st.completed_ms.is_empty() {
            let mut sorted = st.completed_ms.clone();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            let threshold = (self.config.speculative_multiplier * median)
                .max(self.config.speculative_min_runtime_ms);
            let straggler = st.running.iter().position(|r| {
                !r.speculative
                    && !self.done[r.task].load(Ordering::SeqCst)
                    && !st.tasks[r.task].backup_launched
                    && r.started.elapsed().as_secs_f64() * 1e3 > threshold
            });
            if let Some(pos) = straggler {
                let task = st.running[pos].task;
                let ts = &mut st.tasks[task];
                ts.backup_launched = true;
                let attempt = ts.next_attempt;
                ts.next_attempt += 1;
                let data_local = ts.preferred == Some(node) || ts.preferred.is_none();
                st.running.push(RunningAttempt {
                    task,
                    attempt,
                    started: now,
                    speculative: true,
                });
                self.counters.add(keys::SPECULATIVE_LAUNCHED, 1);
                return Acquired::Got(Assignment {
                    task,
                    attempt,
                    speculative: true,
                    data_local,
                });
            }
        }
        Acquired::Idle
    }

    fn run_attempt<F>(&self, node: usize, a: Assignment, body: &F)
    where
        F: Fn(usize, usize, &Counters) -> T + Send + Sync,
    {
        let start_ms = self.now_ms();

        // Injected straggler: sleep in small beats, bailing out early if
        // the task is won by another attempt or this node dies (the
        // cancellation path for speculative losers).
        if let Some(ms) = self
            .engine
            .fault_plan
            .slowdown_ms(self.kind, a.task, a.attempt)
        {
            let deadline = Instant::now() + Duration::from_millis(ms);
            while Instant::now() < deadline {
                if self.done[a.task].load(Ordering::SeqCst) || self.engine.is_dead(node) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        let bag = Counters::new();
        let plan = &self.engine.fault_plan;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if plan.should_panic(self.kind, a.task, a.attempt) {
                panic!("{}", FaultPlan::panic_message(self.kind, a.task, a.attempt));
            }
            body(a.task, node, &bag)
        }));

        let end_ms = self.now_ms();
        let mut st = self.state.lock();
        let started = st
            .running
            .iter()
            .position(|r| r.task == a.task && r.attempt == a.attempt)
            .map(|pos| st.running.remove(pos).started);
        if st.fatal.is_some() {
            return; // Job already failed; drop silently.
        }
        let event = |outcome: AttemptOutcome, error: Option<String>| TaskEvent {
            kind: self.kind,
            task_id: a.task,
            attempt: a.attempt,
            speculative: a.speculative,
            outcome,
            error,
            node,
            start_ms,
            end_ms,
            data_local: a.data_local,
        };
        // Every attempt leaves both a TaskEvent (the determinism
        // contract) and, when tracing is on, a TaskAttempt span.
        let log_event = |outcome: AttemptOutcome, error: Option<String>| {
            let e = event(outcome, error);
            self.record_attempt_span(&e, &bag);
            self.events.lock().push(e);
        };

        match result {
            Ok(value) => {
                if self.done[a.task].load(Ordering::SeqCst) {
                    // Lost the race to another attempt of the same task.
                    if st.tasks[a.task].backup_launched {
                        self.counters.add(keys::SPECULATIVE_WASTED, 1);
                    }
                    log_event(AttemptOutcome::Killed, None);
                    return;
                }
                if self.engine.is_dead(node) {
                    // The node died while this attempt ran; its local
                    // output is gone. Re-queue the task.
                    log_event(AttemptOutcome::Killed, None);
                    st.pending.push(PendingTask {
                        task: a.task,
                        not_before: None,
                    });
                    drop(st);
                    self.idle.notify_all();
                    return;
                }
                *self.outputs[a.task].lock() = Some(value);
                self.done[a.task].store(true, Ordering::SeqCst);
                st.tasks[a.task].home = Some(node);
                st.remaining -= 1;
                if let Some(started) = started {
                    st.completed_ms
                        .push(started.elapsed().as_secs_f64() * 1e3);
                }
                st.total_commits += 1;
                self.counters.merge(&bag);
                log_event(AttemptOutcome::Succeeded, None);
                let fired = if self.kind == TaskKind::Map {
                    self.fire_due_deaths(&mut st)
                } else {
                    Vec::new()
                };
                drop(st);
                // Wake idlers: remaining may have hit zero, a death may
                // have re-queued tasks, and a fresh completion time may
                // arm the straggler detector.
                self.idle.notify_all();
                self.notify_deaths(&fired);
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                if self.done[a.task].load(Ordering::SeqCst) {
                    // The task already succeeded elsewhere; this failure
                    // is moot and must not count against the task.
                    log_event(AttemptOutcome::Failed, Some(msg));
                    return;
                }
                self.counters.add(keys::FAILED_ATTEMPTS, 1);
                st.tasks[a.task].failures += 1;
                let failures = st.tasks[a.task].failures;
                log_event(AttemptOutcome::Failed, Some(msg.clone()));
                if failures >= self.config.max_attempts {
                    st.fatal = Some(GesallError::TaskFailed {
                        kind: self.kind,
                        task_id: a.task,
                        attempts: failures,
                        last_error: msg,
                    });
                } else {
                    let backoff = self.config.retry_backoff_ms
                        * (1u64 << (failures - 1).min(16)) as f64;
                    st.pending.push(PendingTask {
                        task: a.task,
                        not_before: Some(Instant::now() + Duration::from_secs_f64(backoff / 1e3)),
                    });
                }
                drop(st);
                // Wake idlers: either everyone must exit on the fatal, or
                // a retry just became schedulable (its backoff expiry is
                // covered by the wait timeout).
                self.idle.notify_all();
            }
        }
    }

    /// Emit one TaskAttempt span mirroring `e`, parented under this
    /// wave's span, with the attempt's counter bag attached as metrics.
    /// One branch on a disabled recorder, nothing else.
    fn record_attempt_span(&self, e: &TaskEvent, bag: &Counters) {
        let rec = &self.engine.recorder;
        if !rec.is_enabled() {
            return;
        }
        // Event times are relative to the job's t0; shift them into the
        // recorder's epoch so spans from many jobs share one timeline.
        let offset = rec.now_ms() - self.now_ms();
        let kind = match e.kind {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        };
        rec.registry()
            .histogram(&format!("attempt.{kind}.ms"))
            .record((e.end_ms - e.start_ms).max(0.0).round() as u64);
        let mut meta = vec![
            ("node".to_string(), e.node.to_string()),
            ("outcome".to_string(), format!("{:?}", e.outcome)),
            ("speculative".to_string(), e.speculative.to_string()),
            ("data_local".to_string(), e.data_local.to_string()),
        ];
        if let Some(err) = &e.error {
            meta.push(("error".to_string(), err.clone()));
        }
        rec.record(Span {
            id: rec.fresh_id(),
            parent: self.wave_span,
            kind: SpanKind::TaskAttempt,
            name: format!("{kind}-{}.{}", e.task_id, e.attempt),
            start_ms: e.start_ms + offset,
            end_ms: e.end_ms + offset,
            meta,
            metrics: bag.snapshot(),
        });
    }

    /// Fire scheduled deaths whose map-commit threshold has been reached.
    /// Runs under the wave lock: marks the node dead, evicts committed
    /// map outputs homed on it, and re-queues those tasks. Returns the
    /// nodes that died so the caller can notify the hook lock-free.
    fn fire_due_deaths(&self, st: &mut WaveState) -> Vec<usize> {
        let mut fired = Vec::new();
        let mut pending_deaths = self.engine.pending_deaths.lock();
        let mut i = 0;
        while i < pending_deaths.len() {
            if pending_deaths[i].after_completed_maps <= st.total_commits {
                let death = pending_deaths.remove(i);
                self.engine.dead_nodes.lock().insert(death.node);
                fired.push(death.node);
                // Completed map outputs on the dead node's disk are gone:
                // evict and re-run, as Hadoop re-runs map tasks whose
                // shuffle output was on a lost slave. With DFS-transit
                // shuffle the output may survive on a replica — probe
                // every committed task (a later death can take the last
                // replica of a task whose home died earlier), keep the
                // survivors, and only re-run the rest.
                for task in 0..st.tasks.len() {
                    if !self.done[task].load(Ordering::SeqCst) {
                        continue;
                    }
                    let homed_here = st.tasks[task].home == Some(death.node);
                    let survives_death = match self.survives {
                        Some(check) => check(task),
                        // Map-only output lives only on its home.
                        None => !homed_here,
                    };
                    if survives_death {
                        if homed_here {
                            self.counters.add(keys::MAPS_RESHIPPED_FROM_DFS, 1);
                        }
                        continue;
                    }
                    *self.outputs[task].lock() = None;
                    self.done[task].store(false, Ordering::SeqCst);
                    st.tasks[task].home = None;
                    st.tasks[task].backup_launched = false;
                    st.remaining += 1;
                    st.pending.push(PendingTask {
                        task,
                        not_before: None,
                    });
                    self.counters.add(keys::MAPS_RERUN_ON_NODE_LOSS, 1);
                }
            } else {
                i += 1;
            }
        }
        fired
    }

    fn notify_deaths(&self, nodes: &[usize]) {
        if let Some(hook) = &self.engine.node_death_hook {
            for &node in nodes {
                hook(node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::HashPartitioner;

    /// Word-count: the canonical smoke test.
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

    fn word_splits(n_splits: usize, lines_per: usize) -> Vec<InputSplit<u64, String>> {
        (0..n_splits)
            .map(|s| {
                let records = (0..lines_per)
                    .map(|i| {
                        (
                            i as u64,
                            format!("alpha beta w{} alpha", (s * lines_per + i) % 13),
                        )
                    })
                    .collect();
                InputSplit::new(format!("split-{s}"), records)
            })
            .collect()
    }

    #[test]
    fn word_count_end_to_end() {
        let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096));
        let cfg = JobConfig {
            n_reducers: 4,
            io_sort_bytes: 512, // force spills
            map_memory_mb: 1024,
            reduce_memory_mb: 1024,
            ..JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(6, 50))
            .unwrap();
        let mut all: Vec<(String, u64)> = res.outputs.into_iter().flatten().collect();
        all.sort();
        let alpha = all.iter().find(|(k, _)| k == "alpha").unwrap();
        assert_eq!(alpha.1, 2 * 6 * 50);
        let beta = all.iter().find(|(k, _)| k == "beta").unwrap();
        assert_eq!(beta.1, 6 * 50);
        // 13 w-words + alpha + beta.
        assert_eq!(all.len(), 15);
        // Counters sane.
        assert_eq!(res.counters.get(keys::MAP_INPUT_RECORDS), 300);
        assert_eq!(res.counters.get(keys::MAP_OUTPUT_RECORDS), 1200);
        assert!(res.counters.get(keys::MAP_SPILLS) >= 6);
        assert_eq!(res.counters.get(keys::SHUFFLE_RECORDS), 1200);
        assert_eq!(res.counters.get(keys::REDUCE_OUTPUT_RECORDS), 15);
        // Events: 6 maps + 4 reduces, all first-attempt successes in a
        // fault-free run.
        assert_eq!(
            res.events.iter().filter(|e| e.kind == TaskKind::Map).count(),
            6
        );
        assert_eq!(
            res.events
                .iter()
                .filter(|e| e.kind == TaskKind::Reduce)
                .count(),
            4
        );
        assert!(res
            .events
            .iter()
            .all(|e| e.outcome == AttemptOutcome::Succeeded && e.attempt == 0));
        assert_eq!(res.counters.get(keys::FAILED_ATTEMPTS), 0);
    }

    #[test]
    fn deterministic_across_runs_and_cluster_shapes() {
        let splits = || word_splits(5, 40);
        let run = |nodes: usize, slots: usize, reducers: usize| {
            let engine = MapReduceEngine::new(ClusterResources::uniform(nodes, slots, 8192));
            let cfg = JobConfig {
                n_reducers: reducers,
                io_sort_bytes: 1024,
                ..JobConfig::default()
            };
            let mut res = engine
                .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, splits())
                .unwrap()
                .outputs;
            for o in &mut res {
                o.sort();
            }
            res
        };
        let a = run(1, 1, 3);
        let b = run(4, 4, 3);
        assert_eq!(a, b, "output must not depend on physical parallelism");
    }

    #[test]
    fn map_only_preserves_order_per_split() {
        struct Identity;
        impl Mapper for Identity {
            type InKey = u64;
            type InValue = String;
            type OutKey = u64;
            type OutValue = String;
            fn map(&self, k: &u64, v: &String, ctx: &mut MapContext<'_, u64, String>) {
                ctx.emit(*k, v.clone());
            }
        }
        let engine = MapReduceEngine::local(4);
        let splits = vec![
            InputSplit::new("a", vec![(3u64, "x".to_string()), (1, "y".into())]),
            InputSplit::new("b", vec![(9u64, "z".to_string())]),
        ];
        let res = engine
            .run_map_only(JobConfig::default(), &Identity, splits)
            .unwrap();
        assert_eq!(res.outputs.len(), 2);
        assert_eq!(res.outputs[0], vec![(3, "x".to_string()), (1, "y".into())]);
        assert_eq!(res.outputs[1], vec![(9, "z".to_string())]);
    }

    #[test]
    fn locality_preference_honored_when_slots_free() {
        let engine = MapReduceEngine::new(ClusterResources::uniform(4, 2, 4096));
        struct Nop;
        impl Mapper for Nop {
            type InKey = u64;
            type InValue = u64;
            type OutKey = u64;
            type OutValue = u64;
            fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<'_, u64, u64>) {
                ctx.emit(*k, *v);
            }
        }
        let splits: Vec<InputSplit<u64, u64>> = (0..4)
            .map(|i| InputSplit::new(format!("s{i}"), vec![(i as u64, 0)]).at_node(i))
            .collect();
        let res = engine
            .run_map_only(JobConfig::default(), &Nop, splits)
            .unwrap();
        let local = res.events.iter().filter(|e| e.data_local).count();
        assert!(
            local >= 3,
            "most tasks should run data-local: {:?}",
            res.events
        );
    }

    #[test]
    fn single_reducer_gets_everything_sorted_by_key() {
        struct KeyEcho;
        impl Mapper for KeyEcho {
            type InKey = u64;
            type InValue = u64;
            type OutKey = u64;
            type OutValue = u64;
            fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<'_, u64, u64>) {
                ctx.emit(*k, *v);
            }
        }
        struct CollectOrdered;
        impl Reducer for CollectOrdered {
            type InKey = u64;
            type InValue = u64;
            type OutKey = u64;
            type OutValue = u64;
            fn reduce(&self, k: u64, vs: Vec<u64>, ctx: &mut ReduceContext<'_, u64, u64>) {
                for v in vs {
                    ctx.emit(k, v);
                }
            }
        }
        let engine = MapReduceEngine::local(3);
        let splits: Vec<InputSplit<u64, u64>> = (0..3)
            .map(|s| {
                InputSplit::new(
                    format!("s{s}"),
                    (0..100u64).rev().map(|i| (i * 7 % 50, i)).collect(),
                )
            })
            .collect();
        let cfg = JobConfig {
            n_reducers: 1,
            ..JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &KeyEcho, &CollectOrdered, &HashPartitioner, splits)
            .unwrap();
        let keys: Vec<u64> = res.outputs[0].iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "reduce input must arrive key-sorted");
        assert_eq!(keys.len(), 300);
    }

    #[test]
    fn spills_run_on_the_encoder_pool() {
        // Every spill of a starved sort buffer must be submitted to the
        // engine's encoder pool, and the pool must do real work.
        let engine = MapReduceEngine::new(ClusterResources::uniform(2, 2, 4096));
        let cfg = JobConfig {
            n_reducers: 3,
            io_sort_bytes: 512, // force many spills per task
            ..JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(5, 40))
            .unwrap();
        assert!(
            res.counters.get(keys::SPILL_POOL_JOBS) > 0,
            "spills must be submitted to the pool"
        );
        assert_eq!(
            res.counters.get(keys::SPILL_POOL_JOBS),
            res.counters.get(keys::MAP_SPILLS)
        );
        assert!(res.counters.get(keys::SPILL_POOL_BUSY_NANOS) > 0);
    }

    #[test]
    fn idle_workers_park_on_condvar_not_busy_poll() {
        // One deliberately slow map task on a cluster with spare slots:
        // the idle workers must ride the condvar (counted wakeups or
        // timed-out beats), and the straggler machinery still works on
        // top of the timeouts.
        let engine = MapReduceEngine::new(ClusterResources::uniform(1, 4, 8192))
            .with_fault_plan(FaultPlan::seeded(7).slow_down(TaskKind::Map, 0, 0, 30));
        let cfg = JobConfig {
            n_reducers: 1,
            ..JobConfig::default()
        };
        let res = engine
            .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(3, 10))
            .unwrap();
        let beats = res.counters.get(keys::SCHED_IDLE_TIMEOUTS)
            + res.counters.get(keys::SCHED_WAKEUPS);
        assert!(
            beats > 0,
            "idle workers should have parked at least once while the slow task ran"
        );
    }

    #[test]
    fn private_transit_shuffle_matches_attached_dfs_and_cleans_up() {
        use gesall_dfs::DfsConfig;
        let run = |dfs: Option<Dfs>| {
            let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096));
            if let Some(dfs) = dfs {
                engine.set_shuffle_dfs(dfs);
            }
            let cfg = JobConfig {
                n_reducers: 4,
                io_sort_bytes: 512,
                ..JobConfig::default()
            };
            let res = engine
                .run_job(cfg, &Tokenize, &Sum, &HashPartitioner, word_splits(6, 50))
                .unwrap();
            // The run's shuffle files are swept once reducers consumed
            // them, on whichever DFS carried them.
            let transit = engine.shuffle_dfs.lock().list("/job/");
            assert!(
                transit.is_empty(),
                "shuffle transit files must be cleaned up: {transit:?}"
            );
            let mut outs = res.outputs;
            for o in &mut outs {
                o.sort();
            }
            (outs, res.counters)
        };
        let attached = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 1 << 20,
            replication: 2,
            ..DfsConfig::default()
        });
        let (attached_outs, attached_counters) = run(Some(attached));
        let (private_outs, private_counters) = run(None);
        assert_eq!(
            private_outs, attached_outs,
            "transit store must not change results"
        );
        // With no DFS attached the engine still ships every shuffled
        // byte through its private transit store.
        assert!(private_counters.get(keys::SHUFFLE_BYTES_DFS) > 0);
        assert_eq!(
            private_counters.get(keys::SHUFFLE_BYTES_DFS),
            attached_counters.get(keys::SHUFFLE_BYTES_DFS),
            "both stores move the same wire bytes"
        );
    }

    #[test]
    fn empty_job() {
        let engine = MapReduceEngine::local(2);
        let res = engine
            .run_job(
                JobConfig::default(),
                &Tokenize,
                &Sum,
                &HashPartitioner,
                Vec::new(),
            )
            .unwrap();
        assert_eq!(res.outputs.len(), 1);
        assert!(res.outputs[0].is_empty());
    }
}
