//! The three workloads, driven only through the platform's public API
//! (`GesallPlatform::run_pipeline*`, `JobService::submit`), with their
//! output checks.

use crate::checks::{Checks, OutputDigest};
use crate::inputs::{Setup, JOBS_PER_TENANT, PAIRS_PER_JOB, TENANTS};
use crate::ledger::counter_sum;
use crate::spec::Workload;
use gesall_aligner::Aligner;
use gesall_core::pipeline::{
    CallerChoice, DagRunOptions, GesallPlatform, PipelineOutput, PlatformConfig, RunOptions,
};
use gesall_dfs::{Dfs, DfsConfig};
use gesall_formats::fastq::ReadPair;
use gesall_jobsvc::{JobOutput, JobService, JobSpec, JobSvcConfig, TenantConfig};
use gesall_mapreduce::{ClusterResources, GesallError, MapReduceEngine, Recorder};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Nodes of every workload's cluster and DFS; one slot each, so the
/// cluster has as many slots as the benchmark machine has cores.
pub const NODES: usize = 2;
pub const SLOTS_PER_NODE: usize = 1;

/// Where a pipeline run without a namespace keeps its stage cache.
const PIPELINE_CAS_ROOT: &str = "/pipeline";

/// The stage `rerun-ug` invalidates on every timed run.
pub const RERUN_STAGE: &str = "round2-clean-fixmate";

/// A fresh platform: a `NODES`-node DFS under a `NODES` x 1-slot
/// cluster, production `PlatformConfig` apart from `caller` and the
/// partition count.
pub fn platform(caller: CallerChoice, partitions: usize, recorder: Recorder) -> GesallPlatform {
    let dfs = Dfs::new(DfsConfig {
        n_nodes: NODES,
        ..DfsConfig::default()
    });
    let engine = MapReduceEngine::new(ClusterResources::uniform(NODES, SLOTS_PER_NODE, 16 * 1024))
        .with_recorder(recorder);
    GesallPlatform::new(
        dfs,
        engine,
        PlatformConfig {
            caller,
            n_round1_partitions: partitions,
            n_reducers: partitions,
            ..PlatformConfig::default()
        },
    )
}

/// What one timed run of a workload produced.
pub struct Run {
    /// Pipeline wall, or the makespan of all jobs for `tenants-2`.
    pub wall_s: f64,
    /// Submit-to-completion latency of every pipeline job in the run.
    pub job_latencies_s: Vec<f64>,
    /// Digest of every output the run produced.
    pub digest: u64,
    /// Speculative backups launched and wasted, from the rounds'
    /// counters; published for every run so the slow mode they cause
    /// is visible.
    pub spec_launched: u64,
    pub spec_wasted: u64,
    /// Present when the run was traced.
    pub trace: Option<TracedRun>,
}

/// Everything a traced run leaves for the per-layer ledger. The numbers
/// are read from what the program already publishes: pipeline outputs
/// (`RoundSummary`, `StageReport`), the engine recorder's spans, and
/// the DFS and job-service metric registries.
pub struct TracedRun {
    /// The time the stage ledger must add up to: the pipeline wall, or
    /// for `tenants-2` the sum of job latencies.
    pub ledger_wall_s: f64,
    /// Slot-seconds available to the run (slots x wall or makespan).
    pub slot_capacity_s: f64,
    pub outputs: Vec<PipelineOutput>,
    pub spans: Vec<gesall_telemetry::Span>,
    pub dfs_bytes_written: u64,
    pub dfs_bytes_read: u64,
    pub dfs_bytes_copied: u64,
    pub kernel: gesall_aligner::kernels::Snapshot,
    /// Time to fetch every stage entry the run committed back out of the
    /// content-addressed store.
    pub cas_get_s: f64,
    pub queue_wait_s: f64,
    pub slots_borrowed: u64,
    pub slots_reclaimed: u64,
}

/// A workload ready to run: its set-up done, its state warm where the
/// workload calls for it.
pub enum Runner {
    ColdHc,
    RerunUg {
        platform: Box<GesallPlatform>,
        /// DFS paths present after the warm-up run; every timed run must
        /// leave exactly these behind.
        baseline: BTreeSet<String>,
        salt: u64,
    },
    Tenants2 {
        /// Each job's distinct pairs, tenant-major.
        jobs: Vec<Arc<Vec<ReadPair>>>,
    },
}

impl Runner {
    /// Prepare `workload`. For `rerun-ug` this includes the cold warm-up
    /// run, whose wall is returned so it can be charged to set-up.
    pub fn prepare(workload: Workload, setup: &Setup, checks: &mut Checks) -> (Runner, f64) {
        match workload {
            Workload::ColdHc => (Runner::ColdHc, 0.0),
            Workload::RerunUg => {
                let platform = platform(
                    CallerChoice::UnifiedGenotyper,
                    workload.partitions(),
                    Recorder::disabled(),
                );
                let t0 = Instant::now();
                let warm = platform.run_pipeline(&setup.aligner, setup.inputs.pairs.clone());
                let warm_s = t0.elapsed().as_secs_f64();
                checks.pipeline("warm-up run", warm.as_ref(), setup.inputs.pairs.len());
                let baseline = platform.dfs.list("/").into_iter().collect();
                (
                    Runner::RerunUg {
                        platform: Box::new(platform),
                        baseline,
                        salt: 0,
                    },
                    warm_s,
                )
            }
            Workload::Tenants2 => {
                let jobs = setup
                    .inputs
                    .pairs
                    .chunks(PAIRS_PER_JOB)
                    .map(|c| Arc::new(c.to_vec()))
                    .collect::<Vec<_>>();
                assert_eq!(jobs.len(), TENANTS * JOBS_PER_TENANT, "one chunk per job");
                (Runner::Tenants2 { jobs }, 0.0)
            }
        }
    }

    /// One timed run. With `traced`, the engine records spans and the
    /// run keeps what the per-layer ledger needs.
    pub fn run(&mut self, setup: &Setup, traced: bool, checks: &mut Checks) -> Run {
        let recorder = || {
            if traced {
                Recorder::new()
            } else {
                Recorder::disabled()
            }
        };
        match self {
            Runner::ColdHc => {
                let platform = platform(
                    CallerChoice::HaplotypeCaller,
                    Workload::ColdHc.partitions(),
                    recorder(),
                );
                single_pipeline(&platform, setup, traced, checks, &DagRunOptions::default())
            }
            Runner::RerunUg {
                platform,
                baseline,
                salt,
            } => {
                *salt += 1;
                platform.engine.set_recorder(recorder());
                let opts = DagRunOptions {
                    invalidate: vec![(RERUN_STAGE.to_string(), *salt)],
                    ..DagRunOptions::default()
                };
                let run = single_pipeline(platform, setup, traced, checks, &opts);
                platform.engine.set_recorder(Recorder::disabled());
                // Drop what the run added (its staged partitions and the
                // stage entries it committed), so the DFS does not grow
                // from one run to the next.
                for path in platform.dfs.list("/") {
                    if !baseline.contains(&path) {
                        if let Err(e) = platform.dfs.delete(&path) {
                            checks.fail(format!("cannot delete {path}: {e}"));
                        }
                    }
                }
                let left: BTreeSet<String> = platform.dfs.list("/").into_iter().collect();
                checks.check(&left == baseline, || {
                    format!(
                        "rerun-ug DFS holds {} files, expected {}",
                        left.len(),
                        baseline.len()
                    )
                });
                run
            }
            Runner::Tenants2 { jobs } => tenants(jobs, setup, traced, recorder(), checks),
        }
    }
}

/// One pipeline on `platform`. When `dag` invalidates a stage, the run
/// must hit the cache for exactly the stages upstream of it.
fn single_pipeline(
    platform: &GesallPlatform,
    setup: &Setup,
    traced: bool,
    checks: &mut Checks,
    dag: &DagRunOptions,
) -> Run {
    let dfs_before = DfsCounters::read(&platform.dfs);
    let kernel_before = gesall_aligner::kernels::snapshot();
    let t0 = Instant::now();
    let out = platform.run_pipeline_dag(
        &setup.aligner,
        setup.inputs.pairs.clone(),
        &RunOptions::default(),
        dag,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let kernel = gesall_aligner::kernels::snapshot().delta(&kernel_before);
    let dfs = DfsCounters::read(&platform.dfs).since(&dfs_before);
    let digest = checks.pipeline("pipeline", out.as_ref(), setup.inputs.pairs.len());
    if let (Ok(out), Some((stage, _))) = (&out, dag.invalidate.first()) {
        checks.rerun_pattern(out, stage);
    }
    let (spec_launched, spec_wasted) = out.as_ref().map(speculation).unwrap_or_default();
    let trace = match out {
        Ok(out) if traced => Some(TracedRun {
            ledger_wall_s: wall_s,
            slot_capacity_s: (NODES * SLOTS_PER_NODE) as f64 * wall_s,
            cas_get_s: time_cas_gets(&platform.dfs, &[(PIPELINE_CAS_ROOT, &out)]),
            outputs: vec![out],
            spans: platform.engine.recorder().spans(),
            dfs_bytes_written: dfs.written,
            dfs_bytes_read: dfs.read,
            dfs_bytes_copied: dfs.copied,
            kernel,
            queue_wait_s: 0.0,
            slots_borrowed: 0,
            slots_reclaimed: 0,
        }),
        _ => None,
    };
    Run {
        wall_s,
        job_latencies_s: vec![wall_s],
        digest: digest.value(),
        spec_launched,
        spec_wasted,
        trace,
    }
}

/// `tenants-2`: one job service, two share-1 tenants, each a closed-loop
/// client thread submitting its jobs one after another, every job asking
/// for every slot.
fn tenants(
    jobs: &[Arc<Vec<ReadPair>>],
    setup: &Setup,
    traced: bool,
    recorder: Recorder,
    checks: &mut Checks,
) -> Run {
    let svc = JobService::new(
        platform(
            CallerChoice::UnifiedGenotyper,
            Workload::Tenants2.partitions(),
            recorder,
        ),
        JobSvcConfig {
            tenants: (1..=TENANTS)
                .map(|t| TenantConfig::new(format!("t{t}"), 1))
                .collect(),
            ..JobSvcConfig::default()
        },
    );
    let slots = svc.total_slots();
    let kernel_before = gesall_aligner::kernels::snapshot();
    let t0 = Instant::now();
    // Per tenant, in submission order: (latency, pipeline result).
    let results: Vec<Vec<(f64, Result<PipelineOutput, String>)>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..TENANTS)
            .map(|t| {
                let svc = &svc;
                let aligner = &setup.aligner;
                s.spawn(move || {
                    (0..JOBS_PER_TENANT)
                        .map(|j| {
                            let pairs = Arc::clone(&jobs[t * JOBS_PER_TENANT + j]);
                            let aligner = Arc::clone(aligner);
                            let t_submit = Instant::now();
                            let out = submit_pipeline(
                                svc,
                                &format!("t{}", t + 1),
                                j,
                                slots,
                                aligner,
                                pairs,
                            );
                            (t_submit.elapsed().as_secs_f64(), out)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("tenant client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let kernel = gesall_aligner::kernels::snapshot().delta(&kernel_before);

    let mut job_latencies_s = Vec::new();
    let mut digest = OutputDigest::default();
    let mut outputs: Vec<(String, PipelineOutput)> = Vec::new();
    let (mut spec_launched, mut spec_wasted) = (0, 0);
    for (t, tenant_jobs) in results.into_iter().enumerate() {
        for (latency, out) in tenant_jobs {
            job_latencies_s.push(latency);
            let job_digest = checks.pipeline("tenant job", out.as_ref(), PAIRS_PER_JOB);
            digest.add(job_digest.value());
            if let Ok(out) = out {
                let (launched, wasted) = speculation(&out);
                spec_launched += launched;
                spec_wasted += wasted;
                outputs.push((format!("/t{}", t + 1), out));
            }
        }
    }
    let trace = if traced {
        let platform = svc.platform();
        let roots: Vec<(&str, &PipelineOutput)> =
            outputs.iter().map(|(root, o)| (root.as_str(), o)).collect();
        let cas_get_s = time_cas_gets(&platform.dfs, &roots);
        let dfs = DfsCounters::read(&platform.dfs);
        let m = svc.metrics();
        let wait = m.histogram(gesall_jobsvc::keys::QUEUE_WAIT_NANOS);
        Some(TracedRun {
            ledger_wall_s: job_latencies_s.iter().sum(),
            slot_capacity_s: slots as f64 * wall_s,
            cas_get_s,
            spans: platform.engine.recorder().spans(),
            dfs_bytes_written: dfs.written,
            dfs_bytes_read: dfs.read,
            dfs_bytes_copied: dfs.copied,
            kernel,
            queue_wait_s: wait.sum() as f64 / 1e9 / wait.count().max(1) as f64,
            slots_borrowed: m.counter(gesall_jobsvc::keys::SLOTS_BORROWED).get(),
            slots_reclaimed: m.counter(gesall_jobsvc::keys::SLOTS_RECLAIMED).get(),
            outputs: outputs.into_iter().map(|(_, o)| o).collect(),
        })
    } else {
        None
    };
    svc.shutdown();
    Run {
        wall_s,
        job_latencies_s,
        digest: digest.value(),
        spec_launched,
        spec_wasted,
        trace,
    }
}

/// Submit one cold pipeline job and wait for its output.
fn submit_pipeline(
    svc: &JobService,
    tenant: &str,
    job: usize,
    slots: usize,
    aligner: Arc<Aligner>,
    pairs: Arc<Vec<ReadPair>>,
) -> Result<PipelineOutput, String> {
    let spec = JobSpec::new(format!("pipeline-{job}"), slots, move |ctx| {
        let out = ctx
            .platform()
            .run_pipeline_with(&aligner, pairs.to_vec(), &ctx.run_options())
            .map_err(|e| GesallError::Streaming(e.to_string()))?;
        Ok(Box::new(out) as JobOutput)
    });
    let handle = svc.submit(tenant, spec).map_err(|e| e.to_string())?;
    handle.wait().map_err(|e| e.to_string())?;
    handle
        .take_output()
        .and_then(|b| b.downcast::<PipelineOutput>().ok())
        .map(|b| *b)
        .ok_or_else(|| "job finished without a pipeline output".to_string())
}

/// Speculative backups a pipeline launched and wasted, over its rounds.
fn speculation(out: &PipelineOutput) -> (u64, u64) {
    use gesall_mapreduce::counters::keys;
    (
        counter_sum([out], keys::SPECULATIVE_LAUNCHED),
        counter_sum([out], keys::SPECULATIVE_WASTED),
    )
}

/// Seconds to read back every stage entry the runs committed.
fn time_cas_gets(dfs: &Dfs, runs: &[(&str, &PipelineOutput)]) -> f64 {
    let t0 = Instant::now();
    for (root, out) in runs {
        for stage in &out.stages {
            let entry = dfs.cas_get(root, stage.key);
            std::hint::black_box(entry.ok().flatten().map(|b| b.len()));
        }
    }
    t0.elapsed().as_secs_f64()
}

/// The DFS byte counters the ledger reports.
struct DfsCounters {
    written: u64,
    read: u64,
    copied: u64,
}

impl DfsCounters {
    fn read(dfs: &Dfs) -> DfsCounters {
        use gesall_dfs::metrics_keys as k;
        let m = dfs.metrics();
        DfsCounters {
            written: m.counter(k::BYTES_WRITTEN).get(),
            read: m.counter(k::BYTES_READ).get(),
            copied: m.counter(k::BYTES_COPIED).get(),
        }
    }

    fn since(&self, earlier: &DfsCounters) -> DfsCounters {
        DfsCounters {
            written: self.written - earlier.written,
            read: self.read - earlier.read,
            copied: self.copied - earlier.copied,
        }
    }
}
