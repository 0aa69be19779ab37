//! Pipeline planning and end-to-end drivers.
//!
//! * [`plan_rounds`] — the paper's round-construction rule (Appendix
//!   A.2): walk the program list; start a new MapReduce round whenever
//!   the next program's partitioning requirement is incompatible with
//!   the current data arrangement.
//! * [`GesallPlatform`] — the parallel driver running the five wrapped
//!   rounds over DFS + MapReduce.
//! * [`serial_pipeline`] — the GATK-best-practices single-node baseline
//!   (the gold standard of §4).
//! * [`serial_tail_from_aligned`] / [`serial_tail_from_markdup`] — the
//!   hybrid pipelines P̄ᵢ ∘ serial used to measure D-impact (§4.5.2).

use crate::dag;
use crate::error::{PlatformError, Result};
use crate::gdpt::{chromosome_partition, BloomFilter, RangeKey};
use crate::rounds::{
    build_bloom_from_outputs, BloomBuildMapper, Round1Align, Round2CleanMapper,
    Round2FixMateReducer, Round3MarkDupMapper, Round3MarkDupReducer, Round4SortMapper,
    Round4SortReducer, Round5HaplotypeCaller,
};
use crate::storage;
use gesall_aligner::Aligner;
use gesall_dfs::{checksum, Dfs, LogicalPartitionPlacement};
use gesall_formats::fastq::{pairs_to_interleaved_bytes, split_pairs_into_partitions, ReadPair};
use gesall_formats::sam::header::ReadGroup;
use gesall_formats::sam::{SamHeader, SamRecord, SortOrder};
use gesall_formats::vcf::VariantRecord;
use gesall_formats::wire::{self, Wire};
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::Counters;
use gesall_mapreduce::lease::SlotLease;
use gesall_mapreduce::runtime::{InputSplit, JobConfig, MapReduceEngine};
use gesall_mapreduce::task::{FnPartitioner, HashPartitioner};
use gesall_telemetry::{kernel_keys, report, OpenSpan, PhaseRow, Recorder, SpanId, SpanKind};
use gesall_tools::haplotype_caller::{call_chromosome, HaplotypeCallerConfig};
use gesall_tools::recalibration::RecalTable;
use gesall_tools::refview::RefView;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Round planner
// ---------------------------------------------------------------------

/// A program's logical partitioning requirement (paper §3.2 categories).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// Grouped by read name.
    ByReadName,
    /// The MarkDuplicates compound 5′-end keys.
    ByDuplicateKeys,
    /// Coordinate ranges (per chromosome).
    ByRange,
    /// Distributive aggregation by covariate (recalibration tables).
    ByCovariate,
    /// No requirement (works on any subset).
    Any,
}

impl Partitioning {
    /// Can a program with requirement `self` run directly on data
    /// arranged as `arrangement`, without a shuffle?
    pub fn satisfied_by(&self, arrangement: &Partitioning) -> bool {
        matches!(self, Partitioning::Any) || self == arrangement
    }
}

/// One pipeline step, as declared to the planner.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    pub name: String,
    pub requires: Partitioning,
    /// Arrangement of this program's *output* (None = unchanged).
    pub produces: Option<Partitioning>,
}

impl ProgramSpec {
    pub fn new(name: &str, requires: Partitioning) -> ProgramSpec {
        ProgramSpec {
            name: name.into(),
            requires,
            produces: None,
        }
    }

    pub fn producing(mut self, p: Partitioning) -> ProgramSpec {
        self.produces = Some(p);
        self
    }
}

/// A planned MapReduce round: the programs fused into it and whether it
/// needs a shuffle to rearrange its input first.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    pub programs: Vec<String>,
    pub input_arrangement: Partitioning,
    pub needs_shuffle: bool,
}

/// The paper's rule: fuse consecutive programs while their partitioning
/// requirements are compatible with the current arrangement; start a new
/// round (with a shuffle) when they are not.
pub fn plan_rounds(initial: Partitioning, programs: &[ProgramSpec]) -> Vec<RoundPlan> {
    let mut rounds: Vec<RoundPlan> = Vec::new();
    let mut arrangement = initial;
    for p in programs {
        let compatible = p.requires.satisfied_by(&arrangement);
        let start_new = rounds.is_empty() || !compatible;
        if start_new {
            let needs_shuffle = !compatible;
            if needs_shuffle {
                arrangement = p.requires.clone();
            }
            rounds.push(RoundPlan {
                programs: vec![p.name.clone()],
                input_arrangement: arrangement.clone(),
                needs_shuffle,
            });
        } else {
            rounds.last_mut().expect("non-empty").programs.push(p.name.clone());
        }
        if let Some(out) = &p.produces {
            arrangement = out.clone();
        }
    }
    rounds
}

/// The paper's secondary-analysis pipeline as ProgramSpecs (Table 2).
pub fn gatk_best_practices_specs() -> Vec<ProgramSpec> {
    vec![
        ProgramSpec::new("Bwa", Partitioning::ByReadName),
        ProgramSpec::new("SamToBam", Partitioning::Any),
        ProgramSpec::new("AddReplaceReadGroups", Partitioning::Any),
        ProgramSpec::new("CleanSam", Partitioning::Any),
        ProgramSpec::new("FixMateInformation", Partitioning::ByReadName),
        ProgramSpec::new("MarkDuplicates", Partitioning::ByDuplicateKeys)
            .producing(Partitioning::ByDuplicateKeys),
        ProgramSpec::new("SortSam", Partitioning::ByRange).producing(Partitioning::ByRange),
        ProgramSpec::new("HaplotypeCaller", Partitioning::ByRange),
    ]
}

// ---------------------------------------------------------------------
// Parallel platform driver
// ---------------------------------------------------------------------

/// Which small-variant caller round 5 wraps (paper Table 2 v1/v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallerChoice {
    /// v2: HaplotypeCaller (greedy active-window segmentation).
    HaplotypeCaller,
    /// v1: UnifiedGenotyper (position-independent pileup calling).
    UnifiedGenotyper,
}

/// How round 5 partitions the genome for the HaplotypeCaller (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HcPartitioning {
    /// The production-accepted coarse scheme: one task per chromosome
    /// (23 tasks for a human genome — the §4.4 underutilization).
    Chromosome,
    /// The paper's proposed fine-grained overlapping scheme: segments of
    /// `segment_len` padded by `overlap` on both sides; reads in overlap
    /// zones are replicated; calls are emitted only from segment cores.
    FineGrained { segment_len: i64, overlap: i64 },
}

/// Platform-wide configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Logical partitions fed to the alignment round.
    pub n_round1_partitions: usize,
    /// Reducers for the shuffling rounds (2 and 3).
    pub n_reducers: usize,
    /// Threads each alignment mapper gives its wrapped Bwa.
    pub bwa_threads_per_mapper: usize,
    /// Use the bloom-filter MarkDup_opt variant.
    pub markdup_opt: bool,
    /// Run the base-recalibration rounds (Table 2 steps 11–12) between
    /// sort and variant calling.
    pub recalibrate: bool,
    /// Known variant sites excluded from the recalibration error tally
    /// (the dbSNP role).
    pub known_sites: std::sync::Arc<std::collections::HashSet<(i32, i64)>>,
    /// Which variant caller round 5 wraps.
    pub caller: CallerChoice,
    /// Round-5 partitioning scheme for the HaplotypeCaller.
    pub hc_partitioning: HcPartitioning,
    /// Sort buffer / merge factor / compression for the MR jobs.
    pub io_sort_bytes: usize,
    pub merge_factor: usize,
    pub compress_map_output: bool,
    /// Smallest raw partition payload worth compressing.
    pub compress_min_bytes: usize,
    /// Enable the bit-parallel map-phase kernels (DESIGN.md §5) in the
    /// MR jobs this platform launches — today that is the radix spill
    /// sort. Off is the scalar-twin benchmark configuration; results
    /// are byte-identical either way. The aligner-side kernels (packed
    /// rank, banded SW) live on the `Aligner` the caller passes in —
    /// flip them with [`gesall_aligner::Aligner::set_kernels`].
    pub kernels: bool,
    pub seed: u64,
    pub read_group: ReadGroup,
    pub hc: HaplotypeCallerConfig,
    pub ug: gesall_tools::unified_genotyper::GenotyperConfig,
    pub recal: gesall_tools::recalibration::RecalConfig,
}

impl Default for PlatformConfig {
    fn default() -> PlatformConfig {
        PlatformConfig {
            n_round1_partitions: 4,
            n_reducers: 4,
            bwa_threads_per_mapper: 1,
            markdup_opt: true,
            recalibrate: false,
            known_sites: std::sync::Arc::new(std::collections::HashSet::new()),
            caller: CallerChoice::HaplotypeCaller,
            hc_partitioning: HcPartitioning::Chromosome,
            io_sort_bytes: 8 * 1024 * 1024,
            merge_factor: 10,
            compress_map_output: true,
            compress_min_bytes: gesall_mapreduce::shuffle::COMPRESS_MIN_BYTES,
            kernels: true,
            seed: 0x6765_7361_6c6c_0001,
            read_group: ReadGroup::new("rg1", "sample1"),
            hc: HaplotypeCallerConfig::default(),
            ug: gesall_tools::unified_genotyper::GenotyperConfig::default(),
            recal: gesall_tools::recalibration::RecalConfig::default(),
        }
    }
}

/// Summary of one executed round.
#[derive(Debug, Clone)]
pub struct RoundSummary {
    pub name: String,
    pub wall_ms: f64,
    pub n_map_tasks: usize,
    pub n_reduce_tasks: usize,
    pub counters: Vec<(String, u64)>,
}

/// End-to-end output of the parallel pipeline.
#[derive(Debug)]
pub struct PipelineOutput {
    /// Final coordinate-sorted, duplicate-marked records.
    pub records: Vec<SamRecord>,
    /// Variant calls from round 5.
    pub variants: Vec<VariantRecord>,
    pub rounds: Vec<RoundSummary>,
    /// Per-stage DAG execution report, in topological order. Empty for
    /// the sequential oracle driver.
    pub stages: Vec<StageReport>,
}

impl PipelineOutput {
    /// Per-round phase-breakdown rows (the paper's Tables 4–7 shape),
    /// built from each round's `phase.*.nanos` counters.
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        self.rounds
            .iter()
            .map(|r| PhaseRow::from_snapshot(&r.name, r.wall_ms, &r.counters))
            .collect()
    }

    /// The rendered rounds × phases breakdown table.
    pub fn phase_table(&self) -> String {
        report::phase_table(&self.phase_rows())
    }

    /// Stages whose bodies executed this run.
    pub fn stages_run(&self) -> usize {
        self.stages.iter().filter(|s| !s.cache_hit).count()
    }

    /// Stages served from the content-addressed intermediate store.
    pub fn cache_hits(&self) -> usize {
        self.stages.iter().filter(|s| s.cache_hit).count()
    }

    /// Rows for the telemetry DAG / critical-path report.
    pub fn dag_rows(&self) -> Vec<report::DagStageRow> {
        self.stages
            .iter()
            .map(|s| report::DagStageRow {
                name: s.name.clone(),
                parents: s.parents.clone(),
                duration_ms: s.wall_ms,
                cached: s.cache_hit,
            })
            .collect()
    }

    /// The rendered stage table with critical-path attribution.
    pub fn dag_report(&self) -> String {
        report::dag_report(&self.dag_rows())
    }
}

/// External controls for one pipeline run, handed in by a multi-job
/// driver (gesall-jobsvc). The default runs unconstrained under the
/// classic `/pipeline` namespace — exactly the old single-caller
/// behaviour.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Container-slot lease capping the run's concurrently executing
    /// tasks (see `gesall_mapreduce::lease`). `None` = unthrottled.
    pub slot_lease: Option<SlotLease>,
    /// DFS prefix the run stages and shuffles under (e.g.
    /// `/{tenant}/{job}`); all transit and staging files land below it,
    /// so one `Dfs::sweep_prefix` call retires the whole run.
    pub namespace: Option<String>,
    /// DFS prefix for the content-addressed intermediate store
    /// (`{cas_root}/cas/{key}`). Defaults to the run namespace; a
    /// multi-job driver should point it at a prefix shared across the
    /// tenant's jobs (e.g. `/{tenant}`) so successive jobs hit each
    /// other's cache instead of each getting a private one.
    pub cas_root: Option<String>,
}

/// Controls for the DAG executor beyond [`RunOptions`].
#[derive(Debug, Clone)]
pub struct DagRunOptions {
    /// Read/write the content-addressed intermediate store. Off, the
    /// executor still walks the graph but every stage executes.
    pub cache: bool,
    /// Per-stage invalidation salts: the named stage's content key is
    /// perturbed, forcing it — and, through key chaining, exactly its
    /// descendants — to re-execute.
    pub invalidate: Vec<(String, u64)>,
}

impl Default for DagRunOptions {
    fn default() -> DagRunOptions {
        DagRunOptions {
            cache: true,
            invalidate: Vec::new(),
        }
    }
}

/// How one DAG stage resolved.
#[derive(Debug, Clone)]
pub struct StageReport {
    pub name: String,
    /// Content key of the stage's committed output.
    pub key: u64,
    pub parents: Vec<String>,
    /// Served from the content-addressed store (the body never ran).
    pub cache_hit: bool,
    /// Resolution wall time: decode-and-pin for a hit, full execution
    /// for a miss.
    pub wall_ms: f64,
}

/// The Gesall platform: DFS + MapReduce engine + configuration.
pub struct GesallPlatform {
    pub dfs: Dfs,
    pub engine: MapReduceEngine,
    pub config: PlatformConfig,
    run_seq: std::sync::atomic::AtomicU64,
}

impl GesallPlatform {
    pub fn new(dfs: Dfs, engine: MapReduceEngine, config: PlatformConfig) -> GesallPlatform {
        // The platform's DFS doubles as the shuffle transit store: map
        // outputs are pinned to their mapper's node and reducers
        // range-read their partitions, preferring the co-located replica.
        engine.set_shuffle_dfs(dfs.clone());
        // Crash sweep: shuffle-transit files are deleted by the engine
        // when a job finishes, so any still present at platform startup
        // were orphaned by a crashed prior process. Reclaim them before
        // new jobs write next to them.
        dfs.sweep_orphans();
        GesallPlatform {
            dfs,
            engine,
            config,
            run_seq: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Like [`GesallPlatform::new`], but wires the engine's node-death
    /// hook to the DFS: when the engine declares a node dead mid-wave,
    /// the DFS fails the same node (scrubbing its replicas from file
    /// metadata) and immediately re-replicates exactly the blocks the
    /// failure under-replicated — the YARN-NodeManager-death → HDFS-
    /// re-replication coupling of a real cluster, using the incremental
    /// per-node index rather than a namespace sweep.
    pub fn with_fault_tolerance(
        dfs: Dfs,
        engine: MapReduceEngine,
        config: PlatformConfig,
    ) -> GesallPlatform {
        let hook_dfs = dfs.clone();
        let n_dfs_nodes = dfs.config().n_nodes;
        let engine = engine.on_node_death(move |node| {
            if node < n_dfs_nodes {
                let report = hook_dfs.fail_node(node);
                hook_dfs.re_replicate_blocks(&report.under_replicated);
            }
        });
        GesallPlatform::new(dfs, engine, config)
    }

    fn job_config(&self, opts: &RunOptions, name: &str, n_reducers: usize, parent: SpanId) -> JobConfig {
        JobConfig {
            name: name.into(),
            n_reducers,
            io_sort_bytes: self.config.io_sort_bytes,
            merge_factor: self.config.merge_factor,
            compress_map_output: self.config.compress_map_output,
            compress_min_bytes: self.config.compress_min_bytes,
            radix_sort: self.config.kernels,
            parent_span: parent,
            slot_lease: opts.slot_lease.clone(),
            shuffle_namespace: opts.namespace.clone(),
            ..JobConfig::default()
        }
    }

    /// Stage a set of BAM logical partitions on the DFS and return the
    /// input splits (one per partition, data-local).
    fn stage_bam_partitions(
        &self,
        base: &str,
        header: &SamHeader,
        partitions: &[Vec<SamRecord>],
    ) -> Result<Vec<InputSplit<String, SharedBytes>>> {
        let placed = storage::upload_partitions(&self.dfs, base, header, partitions)?;
        let mut splits = Vec::with_capacity(placed.len());
        for (path, home) in placed {
            let bytes = self.read_partition_bytes(&path)?;
            let mut split = InputSplit::new(path.clone(), vec![(path, bytes)]);
            if let Some(node) = home {
                split = split.at_node(node % self.engine.cluster().n_nodes());
            }
            splits.push(split);
        }
        Ok(splits)
    }

    fn read_partition_bytes(&self, path: &str) -> Result<SharedBytes> {
        // Reassemble through the block-aware frame reader (the §3.1
        // path). The frames are zero-copy block slices; the one copy
        // left on this path is gluing them into the mapper's contiguous
        // input buffer (skipped when the file is a single frame).
        let mut frames = storage::read_frames_from_dfs(&self.dfs, path)?;
        if frames.len() == 1 {
            return Ok(frames.pop().unwrap());
        }
        let bytes = frames.concat();
        self.dfs
            .metrics()
            .counter(gesall_dfs::metrics_keys::BYTES_COPIED)
            .add(bytes.len() as u64);
        Ok(SharedBytes::from_vec(bytes))
    }

    /// Run the full pipeline on interleaved read pairs, through the
    /// stage-DAG executor with content-addressed caching.
    pub fn run_pipeline(&self, aligner: &Aligner, pairs: Vec<ReadPair>) -> Result<PipelineOutput> {
        self.run_pipeline_with(aligner, pairs, &RunOptions::default())
    }

    /// Like [`GesallPlatform::run_pipeline`], but under external
    /// control: a capacity scheduler's slot lease caps the run's
    /// concurrent container slots, and a namespace confines every
    /// staged and shuffled byte to one sweepable DFS prefix. This is
    /// the hook gesall-jobsvc drives; `run_pipeline` is the
    /// unconstrained single-caller form. Both route through the DAG
    /// executor ([`GesallPlatform::run_pipeline_dag`]) with default
    /// cache behaviour.
    pub fn run_pipeline_with(
        &self,
        aligner: &Aligner,
        pairs: Vec<ReadPair>,
        opts: &RunOptions,
    ) -> Result<PipelineOutput> {
        self.run_pipeline_dag(aligner, pairs, opts, &DagRunOptions::default())
    }

    /// The DAG executor. Walks [`dag::pipeline_dag`] in topological
    /// order; each stage's output is keyed by its content hash (code
    /// version + config slice + parent keys, rooted at a hash of the
    /// read pairs and reference) and committed to the content-addressed
    /// store under `{cas_root}/cas/{key}`. A key that hits is decoded
    /// instead of executed (`dag.stages.cache_hit` vs `dag.stages.run`),
    /// so re-running with one changed stage re-executes exactly that
    /// stage and its descendants. Every entry touched is pinned until
    /// the run finishes, so retention sweeps and TTL can never delete a
    /// live intermediate out from under a dependent stage.
    pub fn run_pipeline_dag(
        &self,
        aligner: &Aligner,
        pairs: Vec<ReadPair>,
        opts: &RunOptions,
        dag_opts: &DagRunOptions,
    ) -> Result<PipelineOutput> {
        let spec = dag::pipeline_dag(&self.config);
        let order = spec
            .topo_order()
            .map_err(|e| PlatformError::Invariant(e.to_string()))?;
        let (mut cx, pipeline_span, pipeline_name, ns) = self.begin_run(aligner, opts);
        let cas_root = opts
            .cas_root
            .as_deref()
            .map(|c| c.trim_end_matches('/').to_string())
            .unwrap_or(ns);

        // Root content key: the external inputs every stage chain hangs
        // off — the read pairs, the reference sequences, their names.
        let root_key = {
            let mut buf = Vec::new();
            wire::put_u64(&mut buf, checksum::xxh64(&pairs_to_interleaved_bytes(&pairs)));
            for r in cx.references.iter() {
                wire::put_u64(&mut buf, checksum::xxh64(r));
            }
            for n in cx.chrom_names.iter() {
                wire::put_str(&mut buf, n);
            }
            checksum::xxh64(&buf)
        };
        let keys = spec
            .stage_keys(root_key, &dag_opts.invalidate)
            .map_err(|e| PlatformError::Invariant(e.to_string()))?;

        let mut data: HashMap<String, StageData> = HashMap::new();
        let mut pinned: Vec<String> = Vec::new();
        let mut stage_reports: Vec<StageReport> = Vec::new();
        let mut pairs = Some(pairs);
        let outcome = {
            let mut walk = || -> Result<()> {
                for name in &order {
                    let stage = spec.stage(name).expect("topo names come from the spec");
                    let key = keys[name.as_str()];
                    let cas_path = Dfs::cas_path(&cas_root, key);
                    let t0 = Instant::now();
                    let sspan = cx.recorder.start(SpanKind::Stage, name, cx.pipeline_span);
                    let mut cached = None;
                    if dag_opts.cache {
                        if let Some(bytes) = self.dfs.cas_get(&cas_root, key)? {
                            // A corrupt entry decodes to a miss: the
                            // stage re-runs, and `cas_put` on the same
                            // key is a no-op hit, so nothing is torn.
                            cached = StageData::from_wire_bytes(&bytes).ok();
                        }
                    }
                    let cache_hit = cached.is_some();
                    let out = match cached {
                        Some(d) => d,
                        None => {
                            let d = self.execute_stage(&mut cx, name, &data, &mut pairs)?;
                            if dag_opts.cache {
                                self.dfs.cas_put(
                                    &cas_root,
                                    key,
                                    SharedBytes::from_vec(d.to_wire_bytes()),
                                )?;
                            }
                            d
                        }
                    };
                    if dag_opts.cache {
                        // Pinned for the rest of the run: a dependent
                        // stage may range-read this entry long after a
                        // retention sweep of the namespace would
                        // otherwise have deleted it.
                        self.dfs.pin(&cas_path)?;
                        pinned.push(cas_path);
                    }
                    let counter = if cache_hit {
                        dag::keys::STAGES_CACHE_HIT
                    } else {
                        dag::keys::STAGES_RUN
                    };
                    // On the run's counter bag for the trace, and on the
                    // platform DFS registry so warm-rerun behaviour is
                    // observable across runs.
                    cx.counters.add(counter, 1);
                    self.dfs.metrics().counter(counter).add(1);
                    cx.recorder.end_with(
                        sspan,
                        name,
                        vec![
                            ("parents".to_string(), stage.parents.join(",")),
                            ("cached".to_string(), cache_hit.to_string()),
                            ("key".to_string(), format!("{key:016x}")),
                        ],
                        Vec::new(),
                    );
                    stage_reports.push(StageReport {
                        name: name.clone(),
                        key,
                        parents: stage.parents.clone(),
                        cache_hit,
                        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                    });
                    data.insert(name.clone(), out);
                }
                Ok(())
            };
            walk()
        };
        // Success or failure, live pins must not outlast the run.
        for p in &pinned {
            self.dfs.unpin(p);
        }
        outcome?;

        let final_stage = dag::final_parts_stage(&self.config);
        let Some(StageData::Parts(parts)) = data.remove(final_stage) else {
            return Err(PlatformError::Invariant(format!(
                "stage {final_stage} did not produce partitions"
            )));
        };
        let records: Vec<SamRecord> = parts.into_iter().flatten().collect();
        let Some(StageData::Variants(variants)) = data.remove(dag::round5_stage_name(&self.config))
        else {
            return Err(PlatformError::Invariant(
                "round 5 did not produce variants".into(),
            ));
        };
        Ok(self.finish_run(cx, pipeline_span, &pipeline_name, records, variants, stage_reports))
    }

    /// The legacy hand-sequenced driver, kept as the DAG executor's test
    /// oracle: the same stage bodies in fixed order, with no graph, no
    /// cache, and no stage spans. Production callers go through
    /// [`GesallPlatform::run_pipeline_with`].
    pub fn run_pipeline_sequential(
        &self,
        aligner: &Aligner,
        pairs: Vec<ReadPair>,
        opts: &RunOptions,
    ) -> Result<PipelineOutput> {
        let (mut cx, pipeline_span, pipeline_name, _ns) = self.begin_run(aligner, opts);
        let r1 = self.stage_round1(&mut cx, pairs)?;
        let r2 = self.stage_round2(&mut cx, &r1)?;
        let bloom = if self.config.markdup_opt {
            Some(Arc::new(self.stage_round2b(&mut cx, &r2)?))
        } else {
            None
        };
        let r3 = self.stage_round3(&mut cx, &r2, bloom)?;
        let mut r4 = self.stage_round4(&mut cx, &r3)?;
        if self.config.recalibrate {
            let table = Arc::new(self.stage_round4a(&mut cx, &r4)?);
            r4 = self.stage_round4b(&mut cx, &r4, table)?;
        }
        let variants = self.stage_round5(&mut cx, &r4)?;
        let records: Vec<SamRecord> = r4.into_iter().flatten().collect();
        Ok(self.finish_run(cx, pipeline_span, &pipeline_name, records, variants, Vec::new()))
    }

    /// Shared preamble for both drivers: allocate the run's DFS
    /// namespace, open the pipeline span, and snapshot the reference
    /// facts every stage needs.
    fn begin_run<'a>(
        &self,
        aligner: &'a Aligner,
        opts: &'a RunOptions,
    ) -> (StageCtx<'a>, OpenSpan, String, String) {
        // Unique DFS namespace per run so one platform can host many
        // pipeline executions — a monotone per-platform counter, never
        // wall-clock derived, so paths and span names are stable across
        // reruns of the same seed.
        let run = self
            .run_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let ns = opts
            .namespace
            .as_deref()
            .map(|n| n.trim_end_matches('/').to_string())
            .unwrap_or_else(|| "/pipeline".to_string());
        let base = format!("{ns}/run{run}");
        let recorder = self.engine.recorder().clone();
        let pipeline_name = format!("{}-run{run}", ns.trim_start_matches('/').replace('/', "-"));
        let pipeline_span = recorder.start(SpanKind::Pipeline, &pipeline_name, SpanId::NONE);
        let header = aligner.index().sam_header();
        let mut sorted_header = header.clone();
        sorted_header.sort_order = SortOrder::Coordinate;
        let references: Arc<Vec<Vec<u8>>> = Arc::new(
            (0..aligner.index().n_chromosomes())
                .map(|i| aligner.index().chromosome_seq(i).to_vec())
                .collect(),
        );
        let chrom_names: Arc<Vec<String>> = Arc::new(
            (0..aligner.index().n_chromosomes())
                .map(|i| aligner.index().name(i).to_string())
                .collect(),
        );
        let cx = StageCtx {
            aligner,
            opts,
            counters: Counters::new(),
            recorder,
            pipeline_span: pipeline_span.id,
            base,
            header,
            sorted_header,
            references,
            chrom_names,
            rounds: Vec::new(),
            staged: HashMap::new(),
        };
        (cx, pipeline_span, pipeline_name, ns)
    }

    /// [`Self::stage_bam_partitions`] memoized on the DFS dir: the first
    /// caller uploads and splits, later callers in the same run reuse
    /// the splits without touching the DFS again.
    fn staged_bam_partitions(
        &self,
        cx: &mut StageCtx<'_>,
        dir: String,
        sorted: bool,
        partitions: &[Vec<SamRecord>],
    ) -> Result<Vec<InputSplit<String, SharedBytes>>> {
        if let Some(splits) = cx.staged.get(&dir) {
            return Ok(splits.clone());
        }
        let header = if sorted { &cx.sorted_header } else { &cx.header };
        let splits = self.stage_bam_partitions(&dir, header, partitions)?;
        cx.staged.insert(dir, splits.clone());
        Ok(splits)
    }

    /// Shared postamble: close the pipeline span with the cumulative
    /// counter snapshot and assemble the output.
    fn finish_run(
        &self,
        cx: StageCtx<'_>,
        pipeline_span: OpenSpan,
        pipeline_name: &str,
        records: Vec<SamRecord>,
        variants: Vec<VariantRecord>,
        stages: Vec<StageReport>,
    ) -> PipelineOutput {
        cx.recorder.end_with(
            pipeline_span,
            pipeline_name,
            vec![("n_rounds".to_string(), cx.rounds.len().to_string())],
            cx.counters.snapshot(),
        );
        cx.recorder.flush();
        PipelineOutput {
            records,
            variants,
            rounds: cx.rounds,
            stages,
        }
    }

    /// Dispatch one DAG stage body against its parents' in-memory
    /// outputs.
    fn execute_stage(
        &self,
        cx: &mut StageCtx<'_>,
        name: &str,
        data: &HashMap<String, StageData>,
        pairs: &mut Option<Vec<ReadPair>>,
    ) -> Result<StageData> {
        fn parts<'a>(
            data: &'a HashMap<String, StageData>,
            stage: &str,
        ) -> Result<&'a Vec<Vec<SamRecord>>> {
            match data.get(stage) {
                Some(StageData::Parts(p)) => Ok(p),
                _ => Err(PlatformError::Invariant(format!(
                    "stage input {stage} missing or mistyped"
                ))),
            }
        }
        match name {
            "round1-align" => {
                let pairs = pairs.take().ok_or_else(|| {
                    PlatformError::Invariant("round1-align executed twice in one run".into())
                })?;
                Ok(StageData::Parts(self.stage_round1(cx, pairs)?))
            }
            "round2-clean-fixmate" => Ok(StageData::Parts(
                self.stage_round2(cx, parts(data, "round1-align")?)?,
            )),
            "round2b-bloom" => Ok(StageData::Bloom(
                self.stage_round2b(cx, parts(data, "round2-clean-fixmate")?)?,
            )),
            "round3-markdup" => {
                let bloom = if self.config.markdup_opt {
                    match data.get("round2b-bloom") {
                        Some(StageData::Bloom(b)) => Some(Arc::new(b.clone())),
                        _ => {
                            return Err(PlatformError::Invariant(
                                "round3-markdup needs the bloom stage output".into(),
                            ))
                        }
                    }
                } else {
                    None
                };
                Ok(StageData::Parts(self.stage_round3(
                    cx,
                    parts(data, "round2-clean-fixmate")?,
                    bloom,
                )?))
            }
            "round4-sort" => Ok(StageData::Parts(
                self.stage_round4(cx, parts(data, "round3-markdup")?)?,
            )),
            "round4a-recal-table" => Ok(StageData::Recal(
                self.stage_round4a(cx, parts(data, "round4-sort")?)?,
            )),
            "round4b-print-reads" => {
                let table = match data.get("round4a-recal-table") {
                    Some(StageData::Recal(t)) => Arc::new(t.clone()),
                    _ => {
                        return Err(PlatformError::Invariant(
                            "round4b-print-reads needs the recal-table output".into(),
                        ))
                    }
                };
                Ok(StageData::Parts(self.stage_round4b(
                    cx,
                    parts(data, "round4-sort")?,
                    table,
                )?))
            }
            n if n.starts_with("round5-") => Ok(StageData::Variants(self.stage_round5(
                cx,
                parts(data, dag::final_parts_stage(&self.config))?,
            )?)),
            other => Err(PlatformError::Invariant(format!("unknown stage {other}"))),
        }
    }

    /// Round 1: alignment (map-only over FASTQ logical partitions).
    fn stage_round1(
        &self,
        cx: &mut StageCtx<'_>,
        pairs: Vec<ReadPair>,
    ) -> Result<Vec<Vec<SamRecord>>> {
        let parts = split_pairs_into_partitions(pairs, self.config.n_round1_partitions.max(1));
        let mut splits = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            let path = format!("{}/fastq/part-{i:05}", cx.base);
            // One backing serves both the DFS blocks and the mapper's
            // input split — staging copies nothing.
            let bytes = SharedBytes::from_vec(pairs_to_interleaved_bytes(part));
            let info =
                self.dfs
                    .write_shared_with_policy(&path, bytes.clone(), &LogicalPartitionPlacement)?;
            let mut split = InputSplit::new(path.clone(), vec![(path, bytes)]);
            if let Some(node) = info.single_home() {
                split = split.at_node(node % self.engine.cluster().n_nodes());
            }
            splits.push(split);
        }
        let rspan = cx
            .recorder
            .start(SpanKind::Round, "round1-align", cx.pipeline_span);
        // The aligner-side kernels (packed rank, banded SW) report on
        // process-wide atomics; bracket the round with snapshots so the
        // round counters carry exactly this run's kernel activity.
        let kernels_before = gesall_aligner::kernels::snapshot();
        let r1 = self.engine.run_map_only(
            self.job_config(cx.opts, "round1-align", 1, rspan.id),
            &Round1Align {
                aligner: cx.aligner,
                threads_per_mapper: self.config.bwa_threads_per_mapper,
                counters: cx.counters.clone(),
            },
            splits,
        )?;
        let kd = gesall_aligner::kernels::snapshot().delta(&kernels_before);
        for (key, val) in [
            (kernel_keys::OCC_WORDS_POPCOUNTED, kd.occ_words_popcounted),
            (kernel_keys::SW_BANDED_HITS, kd.sw_banded_hits),
            (kernel_keys::SW_FULL_FALLBACKS, kd.sw_full_fallbacks),
        ] {
            if val != 0 {
                r1.counters.add(key, val);
            }
        }
        r1.counters.merge(&cx.counters);
        let s = summary("round1-align", &r1.counters, &r1.events, r1.wall_ms);
        cx.finish_round(rspan, s);
        // Round 1 output partitions (BAM bytes), already grouped by name
        // (pairs adjacent).
        Ok(r1
            .outputs
            .iter()
            .map(|out| {
                let (_, bytes) = &out[0];
                gesall_formats::bam::read_bam(bytes).expect("round1 bam").1
            })
            .collect())
    }

    /// Round 2: clean (map) + fix-mate (reduce), shuffled by read name.
    fn stage_round2(
        &self,
        cx: &mut StageCtx<'_>,
        r1_parts: &[Vec<SamRecord>],
    ) -> Result<Vec<Vec<SamRecord>>> {
        let splits =
            self.stage_bam_partitions(&format!("{}/round2in", cx.base), &cx.header, r1_parts)?;
        let rspan = cx
            .recorder
            .start(SpanKind::Round, "round2-clean-fixmate", cx.pipeline_span);
        let r2 = self.engine.run_job(
            self.job_config(cx.opts, "round2-clean-fixmate", self.config.n_reducers, rspan.id),
            &Round2CleanMapper {
                read_group: self.config.read_group.clone(),
                references: cx.references.clone(),
                counters: cx.counters.clone(),
            },
            &Round2FixMateReducer {
                counters: cx.counters.clone(),
            },
            &HashPartitioner,
            splits,
        )?;
        r2.counters.merge(&cx.counters);
        let s = summary("round2-clean-fixmate", &r2.counters, &r2.events, r2.wall_ms);
        cx.finish_round(rspan, s);
        Ok(collect_parts(&r2.outputs))
    }

    /// Round 2½: bloom-filter build over the cleaned parts
    /// (`MarkDup_opt` only).
    fn stage_round2b(
        &self,
        cx: &mut StageCtx<'_>,
        r2_parts: &[Vec<SamRecord>],
    ) -> Result<BloomFilter> {
        let splits =
            self.staged_bam_partitions(cx, format!("{}/round2out", cx.base), false, r2_parts)?;
        let rspan = cx
            .recorder
            .start(SpanKind::Round, "round2b-bloom", cx.pipeline_span);
        let rb = self.engine.run_map_only(
            self.job_config(cx.opts, "round2b-bloom", 1, rspan.id),
            &BloomBuildMapper {
                counters: cx.counters.clone(),
            },
            splits,
        )?;
        let n_keys: usize = rb.outputs.iter().map(Vec::len).sum();
        rb.counters.merge(&cx.counters);
        let s = summary("round2b-bloom", &rb.counters, &rb.events, rb.wall_ms);
        cx.finish_round(rspan, s);
        Ok(build_bloom_from_outputs(&rb.outputs, n_keys.max(64)))
    }

    /// Round 3: MarkDuplicates under the compound 5′-end shuffle.
    fn stage_round3(
        &self,
        cx: &mut StageCtx<'_>,
        r2_parts: &[Vec<SamRecord>],
        bloom: Option<Arc<BloomFilter>>,
    ) -> Result<Vec<Vec<SamRecord>>> {
        let splits =
            self.staged_bam_partitions(cx, format!("{}/round2out", cx.base), false, r2_parts)?;
        let rspan = cx
            .recorder
            .start(SpanKind::Round, "round3-markdup", cx.pipeline_span);
        let r3 = self.engine.run_job(
            self.job_config(
                cx.opts,
                if self.config.markdup_opt {
                    "round3-markdup-opt"
                } else {
                    "round3-markdup-reg"
                },
                self.config.n_reducers,
                rspan.id,
            ),
            &Round3MarkDupMapper {
                bloom,
                counters: cx.counters.clone(),
            },
            &Round3MarkDupReducer {
                seed: self.config.seed,
                counters: cx.counters.clone(),
            },
            &HashPartitioner,
            splits,
        )?;
        r3.counters.merge(&cx.counters);
        let s = summary("round3-markdup", &r3.counters, &r3.events, r3.wall_ms);
        cx.finish_round(rspan, s);
        Ok(collect_parts(&r3.outputs))
    }

    /// Round 4: range-partitioned coordinate sort (one reducer per
    /// chromosome plus the unmapped partition).
    fn stage_round4(
        &self,
        cx: &mut StageCtx<'_>,
        r3_parts: &[Vec<SamRecord>],
    ) -> Result<Vec<Vec<SamRecord>>> {
        let n_chroms = cx.chrom_names.len();
        let splits =
            self.stage_bam_partitions(&format!("{}/round4in", cx.base), &cx.header, r3_parts)?;
        let rspan = cx
            .recorder
            .start(SpanKind::Round, "round4-sort", cx.pipeline_span);
        let r4 = self.engine.run_job(
            self.job_config(cx.opts, "round4-sort", n_chroms + 1, rspan.id),
            &Round4SortMapper {
                counters: cx.counters.clone(),
            },
            &Round4SortReducer,
            &FnPartitioner::new(|k: &RangeKey, n| chromosome_partition(k, n)),
            splits,
        )?;
        r4.counters.merge(&cx.counters);
        let s = summary("round4-sort", &r4.counters, &r4.events, r4.wall_ms);
        cx.finish_round(rspan, s);
        Ok(collect_parts(&r4.outputs))
    }

    /// Round 4½a: per-partition covariate tables (BaseRecalibrator),
    /// merged into the whole-dataset table — the tally is distributive.
    fn stage_round4a(
        &self,
        cx: &mut StageCtx<'_>,
        r4_parts: &[Vec<SamRecord>],
    ) -> Result<RecalTable> {
        let n_chroms = cx.chrom_names.len();
        let splits = self.staged_bam_partitions(
            cx,
            format!("{}/round4sorted", cx.base),
            true,
            &r4_parts[..n_chroms],
        )?;
        let rspan = cx
            .recorder
            .start(SpanKind::Round, "round4a-recal-table", cx.pipeline_span);
        let ra = self.engine.run_map_only(
            self.job_config(cx.opts, "round4a-recal-table", 1, rspan.id),
            &crate::rounds::RecalTableMapper {
                references: cx.references.clone(),
                known_sites: self.config.known_sites.clone(),
                config: self.config.recal.clone(),
                counters: cx.counters.clone(),
            },
            splits,
        )?;
        let table = crate::rounds::merge_recal_tables(&ra.outputs);
        ra.counters.merge(&cx.counters);
        let s = summary("round4a-recal-table", &ra.counters, &ra.events, ra.wall_ms);
        cx.finish_round(rspan, s);
        Ok(table)
    }

    /// Round 4½b: apply the merged table (PrintReads). Returns the full
    /// partition set: recalibrated chromosome parts plus the untouched
    /// unmapped partition.
    fn stage_round4b(
        &self,
        cx: &mut StageCtx<'_>,
        r4_parts: &[Vec<SamRecord>],
        table: Arc<RecalTable>,
    ) -> Result<Vec<Vec<SamRecord>>> {
        let n_chroms = cx.chrom_names.len();
        let splits = self.staged_bam_partitions(
            cx,
            format!("{}/round4sorted", cx.base),
            true,
            &r4_parts[..n_chroms],
        )?;
        let rspan = cx
            .recorder
            .start(SpanKind::Round, "round4b-print-reads", cx.pipeline_span);
        let rb2 = self.engine.run_map_only(
            self.job_config(cx.opts, "round4b-print-reads", 1, rspan.id),
            &crate::rounds::PrintReadsMapper {
                table,
                config: self.config.recal.clone(),
                counters: cx.counters.clone(),
            },
            splits,
        )?;
        rb2.counters.merge(&cx.counters);
        let s = summary("round4b-print-reads", &rb2.counters, &rb2.events, rb2.wall_ms);
        cx.finish_round(rspan, s);
        let mut parts = r4_parts.to_vec();
        for (i, out) in rb2.outputs.into_iter().enumerate() {
            parts[i] = out.into_iter().map(|(_, r)| r).collect();
        }
        Ok(parts)
    }

    /// Round 5: variant calling under the configured caller and
    /// partitioning scheme. The unmapped partition (index `n_chroms`)
    /// is skipped.
    fn stage_round5(
        &self,
        cx: &mut StageCtx<'_>,
        parts: &[Vec<SamRecord>],
    ) -> Result<Vec<VariantRecord>> {
        let n_chroms = cx.chrom_names.len();
        let round5_name = dag::round5_stage_name(&self.config);
        let rspan = cx
            .recorder
            .start(SpanKind::Round, round5_name, cx.pipeline_span);
        let r5 = match (self.config.caller, self.config.hc_partitioning) {
            (CallerChoice::UnifiedGenotyper, _) => {
                let splits = self.stage_bam_partitions(
                    &format!("{}/round5in", cx.base),
                    &cx.sorted_header,
                    &parts[..n_chroms],
                )?;
                self.engine.run_map_only(
                    self.job_config(cx.opts, "round5-unifiedgenotyper", 1, rspan.id),
                    &crate::rounds::Round5UnifiedGenotyper {
                        references: cx.references.clone(),
                        chrom_names: cx.chrom_names.clone(),
                        config: self.config.ug.clone(),
                        counters: cx.counters.clone(),
                    },
                    splits,
                )?
            }
            (CallerChoice::HaplotypeCaller, HcPartitioning::Chromosome) => {
                let splits = self.stage_bam_partitions(
                    &format!("{}/round5in", cx.base),
                    &cx.sorted_header,
                    &parts[..n_chroms],
                )?;
                self.engine.run_map_only(
                    self.job_config(cx.opts, "round5-haplotypecaller", 1, rspan.id),
                    &Round5HaplotypeCaller {
                        references: cx.references.clone(),
                        chrom_names: cx.chrom_names.clone(),
                        config: self.config.hc.clone(),
                        counters: cx.counters.clone(),
                    },
                    splits,
                )?
            }
            (CallerChoice::HaplotypeCaller, HcPartitioning::FineGrained { segment_len, overlap }) => {
                // The §3.2 overlapping range scheme: reads overlapping a
                // padded span are replicated into that segment's
                // partition; calls are emitted from segment cores only.
                let ranges = crate::gdpt::OverlappingRanges::new(segment_len, overlap);
                let mut splits = Vec::new();
                for (ref_id, part) in parts[..n_chroms].iter().enumerate() {
                    let chrom_len = cx.references[ref_id].len() as i64;
                    if part.is_empty() {
                        continue;
                    }
                    for seg in 0..ranges.n_segments(chrom_len) {
                        let (span_s, span_e) = ranges.segment_span(seg, chrom_len);
                        let core_s = seg as i64 * segment_len + 1;
                        let core_e = ((seg as i64 + 1) * segment_len).min(chrom_len);
                        let seg_records: Vec<SamRecord> = part
                            .iter()
                            .filter(|r| {
                                r.is_mapped() && r.pos <= span_e && r.end_pos() >= span_s
                            })
                            .cloned()
                            .collect();
                        let label = crate::rounds::fine_segment_label(
                            ref_id as i32,
                            (core_s, core_e),
                            (span_s, span_e),
                        );
                        let bytes = SharedBytes::from_vec(
                            gesall_formats::bam::write_bam(&cx.sorted_header, &seg_records),
                        );
                        let path = format!("{}/round5fine/{label}", cx.base);
                        let info = self.dfs.write_shared_with_policy(
                            &path,
                            bytes.clone(),
                            &LogicalPartitionPlacement,
                        )?;
                        let mut split = InputSplit::new(label.clone(), vec![(label, bytes)]);
                        if let Some(node) = info.single_home() {
                            split = split.at_node(node % self.engine.cluster().n_nodes());
                        }
                        splits.push(split);
                    }
                }
                self.engine.run_map_only(
                    self.job_config(cx.opts, "round5-hc-finegrained", 1, rspan.id),
                    &crate::rounds::Round5HaplotypeCallerFine {
                        references: cx.references.clone(),
                        chrom_names: cx.chrom_names.clone(),
                        config: self.config.hc.clone(),
                        counters: cx.counters.clone(),
                    },
                    splits,
                )?
            }
        };
        r5.counters.merge(&cx.counters);
        let s = summary(round5_name, &r5.counters, &r5.events, r5.wall_ms);
        cx.finish_round(rspan, s);
        let mut variants: Vec<VariantRecord> = r5
            .outputs
            .into_iter()
            .flatten()
            .map(|(_, v)| v)
            .collect();
        variants.sort_by(|a, b| a.site().cmp(&b.site()));
        Ok(variants)
    }
}

/// Everything a stage body needs besides its data inputs: the run's
/// namespace, span parentage, cumulative counters, reference facts, and
/// the growing round-summary list.
struct StageCtx<'a> {
    aligner: &'a Aligner,
    opts: &'a RunOptions,
    counters: Counters,
    recorder: Recorder,
    pipeline_span: SpanId,
    base: String,
    header: SamHeader,
    sorted_header: SamHeader,
    references: Arc<Vec<Vec<u8>>>,
    chrom_names: Arc<Vec<String>>,
    rounds: Vec<RoundSummary>,
    /// Staged input splits keyed by DFS dir, so sibling stages consuming
    /// the same parent output (round2b + round3, round4a + round4b)
    /// upload it once and share the splits — the split's byte payloads
    /// are refcounted slices, so the clone is pointer-sized.
    staged: HashMap<String, Vec<InputSplit<String, SharedBytes>>>,
}

impl StageCtx<'_> {
    /// Close a round span carrying the round's task counts and counter
    /// snapshot (so the trace alone reconstructs the table), and append
    /// the summary.
    fn finish_round(&mut self, open: OpenSpan, s: RoundSummary) {
        self.recorder.end_with(
            open,
            &s.name,
            vec![
                ("n_map_tasks".to_string(), s.n_map_tasks.to_string()),
                ("n_reduce_tasks".to_string(), s.n_reduce_tasks.to_string()),
            ],
            s.counters.clone(),
        );
        self.rounds.push(s);
    }
}

fn collect_parts<K>(outputs: &[Vec<(K, SamRecord)>]) -> Vec<Vec<SamRecord>> {
    outputs
        .iter()
        .map(|out| out.iter().map(|(_, r)| r.clone()).collect())
        .collect()
}

/// A stage's committed output, as stored in the content-addressed
/// intermediate store. The lossless wire codec matters: VCF *text*
/// round-trips qualities through `{:.2}` formatting, so cached variants
/// are stored as wire records, never as rendered text.
#[derive(Debug, Clone)]
pub enum StageData {
    /// BAM logical partitions (most stages).
    Parts(Vec<Vec<SamRecord>>),
    /// The `MarkDup_opt` bloom filter.
    Bloom(BloomFilter),
    /// The merged base-recalibration table.
    Recal(RecalTable),
    /// Round-5 calls, sorted by site.
    Variants(Vec<VariantRecord>),
}

impl Wire for StageData {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StageData::Parts(p) => {
                wire::put_varint(buf, 0);
                p.encode(buf);
            }
            StageData::Bloom(b) => {
                wire::put_varint(buf, 1);
                b.encode(buf);
            }
            StageData::Recal(t) => {
                wire::put_varint(buf, 2);
                t.encode(buf);
            }
            StageData::Variants(v) => {
                wire::put_varint(buf, 3);
                v.encode(buf);
            }
        }
    }

    fn decode(cur: &mut wire::Cursor<'_>) -> gesall_formats::error::Result<StageData> {
        match cur.get_varint()? {
            0 => Ok(StageData::Parts(Vec::<Vec<SamRecord>>::decode(cur)?)),
            1 => Ok(StageData::Bloom(BloomFilter::decode(cur)?)),
            2 => Ok(StageData::Recal(RecalTable::decode(cur)?)),
            3 => Ok(StageData::Variants(Vec::<VariantRecord>::decode(cur)?)),
            t => Err(gesall_formats::error::FormatError::Bam(format!(
                "unknown stage-data tag {t}"
            ))),
        }
    }
}

fn summary(
    name: &str,
    counters: &Counters,
    events: &[gesall_mapreduce::runtime::TaskEvent],
    wall_ms: f64,
) -> RoundSummary {
    use gesall_mapreduce::runtime::{AttemptOutcome, TaskKind};
    // Count committed tasks, not attempts: retries and speculative losers
    // also leave events, but only one attempt per task ever succeeds.
    let done = |e: &&gesall_mapreduce::runtime::TaskEvent| e.outcome == AttemptOutcome::Succeeded;
    RoundSummary {
        name: name.into(),
        wall_ms,
        n_map_tasks: events
            .iter()
            .filter(|e| e.kind == TaskKind::Map)
            .filter(done)
            .count(),
        n_reduce_tasks: events
            .iter()
            .filter(|e| e.kind == TaskKind::Reduce)
            .filter(done)
            .count(),
        counters: counters.snapshot(),
    }
}

// ---------------------------------------------------------------------
// Serial baseline and hybrid pipelines
// ---------------------------------------------------------------------

/// The GATK-best-practices single-node baseline: serial versions of every
/// step, whole dataset at once.
pub fn serial_pipeline(
    aligner: &Aligner,
    references: &[Vec<u8>],
    chrom_names: &[String],
    pairs: &[ReadPair],
    read_group: &ReadGroup,
    seed: u64,
    hc: &HaplotypeCallerConfig,
) -> (Vec<SamRecord>, Vec<VariantRecord>) {
    // Step 1: alignment over the whole input as one serial stream.
    let aligned = aligner.align_pairs(pairs);
    let records: Vec<SamRecord> = aligned.into_iter().flat_map(|(a, b)| [a, b]).collect();
    serial_tail_from_aligned(aligner, references, chrom_names, records, read_group, seed, hc)
}

/// Serial steps 3..end applied to already-aligned records — the hybrid
/// pipeline for measuring D-impact of parallel alignment (P̄₁).
pub fn serial_tail_from_aligned(
    aligner: &Aligner,
    references: &[Vec<u8>],
    chrom_names: &[String],
    mut records: Vec<SamRecord>,
    read_group: &ReadGroup,
    seed: u64,
    hc: &HaplotypeCallerConfig,
) -> (Vec<SamRecord>, Vec<VariantRecord>) {
    let mut header = aligner.index().sam_header();
    gesall_tools::add_read_groups::add_or_replace_read_groups(
        &mut header,
        &mut records,
        read_group,
    );
    gesall_tools::clean_sam::clean_sam(&mut records, RefView::new(references));
    gesall_tools::fix_mate::fix_mate_information(&mut records);
    gesall_tools::mark_duplicates::mark_duplicates(&mut records, seed);
    serial_tail_from_markdup(references, chrom_names, records, hc)
}

/// Serial sort + HaplotypeCaller applied to duplicate-marked records —
/// the hybrid pipeline for measuring D-impact of parallel MarkDuplicates
/// (P̄₂).
pub fn serial_tail_from_markdup(
    references: &[Vec<u8>],
    chrom_names: &[String],
    mut records: Vec<SamRecord>,
    hc: &HaplotypeCallerConfig,
) -> (Vec<SamRecord>, Vec<VariantRecord>) {
    let mut header = SamHeader::default();
    gesall_tools::sort_sam::sort_sam(&mut header, &mut records);
    let rv = RefView::new(references);
    let mut variants = Vec::new();
    for (ref_id, name) in chrom_names.iter().enumerate() {
        let result = call_chromosome(&records, ref_id as i32, name, rv, hc);
        variants.extend(result.variants);
    }
    variants.sort_by(|a, b| a.site().cmp(&b.site()));
    (records, variants)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_reproduces_the_papers_round_structure() {
        let rounds = plan_rounds(Partitioning::ByReadName, &gatk_best_practices_specs());
        // Round 1: Bwa + SamToBam (+ the next two Any steps fuse into the
        // map side of round 2 in the paper; the planner fuses them into
        // round 1 since no shuffle is needed — both are valid fusions,
        // what matters is WHERE shuffles land).
        let shuffles: Vec<&RoundPlan> = rounds.iter().filter(|r| r.needs_shuffle).collect();
        // Shuffles must land exactly before MarkDuplicates and SortSam.
        assert_eq!(
            shuffles.len(),
            2,
            "expected 2 rearrangements, got {rounds:#?}"
        );
        assert_eq!(shuffles[0].programs[0], "MarkDuplicates");
        assert_eq!(shuffles[1].programs[0], "SortSam");
        // HaplotypeCaller fuses with SortSam's arrangement.
        assert!(shuffles[1].programs.contains(&"HaplotypeCaller".to_string()));
        // FixMateInformation runs without a shuffle (input grouped by
        // name from alignment).
        let first = &rounds[0];
        assert!(first.programs.contains(&"FixMateInformation".to_string()));
        assert!(!first.needs_shuffle);
    }

    #[test]
    fn planner_inserts_shuffle_on_incompatibility() {
        let programs = vec![
            ProgramSpec::new("A", Partitioning::ByRange).producing(Partitioning::ByRange),
            ProgramSpec::new("B", Partitioning::ByReadName),
            ProgramSpec::new("C", Partitioning::ByReadName),
            ProgramSpec::new("D", Partitioning::Any),
        ];
        let rounds = plan_rounds(Partitioning::ByReadName, &programs);
        assert_eq!(rounds.len(), 2, "{rounds:#?}");
        assert!(rounds[0].needs_shuffle); // ByReadName -> ByRange
        assert!(rounds[1].needs_shuffle); // ByRange -> ByReadName
        // C fuses (same requirement); D fuses (no requirement).
        assert_eq!(rounds[1].programs, vec!["B", "C", "D"]);
    }

    #[test]
    fn partitioning_compatibility() {
        assert!(Partitioning::Any.satisfied_by(&Partitioning::ByRange));
        assert!(Partitioning::ByRange.satisfied_by(&Partitioning::ByRange));
        assert!(!Partitioning::ByReadName.satisfied_by(&Partitioning::ByRange));
    }
}
