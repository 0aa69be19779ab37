//! The benchmark's vocabulary: workload names and every metric it can
//! print, with units. `BENCHMARK.json` at the repository root must list
//! exactly these (the crate's tests check it).

use gesall_telemetry::Phase;

/// One seeded workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A fresh platform per run: the whole FASTQ→VCF pipeline with the
    /// HaplotypeCaller, nothing served from the stage cache.
    ColdHc,
    /// One warm platform; every run invalidates round 2 so round 1 is a
    /// cache hit and rounds 2→5 re-execute with the UnifiedGenotyper.
    RerunUg,
    /// One job service, two share-1 tenants, each a closed-loop client
    /// submitting small cold UnifiedGenotyper pipelines.
    Tenants2,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ColdHc, Workload::RerunUg, Workload::Tenants2];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdHc => "cold-hc",
            Workload::RerunUg => "rerun-ug",
            Workload::Tenants2 => "tenants-2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Round-1 partitions (and reducers) of each pipeline.
    pub fn partitions(self) -> usize {
        match self {
            Workload::ColdHc | Workload::RerunUg => 4,
            Workload::Tenants2 => 2,
        }
    }

    /// Read pairs one timed run pushes through the platform.
    pub fn pairs_per_run(self) -> usize {
        use crate::inputs::{JOBS_PER_TENANT, PAIRS_PER_JOB, PIPELINE_PAIRS, TENANTS};
        match self {
            Workload::ColdHc | Workload::RerunUg => PIPELINE_PAIRS,
            Workload::Tenants2 => TENANTS * JOBS_PER_TENANT * PAIRS_PER_JOB,
        }
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("pairs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The six stages of the pipeline DAG, in topological order, under the
/// short names the per-stage metrics use. `call` is round 5 with
/// whichever caller the workload runs.
pub const STAGES: [&str; 6] = ["align", "clean_fixmate", "bloom", "markdup", "sort", "call"];

/// The short stage name of a DAG stage or MapReduce round name.
pub fn stage_short_name(round: &str) -> Option<&'static str> {
    let short = match round {
        "round1-align" => "align",
        "round2-clean-fixmate" => "clean_fixmate",
        "round2b-bloom" => "bloom",
        "round3-markdup" => "markdup",
        "round4-sort" => "sort",
        r if r.starts_with("round5-") => "call",
        _ => return None,
    };
    Some(short)
}

/// The per-layer metric of one MapReduce phase, e.g. `mr.phase.sort_spill_s`.
pub fn phase_metric(phase: Phase) -> String {
    format!("mr.phase.{}_s", phase.name().replace('-', "_"))
}

/// Per-layer metrics, printed by every traced run. Metrics of a layer a
/// workload does not exercise read 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    // gesall-aligner
    add("aligner.index_build_s", "s");
    add("aligner.align_us_per_pair", "us");
    add("kernel.occ.words_popcounted", "count");
    add("kernel.sw.banded_hits", "count");
    add("kernel.sw.full_fallbacks", "count");
    // gesall-formats
    for codec in ["lz", "seq"] {
        add(&format!("codec.{codec}.encode_ns_per_byte"), "ns/B");
        add(&format!("codec.{codec}.decode_ns_per_byte"), "ns/B");
        add(&format!("codec.{codec}.ratio"), "ratio");
    }
    // gesall-dfs
    add("dfs.write_mb_per_s", "MB/s");
    add("dfs.read_mb_per_s", "MB/s");
    add("dfs.cas_get_s", "s");
    add("dfs.bytes_written", "B");
    add("dfs.bytes_read", "B");
    add("dfs.bytes_copied", "B");
    // gesall-mapreduce
    for phase in [
        "map",
        "sort_spill",
        "map_merge",
        "shuffle",
        "reduce_merge",
        "reduce",
    ] {
        add(&format!("mr.phase.{phase}_s"), "s");
    }
    add("mr.shuffle.dfs_bytes", "B");
    add("mr.shuffle.fetch_local_frac", "frac");
    add("mr.spec.launched", "count");
    add("mr.spec.wasted", "count");
    add("mr.attempts.useful_frac", "frac");
    add("mr.slot_idle_frac", "frac");
    for stage in STAGES {
        add(&format!("mr.slot_idle_frac.{stage}"), "frac");
    }
    // gesall-tools
    add("tools.hc_s", "s");
    add("tools.ug_s", "s");
    add("tools.markdup_ns_per_record", "ns");
    add("tools.sort_ns_per_record", "ns");
    add("tools.clean_fixmate_ns_per_record", "ns");
    // gesall-core
    for stage in STAGES {
        add(&format!("core.stage.{stage}_s"), "s");
    }
    add("core.dag.cache_hits", "count");
    add("core.residual_s", "s");
    // gesall-jobsvc
    add("jobsvc.queue_wait_s", "s");
    add("jobsvc.slots_borrowed", "count");
    add("jobsvc.slots_reclaimed", "count");
    // gesall-telemetry
    add("telemetry.overhead_frac", "frac");
    m
}
