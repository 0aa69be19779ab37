//! Layer probes for the traced run. Each probe times the benchmark's
//! own calls into one crate's public functions on the workload's inputs
//! or outputs; nothing inside the program is instrumented.

use crate::checks::Checks;
use crate::inputs::Setup;
use crate::median;
use gesall_aligner::Aligner;
use gesall_core::pipeline::PipelineOutput;
use gesall_dfs::{Dfs, DfsConfig};
use gesall_formats::fastq::{split_pairs_into_partitions, ReadPair};
use gesall_formats::sam::SamRecord;
use gesall_formats::vcf::VariantRecord;
use gesall_formats::wire::Wire;
use gesall_formats::{Codec, SharedBytes};
use gesall_tools::haplotype_caller::{call_chromosome, HaplotypeCallerConfig};
use gesall_tools::refview::RefView;
use gesall_tools::unified_genotyper::{unified_genotyper, GenotyperConfig};
use std::hint::black_box;
use std::time::Instant;

/// Largest change in a per-unit cost between the half-size and
/// full-size input before the size sweep fails: per-pair alignment and
/// per-byte codec costs do not depend on input size, so a larger change
/// means a timing was elided or served from a cache.
pub const SIZE_SWEEP_MAX_FACTOR: f64 = 2.0;

/// Repetitions of each alignment timing; the fastest is reported.
const ALIGN_REPS: usize = 2;

/// Repetitions of each codec timing; the median is reported.
const CODEC_REPS: usize = 3;

/// Wire bytes of output records the codec probe encodes at full size:
/// a leading sample of the records, so the slowest codec stays within
/// a few seconds per run.
const CODEC_PAYLOAD_BYTES: usize = 2 << 20;

/// Partitions the DFS probe stages the payload into.
const DFS_PARTITIONS: usize = 4;

/// Range size of the DFS read probe.
const DFS_READ_RANGE: usize = 1 << 20;

/// Per-unit cost at two input sizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sweep {
    pub half: f64,
    pub full: f64,
}

impl Sweep {
    pub fn factor(&self) -> f64 {
        if self.half <= 0.0 || self.full <= 0.0 {
            return f64::INFINITY;
        }
        (self.full / self.half).max(self.half / self.full)
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct CodecProbe {
    pub encode_ns_per_byte: Sweep,
    pub decode_ns_per_byte: Sweep,
    pub ratio: f64,
}

#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub align_pairs: usize,
    pub align_us_per_pair: Sweep,
    pub lz: CodecProbe,
    pub seq: CodecProbe,
    pub codec_payload_bytes: usize,
    pub dfs_write_mb_per_s: f64,
    pub dfs_read_mb_per_s: f64,
    pub clean_fixmate_ns_per_record: f64,
    pub markdup_ns_per_record: f64,
    pub sort_ns_per_record: f64,
    pub hc_s: f64,
    pub ug_s: f64,
}

/// Which caller the workload's pipelines ran, so the probe can check
/// the pipeline's variants against the tool run directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallerCheck {
    HaplotypeCaller,
    UnifiedGenotyper,
    /// Outputs of several pipelines: no single variant set to compare.
    None,
}

/// Run every probe. `pipeline_pairs` are the pairs of one pipeline and
/// `partitions` its round-1 partition count; `outputs` are the traced
/// run's pipeline outputs.
pub fn run(
    setup: &Setup,
    pipeline_pairs: &[ReadPair],
    partitions: usize,
    outputs: &[PipelineOutput],
    caller: CallerCheck,
    checks: &mut Checks,
) -> Probes {
    let mut p = Probes::default();

    // gesall-aligner: one round-1 partition, then its first half.
    let part = split_pairs_into_partitions(pipeline_pairs.to_vec(), partitions)
        .into_iter()
        .next()
        .unwrap_or_default();
    p.align_pairs = part.len();
    p.align_us_per_pair = Sweep {
        half: align_us_per_pair(&setup.aligner, &part[..part.len() / 2]),
        full: align_us_per_pair(&setup.aligner, &part),
    };
    sweep_check(checks, "aligner.align_us_per_pair", p.align_us_per_pair);

    // gesall-formats: the wire-encoded output records (a leading sample
    // of them), then the first half of that sample.
    let records: Vec<&SamRecord> = outputs.iter().flat_map(|o| &o.records).collect();
    let payload = wire_bytes(&records);
    let sample = sample_records(&records, CODEC_PAYLOAD_BYTES);
    let (full, half) = (wire_bytes(sample), wire_bytes(&sample[..sample.len() / 2]));
    p.codec_payload_bytes = full.len();
    p.lz = codec_probe(Codec::Lz, &half, &full, checks);
    p.seq = codec_probe(Codec::Seq, &half, &full, checks);

    // gesall-dfs: stage all output records as partition files, read them
    // back in ranges.
    (p.dfs_write_mb_per_s, p.dfs_read_mb_per_s) = dfs_probe(&payload, checks);

    // gesall-tools: the wrapped programs, run directly on the output records.
    let references: Vec<Vec<u8>> = setup.inputs.chroms.iter().map(|(_, s)| s.clone()).collect();
    let names: Vec<String> = setup.inputs.chroms.iter().map(|(n, _)| n.clone()).collect();
    tools_probe(&mut p, setup, &references, &names, outputs, caller, checks);
    p
}

/// Microseconds per pair, the faster of `ALIGN_REPS` timings, so a burst
/// of load from outside the process does not fail the size sweep.
fn align_us_per_pair(aligner: &Aligner, pairs: &[ReadPair]) -> f64 {
    (0..ALIGN_REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(aligner.align_pairs(black_box(pairs)));
            t0.elapsed().as_secs_f64() * 1e6 / pairs.len().max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The longest leading run of `records` whose wire encoding fits in
/// `max_bytes`.
fn sample_records<'a>(records: &'a [&'a SamRecord], max_bytes: usize) -> &'a [&'a SamRecord] {
    let mut bytes = 0;
    let n = records
        .iter()
        .take_while(|r| {
            bytes += r.encoded_len();
            bytes <= max_bytes
        })
        .count();
    &records[..n]
}

fn wire_bytes(records: &[&SamRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    for r in records {
        r.encode(&mut buf);
    }
    buf
}

fn sweep_check(checks: &mut Checks, name: &str, s: Sweep) {
    checks.check(s.factor() <= SIZE_SWEEP_MAX_FACTOR, || {
        format!(
            "size sweep: {name} is {:.3} at half size and {:.3} at full size",
            s.half, s.full
        )
    });
}

/// Encode and decode ns per raw byte (median of `CODEC_REPS`) at one size,
/// with the encoded length.
fn codec_rates(codec: Codec, raw: &[u8], checks: &mut Checks) -> (f64, f64, usize) {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut encoded = Vec::new();
    for _ in 0..CODEC_REPS {
        encoded.clear();
        let t0 = Instant::now();
        codec.encode_append(black_box(raw), &mut encoded);
        enc.push(t0.elapsed().as_nanos() as f64 / raw.len().max(1) as f64);
        let t0 = Instant::now();
        let decoded = codec.decode(black_box(&encoded));
        dec.push(t0.elapsed().as_nanos() as f64 / raw.len().max(1) as f64);
        let ok = decoded.as_deref().is_ok_and(|d| d == raw);
        checks.check(ok, || format!("codec {} does not round-trip", codec.name()));
    }
    (median(&enc), median(&dec), encoded.len())
}

fn codec_probe(codec: Codec, half: &[u8], full: &[u8], checks: &mut Checks) -> CodecProbe {
    let (enc_half, dec_half, _) = codec_rates(codec, half, checks);
    let (enc_full, dec_full, encoded_len) = codec_rates(codec, full, checks);
    let probe = CodecProbe {
        encode_ns_per_byte: Sweep {
            half: enc_half,
            full: enc_full,
        },
        decode_ns_per_byte: Sweep {
            half: dec_half,
            full: dec_full,
        },
        ratio: full.len() as f64 / encoded_len.max(1) as f64,
    };
    let name = codec.name();
    sweep_check(
        checks,
        &format!("codec.{name}.encode_ns_per_byte"),
        probe.encode_ns_per_byte,
    );
    sweep_check(
        checks,
        &format!("codec.{name}.decode_ns_per_byte"),
        probe.decode_ns_per_byte,
    );
    probe
}

/// Write MB/s and read MB/s through a fresh DFS shaped like the workloads'.
fn dfs_probe(payload: &[u8], checks: &mut Checks) -> (f64, f64) {
    let dfs = Dfs::new(DfsConfig {
        n_nodes: crate::workloads::NODES,
        ..DfsConfig::default()
    });
    let chunk = payload.len().div_ceil(DFS_PARTITIONS).max(1);
    let parts: Vec<SharedBytes> = payload
        .chunks(chunk)
        .map(|c| SharedBytes::from_vec(c.to_vec()))
        .collect();
    let mb = payload.len() as f64 / 1e6;

    let t0 = Instant::now();
    for (i, part) in parts.iter().enumerate() {
        if let Err(e) = dfs.write_file_shared(&format!("/probe/part-{i}"), part.clone()) {
            checks.fail(format!("dfs probe write failed: {e}"));
        }
    }
    let write_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut read_back = 0usize;
    for (i, part) in parts.iter().enumerate() {
        let path = format!("/probe/part-{i}");
        let mut off = 0;
        while off < part.len() {
            let len = DFS_READ_RANGE.min(part.len() - off);
            match dfs.read_file_range_shared(&path, off, len) {
                Ok(b) => read_back += black_box(b).len(),
                Err(e) => checks.fail(format!("dfs probe read failed: {e}")),
            }
            off += len;
        }
    }
    let read_s = t0.elapsed().as_secs_f64();
    checks.check(read_back == payload.len(), || {
        format!("dfs probe read {read_back} of {} bytes", payload.len())
    });
    (mb / write_s.max(1e-9), mb / read_s.max(1e-9))
}

fn sorted_variants(v: &[VariantRecord]) -> Vec<String> {
    let mut lines: Vec<String> = v
        .iter()
        .map(|r| {
            format!(
                "{}\t{}\t{}\t{}\t{}",
                r.chrom, r.pos, r.ref_allele, r.alt_allele, r
            )
        })
        .collect();
    lines.sort();
    lines
}

/// The pipeline's programs run directly: CleanSam + FixMate on
/// name-grouped records, MarkDuplicates, SortSam, then both callers on
/// the coordinate-sorted result.
fn tools_probe(
    p: &mut Probes,
    setup: &Setup,
    references: &[Vec<u8>],
    names: &[String],
    outputs: &[PipelineOutput],
    caller: CallerCheck,
    checks: &mut Checks,
) {
    let mut records: Vec<SamRecord> = outputs.iter().flat_map(|o| o.records.clone()).collect();
    let n = records.len().max(1) as f64;
    let mut header = setup.aligner.index().sam_header();
    gesall_tools::sort_sam::sort_by_name(&mut header, &mut records);

    let t0 = Instant::now();
    gesall_tools::clean_sam::clean_sam(&mut records, RefView::new(references));
    gesall_tools::fix_mate::fix_mate_information(&mut records);
    p.clean_fixmate_ns_per_record = t0.elapsed().as_nanos() as f64 / n;

    let t0 = Instant::now();
    gesall_tools::mark_duplicates::mark_duplicates(&mut records, 0);
    p.markdup_ns_per_record = t0.elapsed().as_nanos() as f64 / n;

    let t0 = Instant::now();
    gesall_tools::sort_sam::sort_sam(&mut header, &mut records);
    p.sort_ns_per_record = t0.elapsed().as_nanos() as f64 / n;

    // The callers read the pipelines' own sorted records (merged by the
    // stable sort when there are several), so with one pipeline their
    // calls must match its round 5 exactly.
    let mut sorted: Vec<SamRecord> = outputs.iter().flat_map(|o| o.records.clone()).collect();
    gesall_tools::sort_sam::sort_sam(&mut header, &mut sorted);
    let t0 = Instant::now();
    let mut hc = Vec::new();
    for (ref_id, name) in names.iter().enumerate() {
        let chrom: Vec<SamRecord> = sorted
            .iter()
            .filter(|r| r.ref_id == ref_id as i32)
            .cloned()
            .collect();
        let res = call_chromosome(
            &chrom,
            ref_id as i32,
            name,
            RefView::new(references),
            &HaplotypeCallerConfig::default(),
        );
        hc.extend(res.variants);
    }
    p.hc_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let ug = unified_genotyper(
        &sorted,
        names,
        RefView::new(references),
        &GenotyperConfig::default(),
    );
    p.ug_s = t0.elapsed().as_secs_f64();

    let direct = match caller {
        CallerCheck::HaplotypeCaller => Some(("HaplotypeCaller", hc)),
        CallerCheck::UnifiedGenotyper => Some(("UnifiedGenotyper", ug)),
        CallerCheck::None => None,
    };
    if let (Some((tool, direct)), Some(out)) = (direct, outputs.first()) {
        let (want, got) = (sorted_variants(&direct), sorted_variants(&out.variants));
        checks.check(want == got, || {
            format!(
                "{tool} run directly calls {} variants, the pipeline {}",
                want.len(),
                got.len()
            )
        });
    }
}
