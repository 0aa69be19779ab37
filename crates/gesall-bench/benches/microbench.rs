//! Criterion micro-benchmarks of the performance-critical substrate
//! components: FM-index construction/search, the block codec, the
//! shuffle sort-spill-merge path, MarkDuplicates key machinery, bloom
//! filters, pileup construction, and a HaplotypeCaller size sweep.
//!
//! These complement the `experiments` binary (which regenerates the
//! paper's tables/figures): the micro-benches measure OUR substrate so
//! regressions in the hot paths are visible.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gesall_aligner::fm::FmIndex;
use gesall_aligner::suffix::suffix_array;
use gesall_aligner::sw::{local_align, Scoring};
use gesall_core::gdpt::BloomFilter;
use gesall_formats::compress::{compress, decompress};
use gesall_formats::sam::{Cigar, Flags, SamRecord};
use gesall_formats::wire::Wire;
use gesall_mapreduce::counters::Counters;
use gesall_mapreduce::shuffle::{reduce_merge, Segment, SortSpillBuffer};
use gesall_mapreduce::task::HashPartitioner;
use gesall_mapreduce::SpillPool;
use gesall_tools::haplotype_caller::{call_chromosome, HaplotypeCallerConfig};
use gesall_tools::pileup::{Pileup, PileupFilter};
use gesall_tools::RefView;
use std::sync::Arc;
use std::time::Instant;

fn pseudo_dna(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b"ACGT"[(x >> 33) as usize % 4]
        })
        .collect()
}

fn sample_records(n: usize) -> Vec<SamRecord> {
    (0..n)
        .map(|i| {
            let mut r = SamRecord::unmapped(
                format!("read{i:07}"),
                pseudo_dna(100, i as u64),
                vec![30 + (i % 10) as u8; 100],
            );
            r.flags = Flags(Flags::PAIRED);
            r.flags.set(Flags::UNMAPPED, false);
            r.ref_id = 0;
            r.pos = (i as i64 * 37) % 900_000 + 1;
            r.mapq = 60;
            r.cigar = Cigar::full_match(100);
            r
        })
        .collect()
}

fn bench_suffix_array(c: &mut Criterion) {
    let mut g = c.benchmark_group("suffix_array");
    for size in [64 * 1024usize, 256 * 1024] {
        let text = pseudo_dna(size, 7);
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &text, |b, t| {
            b.iter(|| suffix_array(t));
        });
    }
    g.finish();
}

fn bench_fm_search(c: &mut Criterion) {
    let text = pseudo_dna(1 << 20, 11);
    let fm = FmIndex::build(&text);
    let patterns: Vec<&[u8]> = (0..64).map(|i| &text[i * 1000..i * 1000 + 19]).collect();
    c.bench_function("fm_index/count_19mer_x64", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for p in &patterns {
                total += fm.count(p);
            }
            total
        });
    });
    c.bench_function("fm_index/locate_19mer_x64", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for p in &patterns {
                total += fm.locate(p, 64).map(|v| v.len()).unwrap_or(0);
            }
            total
        });
    });
}

fn bench_smith_waterman(c: &mut Criterion) {
    let window = pseudo_dna(140, 3);
    let mut query = window[16..116].to_vec();
    query[50] = b'A';
    query[51] = b'C';
    c.bench_function("smith_waterman/100x140", |b| {
        b.iter(|| local_align(&query, &window, &Scoring::default()));
    });
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    // BAM-like payload: serialized records compress like real chunks.
    let records = sample_records(500);
    let mut raw = Vec::new();
    for r in &records {
        r.encode(&mut raw);
    }
    g.throughput(Throughput::Bytes(raw.len() as u64));
    g.bench_function("compress_records", |b| {
        b.iter(|| compress(&raw));
    });
    let compressed = compress(&raw);
    g.bench_function("decompress_records", |b| {
        b.iter(|| decompress(&compressed).unwrap());
    });
    g.finish();
}

fn bench_sam_wire(c: &mut Criterion) {
    let records = sample_records(1000);
    let mut g = c.benchmark_group("sam_wire");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("encode_1k_records", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            for r in &records {
                r.encode(&mut buf);
            }
            buf
        });
    });
    let bytes = records.to_wire_bytes();
    g.bench_function("decode_1k_records", |b| {
        b.iter(|| Vec::<SamRecord>::from_wire_bytes(&bytes).unwrap());
    });
    g.finish();
}

fn bench_shuffle(c: &mut Criterion) {
    let mut g = c.benchmark_group("shuffle");
    g.sample_size(20);
    let pool = Arc::new(SpillPool::new(2, 4));
    g.bench_function("sort_spill_merge_20k", |b| {
        b.iter(|| {
            let counters = Counters::new();
            let p = HashPartitioner;
            let mut buf: SortSpillBuffer<'_, u64, u64> =
                SortSpillBuffer::new(64 * 1024, 4, &p, true, pool.clone(), counters);
            for i in 0..20_000u64 {
                buf.emit(i % 977, i);
            }
            buf.finish()
        });
    });
    // Reduce-side multipass merge over 24 segments.
    let segments: Vec<Segment> = (0..24u64)
        .map(|s| {
            let pairs: Vec<(u64, u64)> = (0..2000).map(|i| (i * 24 + s, i)).collect();
            Segment::from_pairs(&pairs, true)
        })
        .collect();
    g.bench_function("reduce_multipass_merge_24x2k", |b| {
        b.iter(|| {
            let counters = Counters::new();
            reduce_merge::<u64, u64>(segments.clone(), 6, &counters)
        });
    });
    g.finish();
}

fn bench_markdup_keys(c: &mut Criterion) {
    let records = sample_records(2000);
    c.bench_function("markdup/end_keys_2k", |b| {
        b.iter(|| {
            records
                .iter()
                .map(gesall_tools::mark_duplicates::end_key)
                .fold(0i64, |acc, k| acc ^ k.1)
        });
    });
}

fn bench_bloom(c: &mut Criterion) {
    let mut bloom = BloomFilter::with_capacity(100_000);
    for i in 0..50_000i64 {
        bloom.insert(&(0, i * 3, b'F'));
    }
    c.bench_function("bloom/query_x1000", |b| {
        b.iter(|| {
            (0..1000i64)
                .filter(|&i| bloom.maybe_contains(&(0, i * 7, b'F')))
                .count()
        });
    });
}

fn bench_pileup(c: &mut Criterion) {
    let records = sample_records(5000);
    c.bench_function("pileup/100kb_5k_reads", |b| {
        b.iter(|| {
            Pileup::build(&records, 0, 1, 100_000, &PileupFilter::default())
                .columns
                .len()
        });
    });
}

/// A chromosome of `n_reads` coordinate-sorted 100 bp reads, one every
/// 10 bp (10x coverage), all carrying a hom SNP every 500 bp: the
/// HaplotypeCaller opens a window per SNP, and the coverage stays the same
/// whatever `n_reads` is.
fn hc_chromosome(n_reads: usize) -> (Vec<Vec<u8>>, Vec<SamRecord>) {
    let seq = pseudo_dna(10 * n_reads + 100, 11);
    let records = (0..n_reads)
        .map(|i| {
            let pos = 1 + 10 * i as i64;
            let mut bases = seq[(pos - 1) as usize..(pos + 99) as usize].to_vec();
            for (off, b) in bases.iter_mut().enumerate() {
                if (pos + off as i64) % 500 == 0 {
                    *b = if *b == b'A' { b'C' } else { b'A' };
                }
            }
            let mut r = SamRecord::unmapped(format!("read{i:07}"), bases, vec![35; 100]);
            r.flags = Flags(0);
            r.ref_id = 0;
            r.pos = pos;
            r.mapq = 60;
            r.cigar = Cigar::full_match(100);
            r
        })
        .collect();
    (vec![seq], records)
}

/// HaplotypeCaller size sweep: the same coverage at N and 2N reads. The
/// caller's cost per read should stay flat as the chromosome grows; a
/// per-window scan of the whole partition would double it. Reports only.
fn bench_hc_size_sweep(c: &mut Criterion) {
    let cfg = HaplotypeCallerConfig::default();
    let mut g = c.benchmark_group("hc/call_chromosome");
    let mut ns_per_read = Vec::new();
    for n in [10_000usize, 20_000] {
        let (seqs, records) = hc_chromosome(n);
        let rv = RefView::new(&seqs);
        let run = || {
            call_chromosome(&records, 0, "chr1", rv, &cfg)
                .variants
                .len()
        };
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(BenchmarkId::new("reads", n), |b| b.iter(run));
        let reps = 3;
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(run());
        }
        ns_per_read.push((n, t0.elapsed().as_nanos() as f64 / (reps * n) as f64));
    }
    g.finish();
    for (n, ns) in &ns_per_read {
        println!("hc/call_chromosome: {ns:.0} ns/read at {n} reads");
    }
    println!(
        "hc/call_chromosome: 2N/N per-read cost ratio {:.2} (1.0 = linear)",
        ns_per_read[1].1 / ns_per_read[0].1
    );
}

criterion_group!(
    benches,
    bench_suffix_array,
    bench_fm_search,
    bench_smith_waterman,
    bench_codec,
    bench_sam_wire,
    bench_shuffle,
    bench_markdup_keys,
    bench_bloom,
    bench_pileup,
    bench_hc_size_sweep,
);
criterion_main!(benches);
