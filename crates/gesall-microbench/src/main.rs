//! Kernel microbenches: each bit-parallel map-phase kernel (DESIGN.md
//! §5) timed head-to-head against the scalar twin it is pinned to —
//! packed-BWT rank vs the symbol-at-a-time scan, banded Smith–Waterman
//! vs the full DP, radix spill sort vs the comparison sort.
//!
//! Hand-rolled harness (no criterion: this is a `bin`, and the paired
//! run must share inputs exactly): warm up, sample each side N times,
//! report the median ns/op and the speedup. A `BENCH_micro.json` record
//! is appended under the output dir (first CLI arg, default `.`), next
//! to bench-smoke's record, so CI archives both.

use gesall_aligner::fm::FmIndex;
use gesall_aligner::sw::{self, Band, Scoring};
use gesall_datagen::donor::DonorConfig;
use gesall_datagen::reads::ReadSimConfig;
use gesall_datagen::{DonorGenome, GenomeConfig, ReadSimulator, ReferenceGenome};
use gesall_formats::sam::SamRecord;
use gesall_formats::wire::Wire;
use gesall_formats::Codec;
use gesall_mapreduce::shuffle::SortSpillBuffer;
use gesall_mapreduce::task::HashPartitioner;
use gesall_mapreduce::{Counters, SpillPool};
use gesall_telemetry::BenchRecord;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn pseudo_dna(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b"ACGT"[(x >> 33) as usize % 4]
        })
        .collect()
}

/// Median ns per call of `f` over `samples` timed runs of `iters`
/// calls each, after one untimed warmup run.
fn time_ns(samples: usize, iters: usize, mut f: impl FnMut()) -> u64 {
    for _ in 0..iters {
        f();
    }
    let mut runs: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as u64 / iters as u64
        })
        .collect();
    runs.sort_unstable();
    runs[runs.len() / 2]
}

struct Pair {
    name: &'static str,
    kernel_ns: u64,
    scalar_ns: u64,
}

impl Pair {
    fn speedup(&self) -> f64 {
        if self.kernel_ns == 0 {
            0.0
        } else {
            self.scalar_ns as f64 / self.kernel_ns as f64
        }
    }
}

/// occ rank over a 64 kbp BWT: whole-word XOR+popcount vs the
/// symbol-at-a-time scan, probed at positions spread across checkpoint
/// strides so both sides pay every remainder length.
fn bench_occ() -> Pair {
    let text = pseudo_dna(1 << 16, 0xB817);
    let fm = FmIndex::build(&text);
    let n = text.len() + 1;
    let probes: Vec<(u8, usize)> = (0..256)
        .map(|k| ((k % 4) as u8 + 1, (k * 509 + 37) % (n + 1)))
        .collect();
    let kernel_ns = time_ns(15, 200, || {
        for &(c, i) in &probes {
            black_box(fm.occ_words(c, i));
        }
    });
    let scalar_ns = time_ns(15, 200, || {
        for &(c, i) in &probes {
            black_box(fm.occ_scalar(c, i));
        }
    });
    Pair {
        name: "occ_rank_256_probes",
        kernel_ns,
        scalar_ns,
    }
}

/// Seed extension of a 100 bp read against a 240 bp window: the banded
/// DP (slack 16, the production window margin) vs the full DP, on a
/// read with a few substitutions so the traceback is non-trivial.
fn bench_sw() -> Pair {
    let window = pseudo_dna(240, 0x57AB);
    let offset = 70usize;
    let mut query = window[offset..offset + 100].to_vec();
    for p in [11usize, 47, 83] {
        query[p] = match query[p] {
            b'A' => b'C',
            b'C' => b'G',
            b'G' => b'T',
            _ => b'A',
        };
    }
    let scoring = Scoring::default();
    let band = Band::around_offset(offset as isize, 16);
    let kernel_ns = sw::with_workspace(|ws| {
        time_ns(15, 400, || {
            black_box(sw::local_align_banded(&query, &window, &scoring, band, ws));
        })
    });
    let scalar_ns = sw::with_workspace(|ws| {
        time_ns(15, 400, || {
            black_box(sw::local_align_with(&query, &window, &scoring, ws));
        })
    });
    Pair {
        name: "sw_extend_100bp_in_240bp",
        kernel_ns,
        scalar_ns,
    }
}

/// The spill path end to end — emit 20k u64 records through the
/// sort-spill buffer and drain it — with the radix kernel vs the
/// comparison sort. Keys are shuffled so every radix byte pass works.
fn bench_spill_sort() -> Pair {
    let records: Vec<(u64, u64)> = (0..20_000u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i))
        .collect();
    let p = HashPartitioner;
    let pool = Arc::new(SpillPool::new(2, 4));
    let run = |radix: bool| {
        time_ns(9, 5, || {
            let mut buf =
                SortSpillBuffer::new(64 * 1024, 4, &p, false, pool.clone(), Counters::new())
                    .with_radix(radix);
            for &(k, v) in &records {
                buf.emit(k, v);
            }
            black_box(buf.finish());
        })
    };
    Pair {
        name: "spill_sort_20k_u64",
        kernel_ns: run(true),
        scalar_ns: run(false),
    }
}

struct CodecRow {
    name: &'static str,
    compress_ns_per_byte: f64,
    decompress_ns_per_byte: f64,
    ratio: f64,
}

/// Every registered compressed codec on the same simulated-read
/// alignment-record stream (datagen reads, wire-encoded exactly as a
/// map-output partition carries them): compress/decompress ns per raw
/// byte and the achieved ratio. The Seq row is the genomic domain codec
/// the shuffle hints for `SamRecord` streams; Lz is the general-purpose
/// baseline it must beat on this payload.
fn bench_codecs() -> Vec<CodecRow> {
    let genome = ReferenceGenome::generate(&GenomeConfig {
        chromosome_lengths: vec![50_000],
        ..GenomeConfig::default()
    });
    let donor = DonorGenome::generate(&genome, &DonorConfig::default());
    let (pairs, _) = ReadSimulator::new(
        &genome,
        &donor,
        ReadSimConfig {
            n_pairs: 1_000,
            ..ReadSimConfig::default()
        },
    )
    .simulate();
    let mut blob = Vec::new();
    let mut pos = 0i64;
    for (i, p) in pairs.iter().enumerate() {
        for r in [&p.r1, &p.r2] {
            let mut rec = SamRecord::unmapped(r.name.clone(), r.seq.clone(), r.qual.clone());
            // Mostly-sorted positions, like a sorted partition payload.
            pos += (i % 7) as i64;
            rec.pos = pos;
            rec.encode(&mut blob);
        }
    }
    Codec::registry()
        .iter()
        .filter(|c| c.is_compressed())
        .map(|&codec| {
            let mut encoded = Vec::new();
            codec.encode_append(&blob, &mut encoded);
            let roundtrip = codec.decode(&encoded).expect("codec must roundtrip");
            assert_eq!(roundtrip, blob, "{} is not lossless", codec.name());
            let compress_ns = time_ns(9, 3, || {
                let mut out = Vec::new();
                codec.encode_append(black_box(&blob), &mut out);
                black_box(out.len());
            });
            let decompress_ns = time_ns(9, 3, || {
                black_box(codec.decode(black_box(&encoded)).unwrap().len());
            });
            CodecRow {
                name: codec.name(),
                compress_ns_per_byte: compress_ns as f64 / blob.len() as f64,
                decompress_ns_per_byte: decompress_ns as f64 / blob.len() as f64,
                ratio: blob.len() as f64 / encoded.len() as f64,
            }
        })
        .collect()
}

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let t0 = Instant::now();
    let pairs = [bench_occ(), bench_sw(), bench_spill_sort()];
    let codec_rows = bench_codecs();

    println!("== bench-micro: bit-parallel kernels vs scalar twins ==\n");
    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "kernel", "kernel ns/op", "scalar ns/op", "speedup"
    );
    for p in &pairs {
        println!(
            "{:<28} {:>14} {:>14} {:>8.2}x",
            p.name,
            p.kernel_ns,
            p.scalar_ns,
            p.speedup()
        );
    }

    println!("\n== bench-micro: shuffle codecs on datagen reads ==\n");
    println!(
        "{:<28} {:>16} {:>18} {:>8}",
        "codec", "compress ns/B", "decompress ns/B", "ratio"
    );
    for r in &codec_rows {
        println!(
            "{:<28} {:>16.3} {:>18.3} {:>7.2}x",
            r.name, r.compress_ns_per_byte, r.decompress_ns_per_byte, r.ratio
        );
    }

    let mut record = BenchRecord::new("micro");
    record.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    for p in &pairs {
        record
            .workload
            .push((format!("{}_kernel_ns", p.name), p.kernel_ns.to_string()));
        record
            .workload
            .push((format!("{}_scalar_ns", p.name), p.scalar_ns.to_string()));
        record
            .workload
            .push((format!("{}_speedup", p.name), format!("{:.2}", p.speedup())));
    }
    for r in &codec_rows {
        record.workload.push((
            format!("codec_{}_compress_ns_per_byte", r.name),
            format!("{:.3}", r.compress_ns_per_byte),
        ));
        record.workload.push((
            format!("codec_{}_decompress_ns_per_byte", r.name),
            format!("{:.3}", r.decompress_ns_per_byte),
        ));
        record
            .workload
            .push((format!("codec_{}_ratio", r.name), format!("{:.2}", r.ratio)));
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create output dir {out_dir}: {e}");
        std::process::exit(1);
    }
    match record.append_to_dir(Path::new(&out_dir)) {
        Ok(path) => println!("\nBench record appended to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write bench record: {e}");
            std::process::exit(1);
        }
    }
}
