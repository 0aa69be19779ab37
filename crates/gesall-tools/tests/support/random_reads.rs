//! Random read sets for the read-span lookup's oracle tests, shared by
//! `tests/proptest_tools.rs` and the callers' unit tests. A set holds
//! reads in any order: reads on a second chromosome, unmapped, secondary
//! and duplicate reads, low MAPQ and low base qualities, leading
//! insertions and soft clips, and reads spanning more than a
//! HaplotypeCaller window. Stacks of clean reads carrying a planted SNP,
//! deletion or insertion make the callers open windows and emit calls.

use gesall_formats::sam::cigar::{Cigar, CigarOp};
use gesall_formats::sam::{Flags, SamRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Length of each reference chromosome.
pub const CHROM_LEN: usize = 3000;

/// Two chromosomes (ids 0 and 1) of fixed pseudo-random sequence.
pub fn reference() -> Vec<Vec<u8>> {
    (0..2u64)
        .map(|c| {
            let mut x = c + 1;
            (0..CHROM_LEN)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    b"ACGT"[(x >> 33) as usize % 4]
                })
                .collect()
        })
        .collect()
}

fn random_base(rng: &mut StdRng) -> u8 {
    b"ACGT"[rng.gen_range(0..4usize)]
}

/// A read on `ref_id` at `pos` with CIGAR `ops`: aligned bases copy the
/// reference with a 1% error rate, inserted and clipped bases are random.
/// `qual` fixes every base quality; `None` draws them from 2..40.
fn read(
    rng: &mut StdRng,
    reference: &[Vec<u8>],
    ref_id: i32,
    pos: i64,
    ops: Vec<CigarOp>,
    qual: Option<u8>,
) -> SamRecord {
    let mut seq = Vec::new();
    let mut ref_pos = pos;
    for op in &ops {
        match *op {
            CigarOp::Match(len) => {
                for k in 0..len as i64 {
                    let idx = (ref_pos + k - 1) as usize;
                    let base = reference[ref_id as usize].get(idx).copied().unwrap_or(b'N');
                    seq.push(if rng.gen_bool(0.01) {
                        random_base(rng)
                    } else {
                        base
                    });
                }
            }
            CigarOp::Ins(len) | CigarOp::SoftClip(len) => {
                seq.extend((0..len).map(|_| random_base(rng)));
            }
            _ => {}
        }
        if op.consumes_reference() {
            ref_pos += op.len() as i64;
        }
    }
    let quals = (0..seq.len())
        .map(|_| qual.unwrap_or_else(|| rng.gen_range(2..40u8)))
        .collect();
    let mut r = SamRecord::unmapped(format!("r{}", rng.gen::<u32>()), seq, quals);
    r.flags = Flags(0);
    r.flags.set(Flags::REVERSE, rng.gen_bool(0.5));
    r.ref_id = ref_id;
    r.pos = pos;
    r.mapq = 60;
    r.cigar = Cigar(ops);
    r
}

/// A random read set drawn from `seed`; see the module docs.
pub fn random_reads(seed: u64) -> Vec<SamRecord> {
    let reference = reference();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reads = Vec::new();
    // Carrier stacks on chromosome 0: 6-12 clean reads share one variant.
    for _ in 0..rng.gen_range(2..5) {
        let site = rng.gen_range(200..CHROM_LEN as i64 - 200);
        let kind = rng.gen_range(0..3u8);
        for _ in 0..rng.gen_range(6..13) {
            let lead = rng.gen_range(10..70u32);
            let ops = match kind {
                0 => vec![CigarOp::Match(lead + 60)],
                1 => vec![CigarOp::Match(lead), CigarOp::Del(2), CigarOp::Match(60)],
                _ => vec![CigarOp::Match(lead), CigarOp::Ins(2), CigarOp::Match(60)],
            };
            let mut r = read(&mut rng, &reference, 0, site - lead as i64, ops, Some(30));
            let at = lead as usize;
            match kind {
                0 => r.seq[at] = if r.seq[at] == b'A' { b'G' } else { b'A' },
                2 => r.seq[at..at + 2].copy_from_slice(b"TT"),
                _ => {}
            }
            reads.push(r);
        }
    }
    // Scattered reads with every awkward feature.
    for _ in 0..rng.gen_range(0..150) {
        let ref_id = i32::from(rng.gen_bool(0.2));
        let pos = rng.gen_range(1..=CHROM_LEN as i64);
        let mut ops = Vec::new();
        match rng.gen_range(0..5u8) {
            0 => ops.push(CigarOp::Ins(rng.gen_range(1..5))),
            1 => ops.push(CigarOp::SoftClip(rng.gen_range(1..10))),
            _ => {}
        }
        ops.push(CigarOp::Match(rng.gen_range(1..150)));
        match rng.gen_range(0..8u8) {
            0 => ops.push(CigarOp::Del(rng.gen_range(1..6))),
            1 => ops.push(CigarOp::Ins(rng.gen_range(1..6))),
            2 => ops.push(CigarOp::Skip(rng.gen_range(100..600))),
            3 => ops.push(CigarOp::Match(rng.gen_range(200..500))),
            _ => {}
        }
        if !matches!(ops.last(), Some(CigarOp::Match(_))) {
            ops.push(CigarOp::Match(rng.gen_range(1..100)));
        }
        if rng.gen_bool(0.25) {
            ops.push(CigarOp::SoftClip(rng.gen_range(1..10)));
        }
        let mut r = read(&mut rng, &reference, ref_id, pos, ops, None);
        r.mapq = rng.gen_range(0..=60);
        r.flags.set(Flags::DUPLICATE, rng.gen_bool(0.1));
        r.flags.set(Flags::SECONDARY, rng.gen_bool(0.05));
        r.flags.set(Flags::UNMAPPED, rng.gen_bool(0.05));
        reads.push(r);
    }
    if rng.gen_bool(0.5) {
        reads.sort_by_key(|r| (r.ref_id, r.pos));
    } else {
        for i in (1..reads.len()).rev() {
            reads.swap(i, rng.gen_range(0..=i));
        }
    }
    reads
}
