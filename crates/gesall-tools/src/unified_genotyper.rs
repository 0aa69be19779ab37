//! UnifiedGenotyper (paper Table 2, step v1): pileup-based diploid
//! small-variant calling — SNPs and short indels.
//!
//! GDPT-wise this is the paper's example of **non-overlapping range
//! partitioning by chromosome** (§3.2): each chromosome's reads can be
//! genotyped independently.

use crate::pileup::{IndelAllele, Pileup, PileupColumn, PileupFilter, ReadSpans};
use crate::refview::RefView;
use gesall_formats::vcf::{Genotype, VariantRecord};
use gesall_formats::sam::SamRecord;

/// Caller parameters.
#[derive(Debug, Clone)]
pub struct GenotyperConfig {
    pub min_depth: u32,
    pub min_alt_count: u32,
    /// Minimum Phred-scaled site quality to emit a call.
    pub min_qual: f64,
    /// Heterozygosity prior (human ≈ 1e-3).
    pub het_prior: f64,
    pub pileup: PileupFilter,
    /// Genotype the region in tiles of this many bases (bounds pileup
    /// memory on long chromosomes).
    pub tile: usize,
}

impl Default for GenotyperConfig {
    fn default() -> GenotyperConfig {
        GenotyperConfig {
            min_depth: 4,
            min_alt_count: 2,
            min_qual: 30.0,
            het_prior: 1e-3,
            pileup: PileupFilter::default(),
            tile: 1 << 16,
        }
    }
}

/// log10 of the three diploid genotype posteriors (RR, RA, AA) from
/// allele counts and mean base qualities.
fn genotype_posteriors(
    ref_count: u32,
    alt_count: u32,
    ref_err: f64,
    alt_err: f64,
    het_prior: f64,
) -> [f64; 3] {
    let e_ref = ref_err.clamp(1e-6, 0.5);
    let e_alt = alt_err.clamp(1e-6, 0.5);
    let rc = ref_count as f64;
    let ac = alt_count as f64;
    // log10 likelihoods.
    let l_rr = rc * (1.0 - e_ref).log10() + ac * (e_alt / 3.0).log10();
    let l_ra = rc * 0.5f64.log10() + ac * 0.5f64.log10();
    let l_aa = rc * (e_ref / 3.0).log10() + ac * (1.0 - e_alt).log10();
    // Priors.
    let p_ra = het_prior;
    let p_aa = het_prior / 2.0;
    let p_rr = 1.0 - p_ra - p_aa;
    let mut post = [
        l_rr + p_rr.log10(),
        l_ra + p_ra.log10(),
        l_aa + p_aa.log10(),
    ];
    // Normalize in log space.
    let max = post.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = post.iter().map(|&x| 10f64.powf(x - max)).sum();
    let log_sum = max + sum.log10();
    for p in &mut post {
        *p -= log_sum;
    }
    post
}

/// Phred-scaled two-sided Fisher's exact test of strand bias on the 2×2
/// table [[ref_fwd, ref_rev], [alt_fwd, alt_rev]].
pub fn fisher_strand(ref_fwd: u32, ref_rev: u32, alt_fwd: u32, alt_rev: u32) -> f64 {
    let (a, b, c, d) = (
        ref_fwd as usize,
        ref_rev as usize,
        alt_fwd as usize,
        alt_rev as usize,
    );
    let n = a + b + c + d;
    if n == 0 || (a + b == 0) || (c + d == 0) {
        return 0.0;
    }
    // log-factorials.
    let lf: Vec<f64> = {
        let mut v = vec![0.0; n + 1];
        for i in 1..=n {
            v[i] = v[i - 1] + (i as f64).ln();
        }
        v
    };
    // Fixed marginals of the observed table.
    let (r1, r2, c1, c2) = (a + b, c + d, a + c, b + d);
    let log_hyper = |x: usize| -> f64 {
        // Cell (1,1) = x; the rest follow from the marginals.
        if x > r1 || x > c1 {
            return f64::NEG_INFINITY;
        }
        let b_ = r1 - x;
        let c_ = c1 - x;
        if c_ > r2 || b_ > c2 {
            return f64::NEG_INFINITY;
        }
        let d_ = r2 - c_;
        lf[r1] + lf[r2] + lf[c1] + lf[c2] - lf[n] - lf[x] - lf[b_] - lf[c_] - lf[d_]
    };
    let observed = log_hyper(a);
    // Two-sided: sum of all tables at most as probable as observed.
    let lo = c1.saturating_sub(r2);
    let hi = r1.min(c1);
    let mut p = 0.0f64;
    for x in lo..=hi {
        let lp = log_hyper(x);
        if lp <= observed + 1e-9 {
            p += lp.exp();
        }
    }
    let p = p.clamp(1e-300, 1.0);
    -10.0 * p.log10()
}

fn mean_err_from_quals(qual_sum: u64, count: u32) -> f64 {
    if count == 0 {
        return 0.01;
    }
    let mean_q = qual_sum as f64 / count as f64;
    10f64.powf(-mean_q / 10.0)
}

/// Try to call a SNP at one column. `pos` is 1-based.
fn call_snp(
    col: &PileupColumn,
    chrom: &str,
    pos: i64,
    ref_base: u8,
    cfg: &GenotyperConfig,
) -> Option<VariantRecord> {
    if col.depth < cfg.min_depth {
        return None;
    }
    let (alt, alt_count) = col.top_alt(ref_base)?;
    if alt_count < cfg.min_alt_count {
        return None;
    }
    let ref_count = col.count_of(ref_base);
    let bi = |b: u8| match b {
        b'A' => 0,
        b'C' => 1,
        b'G' => 2,
        _ => 3,
    };
    let ref_err = mean_err_from_quals(col.qual_sums[bi(ref_base)], ref_count);
    let alt_err = mean_err_from_quals(col.qual_sums[bi(alt)], alt_count);
    let post = genotype_posteriors(ref_count, alt_count, ref_err, alt_err, cfg.het_prior);
    let qual = -10.0 * log10_p_from_log10(post[0]);
    if qual < cfg.min_qual {
        return None;
    }
    let genotype = if post[2] > post[1] {
        Genotype::HomAlt
    } else {
        Genotype::Het
    };
    let fs = fisher_strand(
        col.strand_counts[bi(ref_base)][0],
        col.strand_counts[bi(ref_base)][1],
        col.strand_counts[bi(alt)][0],
        col.strand_counts[bi(alt)][1],
    );
    Some(VariantRecord {
        chrom: chrom.to_string(),
        pos,
        ref_allele: (ref_base as char).to_string(),
        alt_allele: (alt as char).to_string(),
        qual: qual.min(3000.0),
        genotype,
        depth: col.depth,
        mapping_quality: col.rms_mapq(),
        fisher_strand: fs,
        allele_balance: alt_count as f64 / (ref_count + alt_count).max(1) as f64,
    })
}

/// log10(P) where the input is already log10(P) — clamp to avoid -inf
/// when the posterior saturates at 1.
fn log10_p_from_log10(log10_p: f64) -> f64 {
    log10_p.max(-300.0)
}

/// Try to call an indel anchored at `pos`.
fn call_indel(
    col: &PileupColumn,
    chrom: &str,
    pos: i64,
    reference: RefView<'_>,
    ref_id: i32,
    cfg: &GenotyperConfig,
) -> Option<VariantRecord> {
    let (allele, count) = col.top_indel()?;
    if count < cfg.min_alt_count {
        return None;
    }
    // Depth context: reads aligned at the anchor (indel carriers included
    // in depth only via their M bases, so combine).
    let depth = col.depth.max(count);
    if depth < cfg.min_depth {
        return None;
    }
    let ratio = count as f64 / depth as f64;
    if ratio < 0.15 {
        return None;
    }
    // Binary allele likelihood with a fixed indel error rate.
    let e = 0.01f64;
    let wc = count as f64;
    let wr = (depth - count) as f64;
    let l_rr = wr * (1.0 - e).log10() + wc * e.log10();
    let l_ra = (wr + wc) * 0.5f64.log10();
    let l_aa = wr * e.log10() + wc * (1.0 - e).log10();
    let p_ra = cfg.het_prior / 8.0; // indels rarer than SNPs
    let p_aa = p_ra / 2.0;
    let p_rr = 1.0 - p_ra - p_aa;
    let mut post = [
        l_rr + p_rr.log10(),
        l_ra + p_ra.log10(),
        l_aa + p_aa.log10(),
    ];
    let max = post.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = post.iter().map(|&x| 10f64.powf(x - max)).sum();
    let log_sum = max + sum.log10();
    for p in &mut post {
        *p -= log_sum;
    }
    let qual = -10.0 * log10_p_from_log10(post[0]);
    if qual < cfg.min_qual {
        return None;
    }
    let genotype = if post[2] > post[1] {
        Genotype::HomAlt
    } else {
        Genotype::Het
    };
    let anchor_base = reference.base(ref_id, pos)? as char;
    let (ref_allele, alt_allele) = match allele {
        IndelAllele::Ins(seq) => (
            anchor_base.to_string(),
            format!("{anchor_base}{}", String::from_utf8_lossy(seq)),
        ),
        IndelAllele::Del(len) => {
            let deleted = reference.slice(ref_id, pos + 1, pos + *len as i64);
            if deleted.len() != *len as usize {
                return None; // deletion runs past the chromosome
            }
            (
                format!("{anchor_base}{}", String::from_utf8_lossy(deleted)),
                anchor_base.to_string(),
            )
        }
    };
    Some(VariantRecord {
        chrom: chrom.to_string(),
        pos,
        ref_allele,
        alt_allele,
        qual: qual.min(3000.0),
        genotype,
        depth,
        mapping_quality: col.rms_mapq(),
        fisher_strand: 0.0,
        allele_balance: ratio,
    })
}

/// Genotype one region `[start, end]` (1-based inclusive) of one
/// chromosome. `records` may hold reads in any order and from anywhere:
/// each tile's pileup reads only the run [`ReadSpans::overlapping`]
/// picks, so coordinate-sorted input costs about the reads overlapping
/// the region.
pub fn call_region(
    records: &[SamRecord],
    ref_id: i32,
    chrom: &str,
    start: i64,
    end: i64,
    reference: RefView<'_>,
    cfg: &GenotyperConfig,
) -> Vec<VariantRecord> {
    let spans = ReadSpans::new(records, ref_id);
    genotype_region(
        |s, e| spans.overlapping(s, e),
        ref_id,
        chrom,
        start,
        end,
        reference,
        cfg,
    )
}

/// [`call_region`] with each tile's pileup built from `reads(tile_start,
/// tile_end)`, which must hold every read the pileup filter can admit
/// there. The HaplotypeCaller passes its own lookup to genotype its
/// windows without re-indexing the chromosome per window.
pub(crate) fn genotype_region<'r>(
    reads: impl Fn(i64, i64) -> &'r [SamRecord],
    ref_id: i32,
    chrom: &str,
    start: i64,
    end: i64,
    reference: RefView<'_>,
    cfg: &GenotyperConfig,
) -> Vec<VariantRecord> {
    let mut calls = Vec::new();
    let mut tile_start = start;
    while tile_start <= end {
        let tile_end = (tile_start + cfg.tile as i64 - 1).min(end);
        let pileup = Pileup::build(
            reads(tile_start, tile_end),
            ref_id,
            tile_start,
            tile_end,
            &cfg.pileup,
        );
        for (off, col) in pileup.columns.iter().enumerate() {
            let pos = tile_start + off as i64;
            let Some(ref_base) = reference.base(ref_id, pos) else {
                continue;
            };
            if let Some(v) = call_snp(col, chrom, pos, ref_base, cfg) {
                calls.push(v);
            }
            if let Some(v) = call_indel(col, chrom, pos, reference, ref_id, cfg) {
                calls.push(v);
            }
        }
        tile_start = tile_end + 1;
    }
    calls
}

/// Genotype whole chromosomes: `chroms[i]` names reference id `i`.
pub fn unified_genotyper(
    records: &[SamRecord],
    chroms: &[String],
    reference: RefView<'_>,
    cfg: &GenotyperConfig,
) -> Vec<VariantRecord> {
    let mut calls = Vec::new();
    for (ref_id, name) in chroms.iter().enumerate() {
        let len = reference.chrom_len(ref_id as i32) as i64;
        if len == 0 {
            continue;
        }
        calls.extend(call_region(
            records,
            ref_id as i32,
            name,
            1,
            len,
            reference,
            cfg,
        ));
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_formats::sam::{Cigar, Flags};

    fn read(name: &str, pos: i64, seq: &[u8], reverse: bool) -> SamRecord {
        let mut r = SamRecord::unmapped(name, seq.to_vec(), vec![35; seq.len()]);
        let mut f = Flags(0);
        f.set(Flags::REVERSE, reverse);
        r.flags = f;
        r.ref_id = 0;
        r.pos = pos;
        r.mapq = 60;
        r.cigar = Cigar::full_match(seq.len() as u32);
        r
    }

    fn reference() -> Vec<Vec<u8>> {
        vec![(0..200).map(|i| b"ACGT"[i % 4]).collect()]
    }

    fn cfg() -> GenotyperConfig {
        GenotyperConfig::default()
    }

    #[test]
    fn hom_snp_called() {
        let seqs = reference();
        let rv = RefView::new(&seqs);
        // All 12 reads carry T at reference position 21 (ref A).
        let reads: Vec<SamRecord> = (0..12)
            .map(|k| {
                let mut s = seqs[0][10..60].to_vec();
                s[10] = b'T';
                read(&format!("r{k}"), 11, &s, k % 2 == 0)
            })
            .collect();
        let calls = call_region(&reads, 0, "chr1", 1, 200, rv, &cfg());
        assert_eq!(calls.len(), 1, "calls: {calls:?}");
        let v = &calls[0];
        assert_eq!(v.pos, 21);
        assert_eq!(v.ref_allele, "A");
        assert_eq!(v.alt_allele, "T");
        assert_eq!(v.genotype, Genotype::HomAlt);
        assert!(v.qual > 100.0);
        assert_eq!(v.depth, 12);
        assert!((v.allele_balance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn het_snp_called() {
        let seqs = reference();
        let rv = RefView::new(&seqs);
        let reads: Vec<SamRecord> = (0..16)
            .map(|k| {
                let mut s = seqs[0][10..60].to_vec();
                if k % 2 == 0 {
                    s[10] = b'T';
                }
                read(&format!("r{k}"), 11, &s, k % 4 == 0)
            })
            .collect();
        let calls = call_region(&reads, 0, "chr1", 1, 200, rv, &cfg());
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].genotype, Genotype::Het);
        assert!((calls[0].allele_balance - 0.5).abs() < 0.1);
    }

    #[test]
    fn sequencing_noise_not_called() {
        let seqs = reference();
        let rv = RefView::new(&seqs);
        // One read in 20 has an error at position 21.
        let reads: Vec<SamRecord> = (0..20)
            .map(|k| {
                let mut s = seqs[0][10..60].to_vec();
                if k == 0 {
                    s[10] = b'T';
                }
                read(&format!("r{k}"), 11, &s, false)
            })
            .collect();
        let calls = call_region(&reads, 0, "chr1", 1, 200, rv, &cfg());
        assert!(calls.is_empty(), "noise must not be called: {calls:?}");
    }

    #[test]
    fn insertion_called_with_datagen_compatible_alleles() {
        let seqs = reference();
        let rv = RefView::new(&seqs);
        // 10 reads with a GG insertion after reference position 20.
        let reads: Vec<SamRecord> = (0..10)
            .map(|k| {
                let mut s = seqs[0][10..40].to_vec(); // 30 bases: 10M..
                s.splice(10..10, [b'G', b'G']);
                let mut r = read(&format!("r{k}"), 11, &s, false);
                r.cigar = Cigar::parse("10M2I20M").unwrap();
                r
            })
            .collect();
        let calls = call_region(&reads, 0, "chr1", 1, 200, rv, &cfg());
        let ins = calls
            .iter()
            .find(|v| v.alt_allele.len() > v.ref_allele.len())
            .expect("insertion called");
        assert_eq!(ins.pos, 20);
        assert_eq!(ins.ref_allele, seqs[0][19..20].iter().map(|&b| b as char).collect::<String>());
        assert_eq!(ins.alt_allele.len(), 3);
        assert_eq!(ins.genotype, Genotype::HomAlt);
    }

    #[test]
    fn deletion_called() {
        let seqs = reference();
        let rv = RefView::new(&seqs);
        let reads: Vec<SamRecord> = (0..10)
            .map(|k| {
                let s: Vec<u8> = [&seqs[0][10..20], &seqs[0][23..43]].concat();
                let mut r = read(&format!("r{k}"), 11, &s, false);
                r.cigar = Cigar::parse("10M3D20M").unwrap();
                r
            })
            .collect();
        let calls = call_region(&reads, 0, "chr1", 1, 200, rv, &cfg());
        let del = calls
            .iter()
            .find(|v| v.ref_allele.len() > v.alt_allele.len())
            .expect("deletion called");
        assert_eq!(del.pos, 20);
        assert_eq!(del.ref_allele.len(), 4);
        assert_eq!(del.alt_allele.len(), 1);
    }

    #[test]
    fn low_depth_suppressed() {
        let seqs = reference();
        let rv = RefView::new(&seqs);
        let mut s = seqs[0][10..60].to_vec();
        s[10] = b'T';
        let reads = vec![read("a", 11, &s, false), read("b", 11, &s, true)];
        let calls = call_region(&reads, 0, "chr1", 1, 200, rv, &cfg());
        assert!(calls.is_empty());
    }

    #[test]
    fn fisher_strand_detects_bias() {
        // Unbiased: alt on both strands.
        let unbiased = fisher_strand(20, 20, 10, 10);
        // Heavily biased: all alt reads on one strand.
        let biased = fisher_strand(20, 20, 20, 0);
        assert!(biased > unbiased + 6.0, "biased {biased} vs {unbiased}");
        // Two-sided p for the unbiased table is ~0.5–1.0 → FS ≤ ~3.
        assert!(unbiased < 4.0, "unbiased {unbiased}");
        assert!(biased > 10.0, "biased {biased}");
        assert_eq!(fisher_strand(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn genotype_posteriors_sane() {
        // 15 ref, 0 alt → RR wins decisively.
        let p = genotype_posteriors(15, 0, 0.001, 0.001, 1e-3);
        assert!(p[0] > p[1] && p[0] > p[2]);
        // 8 ref, 8 alt → RA.
        let p = genotype_posteriors(8, 8, 0.001, 0.001, 1e-3);
        assert!(p[1] > p[0] && p[1] > p[2]);
        // 0 ref, 15 alt → AA.
        let p = genotype_posteriors(0, 15, 0.001, 0.001, 1e-3);
        assert!(p[2] > p[0] && p[2] > p[1]);
    }
}
