//! HaplotypeCaller (paper Table 2, step v2): small-variant calling via
//! **greedy sequential segmentation** of the genome into active windows.
//!
//! The caller walks every position of a chromosome in order, computing an
//! *activity* statistic from the reads overlapping it (mismatches,
//! indels, clip boundaries); it greedily opens an *active window* when
//! activity rises, extends it, and closes it subject to minimum/maximum
//! window-length constraints; variants are detected only **inside**
//! windows. This is exactly the data-access pattern the paper says
//! prevents naive positional partitioning (§3.2): a window's boundaries
//! depend on the sequential walk, so cutting the genome mid-walk can
//! shift windows and flip borderline calls.

use crate::pileup::{Pileup, ReadSpans};
use crate::refview::RefView;
use crate::unified_genotyper::{genotype_region, GenotyperConfig};
use gesall_formats::sam::SamRecord;
use gesall_formats::vcf::VariantRecord;

/// Active-window segmentation parameters.
#[derive(Debug, Clone)]
pub struct HaplotypeCallerConfig {
    /// Activity level that opens a window.
    pub activity_on: f64,
    /// A window closes after this many consecutive quiet positions.
    pub quiet_gap: i64,
    /// Minimum window length (short bursts are padded to this).
    pub min_window: i64,
    /// Maximum window length (longer activity is force-split — the
    /// constraint the paper calls out).
    pub max_window: i64,
    /// Padding added around the active core.
    pub pad: i64,
    /// Pileup/genotyping parameters used inside windows.
    pub genotyper: GenotyperConfig,
    /// Chromosome is walked in tiles of this size (memory bound); the
    /// walk state carries across tiles so segmentation stays sequential.
    pub tile: usize,
}

impl Default for HaplotypeCallerConfig {
    fn default() -> HaplotypeCallerConfig {
        HaplotypeCallerConfig {
            activity_on: 0.12,
            quiet_gap: 20,
            min_window: 40,
            max_window: 300,
            pad: 10,
            genotyper: GenotyperConfig::default(),
            tile: 1 << 16,
        }
    }
}

/// One active window on a chromosome (1-based inclusive bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveWindow {
    pub start: i64,
    pub end: i64,
}

impl ActiveWindow {
    pub fn len(&self) -> i64 {
        self.end - self.start + 1
    }

    pub fn is_empty(&self) -> bool {
        self.end < self.start
    }
}

/// The sequential greedy segmentation over a stream of per-position
/// activity values.
struct WindowWalker {
    cfg_on: f64,
    quiet_gap: i64,
    min_window: i64,
    max_window: i64,
    pad: i64,
    open_start: Option<i64>,
    last_active: i64,
    windows: Vec<ActiveWindow>,
}

impl WindowWalker {
    fn new(cfg: &HaplotypeCallerConfig) -> WindowWalker {
        WindowWalker {
            cfg_on: cfg.activity_on,
            quiet_gap: cfg.quiet_gap,
            min_window: cfg.min_window,
            max_window: cfg.max_window,
            pad: cfg.pad,
            open_start: None,
            last_active: 0,
            windows: Vec::new(),
        }
    }

    fn step(&mut self, pos: i64, activity: f64) {
        let active = activity >= self.cfg_on;
        match self.open_start {
            None => {
                if active {
                    self.open_start = Some(pos);
                    self.last_active = pos;
                }
            }
            Some(start) => {
                if active {
                    self.last_active = pos;
                }
                let too_long = pos - start + 1 >= self.max_window;
                let quiet_long_enough = pos - self.last_active >= self.quiet_gap;
                if too_long || quiet_long_enough {
                    self.close(start);
                    // Forced split while still active: reopen immediately
                    // so a long active region becomes adjacent windows.
                    if too_long && active {
                        self.open_start = Some(pos + 1);
                        self.last_active = pos;
                    }
                }
            }
        }
    }

    fn close(&mut self, start: i64) {
        let mut s = start - self.pad;
        let mut e = self.last_active + self.pad;
        if e - s + 1 < self.min_window {
            let deficit = self.min_window - (e - s + 1);
            s -= deficit / 2;
            e += deficit - deficit / 2;
        }
        self.windows.push(ActiveWindow {
            start: s.max(1),
            end: e,
        });
        self.open_start = None;
    }

    fn finish(&mut self) {
        if let Some(start) = self.open_start {
            self.close(start);
        }
    }
}

/// Per-position activity from a pileup column: the fraction of evidence
/// that disagrees with the reference.
fn activity(col: &crate::pileup::PileupColumn) -> f64 {
    let depth = col.depth.max(1) as f64;
    let indel_obs: u32 = col.indels.iter().map(|(_, c)| *c).sum();
    (col.mismatches as f64 + 2.0 * indel_obs as f64 + 0.5 * col.clips as f64) / depth
}

/// Result of a HaplotypeCaller run over one chromosome.
#[derive(Debug, Clone)]
pub struct HaplotypeCallerResult {
    pub variants: Vec<VariantRecord>,
    pub windows: Vec<ActiveWindow>,
}

/// Run the caller over `[start, end]` of one chromosome. `records` may
/// hold reads in any order; reads of other chromosomes are ignored. Every
/// pileup, phase-1 tiles and phase-2 windows alike, takes its reads from
/// one [`ReadSpans`] lookup built here, so coordinate-sorted input costs
/// O(overlapping reads) per window rather than a scan of `records`.
/// Unsorted input gets the same calls, only with wider scans.
///
/// Running over sub-ranges of a chromosome is exactly the fine-grained
/// partitioning the paper analyzes: windows near the cut differ from the
/// full-chromosome walk.
pub fn call_range(
    records: &[SamRecord],
    ref_id: i32,
    chrom: &str,
    start: i64,
    end: i64,
    reference: RefView<'_>,
    cfg: &HaplotypeCallerConfig,
) -> HaplotypeCallerResult {
    let spans = ReadSpans::new(records, ref_id);
    walk_range(
        |s, e| spans.overlapping(s, e),
        ref_id,
        chrom,
        start,
        end,
        reference,
        cfg,
    )
}

/// [`call_range`] with every pileup built from `reads(start, end)`, which
/// must hold every read the pileup filter can admit over `[start, end]`.
fn walk_range<'r>(
    reads: impl Fn(i64, i64) -> &'r [SamRecord],
    ref_id: i32,
    chrom: &str,
    start: i64,
    end: i64,
    reference: RefView<'_>,
    cfg: &HaplotypeCallerConfig,
) -> HaplotypeCallerResult {
    assert!(start >= 1 && end >= start, "bad range");
    // Phase 1: sequential walk computing activity and segmentation.
    let mut walker = WindowWalker::new(cfg);
    let mut tile_start = start;
    while tile_start <= end {
        let tile_end = (tile_start + cfg.tile as i64 - 1).min(end);
        let mut pileup = Pileup::build(
            reads(tile_start, tile_end),
            ref_id,
            tile_start,
            tile_end,
            &cfg.genotyper.pileup,
        );
        let ref_slice = reference.slice(ref_id, tile_start, tile_end);
        if ref_slice.len() == pileup.columns.len() {
            pileup.annotate_mismatches(ref_slice);
        }
        for (off, col) in pileup.columns.iter().enumerate() {
            if col.depth == 0 && col.indels.is_empty() && col.clips == 0 {
                walker.step(tile_start + off as i64, 0.0);
            } else {
                walker.step(tile_start + off as i64, activity(col));
            }
        }
        tile_start = tile_end + 1;
    }
    walker.finish();
    let windows = std::mem::take(&mut walker.windows);

    // Phase 2: genotype inside each window only.
    let mut variants = Vec::new();
    for w in &windows {
        let w_end = w.end.min(reference.chrom_len(ref_id) as i64).min(end + cfg.pad);
        let w_start = w.start.max(1);
        if w_end < w_start {
            continue;
        }
        variants.extend(genotype_region(
            &reads,
            ref_id,
            chrom,
            w_start,
            w_end,
            reference,
            &cfg.genotyper,
        ));
    }
    // Adjacent windows can overlap after padding; dedup by site.
    variants.sort_by(|a, b| a.site().cmp(&b.site()));
    variants.dedup_by(|a, b| a.site() == b.site());
    HaplotypeCallerResult { variants, windows }
}

/// Run the caller over a whole chromosome.
pub fn call_chromosome(
    records: &[SamRecord],
    ref_id: i32,
    chrom: &str,
    reference: RefView<'_>,
    cfg: &HaplotypeCallerConfig,
) -> HaplotypeCallerResult {
    let len = reference.chrom_len(ref_id) as i64;
    if len == 0 {
        return HaplotypeCallerResult {
            variants: Vec::new(),
            windows: Vec::new(),
        };
    }
    call_range(records, ref_id, chrom, 1, len, reference, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pileup::LOOKUPS;
    use crate::random_reads::{random_reads, reference as two_chromosomes, CHROM_LEN};
    use crate::unified_genotyper::call_region;
    use gesall_formats::sam::{Cigar, Flags};
    use gesall_formats::vcf::Genotype;
    use proptest::prelude::*;

    fn read(name: &str, pos: i64, seq: &[u8]) -> SamRecord {
        let mut r = SamRecord::unmapped(name, seq.to_vec(), vec![35; seq.len()]);
        r.flags = Flags(0);
        r.ref_id = 0;
        r.pos = pos;
        r.mapq = 60;
        r.cigar = Cigar::full_match(seq.len() as u32);
        r
    }

    fn reference(n: usize) -> Vec<Vec<u8>> {
        vec![(0..n).map(|i| b"ACGT"[(i * 7 + i / 9) % 4]).collect()]
    }

    #[test]
    fn window_walker_segments_bursts() {
        let cfg = HaplotypeCallerConfig::default();
        let mut w = WindowWalker::new(&cfg);
        for pos in 1..=1000 {
            let a = if (200..=230).contains(&pos) || (600..=640).contains(&pos) {
                0.5
            } else {
                0.0
            };
            w.step(pos, a);
        }
        w.finish();
        assert_eq!(w.windows.len(), 2, "windows: {:?}", w.windows);
        let w0 = w.windows[0];
        assert!(w0.start <= 200 && w0.end >= 230);
        assert!(w0.len() >= cfg.min_window);
    }

    #[test]
    fn long_activity_is_force_split() {
        let cfg = HaplotypeCallerConfig::default();
        let mut w = WindowWalker::new(&cfg);
        for pos in 1..=2000 {
            w.step(pos, if (100..=1500).contains(&pos) { 0.9 } else { 0.0 });
        }
        w.finish();
        assert!(
            w.windows.len() >= 4,
            "1400 active bases must split at max_window=300: {:?}",
            w.windows
        );
        for win in &w.windows {
            assert!(win.len() <= cfg.max_window + 2 * cfg.pad + 2);
        }
    }

    #[test]
    fn trailing_open_window_closed_at_finish() {
        let cfg = HaplotypeCallerConfig::default();
        let mut w = WindowWalker::new(&cfg);
        for pos in 1..=100 {
            w.step(pos, if pos > 90 { 1.0 } else { 0.0 });
        }
        w.finish();
        assert_eq!(w.windows.len(), 1);
    }

    #[test]
    fn calls_variant_inside_window_only() {
        let seqs = reference(2000);
        let rv = RefView::new(&seqs);
        // 12 reads carrying a hom SNP at position 501.
        let mut reads = Vec::new();
        for k in 0..12 {
            let mut s = seqs[0][480..560].to_vec();
            s[20] = match s[20] {
                b'A' => b'T',
                _ => b'A',
            };
            reads.push(read(&format!("v{k}"), 481, &s));
        }
        // Plenty of clean coverage elsewhere.
        for k in 0..12 {
            reads.push(read(&format!("c{k}"), 1001, &seqs[0][1000..1080]));
        }
        let res = call_chromosome(&reads, 0, "chr1", rv, &HaplotypeCallerConfig::default());
        assert_eq!(res.variants.len(), 1, "{:?}", res.variants);
        assert_eq!(res.variants[0].pos, 501);
        assert_eq!(res.variants[0].genotype, Genotype::HomAlt);
        // Exactly one active window, around the SNP.
        assert_eq!(res.windows.len(), 1);
        let w = res.windows[0];
        assert!(w.start <= 501 && 501 <= w.end, "window {w:?}");
    }

    #[test]
    fn clean_coverage_produces_no_windows() {
        let seqs = reference(1000);
        let rv = RefView::new(&seqs);
        let reads: Vec<SamRecord> = (0..20)
            .map(|k| read(&format!("c{k}"), 101 + (k as i64 % 5) * 37, &seqs[0][100..180]))
            .collect();
        // Adjust: reads must match reference at their positions.
        let reads: Vec<SamRecord> = reads
            .into_iter()
            .map(|mut r| {
                let s = seqs[0][(r.pos - 1) as usize..(r.pos - 1) as usize + 80].to_vec();
                r.seq = s;
                r
            })
            .collect();
        let res = call_chromosome(&reads, 0, "chr1", rv, &HaplotypeCallerConfig::default());
        assert!(res.windows.is_empty(), "windows: {:?}", res.windows);
        assert!(res.variants.is_empty());
    }

    #[test]
    fn range_partitioning_can_shift_boundary_windows() {
        // The paper's point: a positional cut mid-activity changes the
        // segmentation relative to the sequential whole-chromosome walk.
        let seqs = reference(4000);
        let rv = RefView::new(&seqs);
        let mut reads = Vec::new();
        // An active stretch straddling position 2000 (noisy bases 1960..2040).
        for k in 0..10 {
            let start = 1940 + k * 8;
            let mut s = seqs[0][start..start + 100].to_vec();
            for j in (10..90).step_by(9) {
                s[j] = match s[j] {
                    b'A' => b'C',
                    b'C' => b'G',
                    b'G' => b'T',
                    _ => b'A',
                };
            }
            reads.push(read(&format!("n{k}"), start as i64 + 1, &s));
        }
        let cfg = HaplotypeCallerConfig::default();
        let whole = call_range(&reads, 0, "chr1", 1, 4000, rv, &cfg);
        let left = call_range(&reads, 0, "chr1", 1, 2000, rv, &cfg);
        let right = call_range(&reads, 0, "chr1", 2001, 4000, rv, &cfg);
        let whole_windows = whole.windows.len();
        let split_windows = left.windows.len() + right.windows.len();
        // The cut lands inside the active region: the split run must see
        // a different segmentation (usually one extra window).
        assert!(whole_windows >= 1);
        assert!(
            split_windows != whole_windows
                || left.windows.last().map(|w| w.end) != whole.windows.first().map(|w| w.end),
            "expected boundary effects: whole={:?} left={:?} right={:?}",
            whole.windows,
            left.windows,
            right.windows
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn callers_equal_full_scan_reference(
            seed in any::<u64>(),
            cut in 1i64..CHROM_LEN as i64,
            small_tiles in any::<bool>(),
        ) {
            // The full-scan reference: the same walk and genotyping with
            // every pileup built over all of `records`.
            let records = random_reads(seed);
            let seqs = two_chromosomes();
            let rv = RefView::new(&seqs);
            let mut cfg = HaplotypeCallerConfig::default();
            if small_tiles {
                cfg.tile = 700;
                cfg.genotyper.tile = 64;
            }
            let len = CHROM_LEN as i64;
            for (start, end) in [(1, len), (1, cut), (cut, len)] {
                let fast = call_range(&records, 0, "chr1", start, end, rv, &cfg);
                let full = walk_range(|_, _| &records[..], 0, "chr1", start, end, rv, &cfg);
                prop_assert_eq!(&fast.windows, &full.windows);
                prop_assert_eq!(&fast.variants, &full.variants);
                if (start, end) == (1, len) {
                    // Every set plants carrier stacks on chromosome 0.
                    prop_assert!(!full.variants.is_empty());
                }
            }
            for ref_id in [0, 1] {
                let fast = call_region(&records, ref_id, "chr", cut, len, rv, &cfg.genotyper);
                let full = genotype_region(
                    |_, _| &records[..],
                    ref_id,
                    "chr",
                    cut,
                    len,
                    rv,
                    &cfg.genotyper,
                );
                prop_assert_eq!(fast, full);
            }
        }
    }

    #[test]
    fn pileups_read_only_reads_near_their_windows() {
        // Coordinate-sorted 100 bp reads every 10 bp (10x coverage) with a
        // hom SNP every 500 bp, so the walk opens a window per SNP. Every
        // pileup (phase-1 tile or phase-2 window) must take its reads from
        // the lookup, and the reads handed over must stay within 2x the
        // (window, overlapping read) pairs. A whole-partition scan per
        // window hands over ~100x more.
        let seqs = reference(60_000);
        let rv = RefView::new(&seqs);
        let reads: Vec<SamRecord> = (0..5990)
            .map(|k| {
                let pos = 1 + 10 * k as i64;
                let mut s = seqs[0][(pos - 1) as usize..(pos + 99) as usize].to_vec();
                for (off, b) in s.iter_mut().enumerate() {
                    if (pos + off as i64) % 500 == 0 {
                        *b = if *b == b'A' { b'C' } else { b'A' };
                    }
                }
                read(&format!("r{k}"), pos, &s)
            })
            .collect();
        let cfg = HaplotypeCallerConfig::default();
        LOOKUPS.with(|l| l.borrow_mut().clear());
        let res = call_chromosome(&reads, 0, "chr1", rv, &cfg);
        let lookups = LOOKUPS.with(|l| l.take());
        assert!(res.windows.len() >= 100, "{} windows", res.windows.len());
        assert!(res.variants.len() >= 100, "{} calls", res.variants.len());
        let tiles = 60_000usize.div_ceil(cfg.tile);
        assert_eq!(
            lookups.len(),
            tiles + res.windows.len(),
            "every tile and window pileup goes through the lookup"
        );
        let handed: usize = lookups.iter().map(|&(_, _, n)| n).sum();
        let pairs: usize = lookups
            .iter()
            .map(|&(s, e, _)| {
                reads
                    .iter()
                    .filter(|r| r.pos <= e && r.end_pos() >= s)
                    .count()
            })
            .sum();
        assert!(
            handed <= 2 * pairs,
            "{handed} reads handed to pileups for {pairs} (window, read) pairs"
        );
        assert!(lookups.len() * reads.len() > 20 * handed);
    }
}
