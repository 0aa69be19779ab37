//! Pileup: per-reference-position summaries of the reads covering it —
//! the substrate both variant callers walk — and [`ReadSpans`], the
//! lookup that hands each pileup only the reads near its window.

use gesall_formats::sam::cigar::CigarOp;
use gesall_formats::sam::SamRecord;

/// An observed indel allele at a position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndelAllele {
    /// Inserted bases after this position.
    Ins(Vec<u8>),
    /// Number of reference bases deleted after this position.
    Del(u32),
}

/// Everything observed at one 1-based reference position.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PileupColumn {
    /// Aligned base counts indexed A,C,G,T.
    pub base_counts: [u32; 4],
    /// Sum of base qualities per base letter.
    pub qual_sums: [u64; 4],
    /// Forward/reverse strand counts per base letter.
    pub strand_counts: [[u32; 2]; 4],
    /// Sum of squared mapping qualities (for RMS MQ).
    pub mapq_sq_sum: u64,
    /// Reads contributing an aligned base here.
    pub depth: u32,
    /// Indel alleles anchored at this position, with observation counts.
    pub indels: Vec<(IndelAllele, u32)>,
    /// Reads with a soft clip boundary adjacent to this position.
    pub clips: u32,
    /// Mismatching bases vs the reference (filled by the caller walk).
    pub mismatches: u32,
}

impl PileupColumn {
    #[inline]
    fn base_index(b: u8) -> Option<usize> {
        match b {
            b'A' | b'a' => Some(0),
            b'C' | b'c' => Some(1),
            b'G' | b'g' => Some(2),
            b'T' | b't' => Some(3),
            _ => None,
        }
    }

    /// RMS mapping quality of covering reads.
    pub fn rms_mapq(&self) -> f64 {
        if self.depth == 0 {
            return 0.0;
        }
        ((self.mapq_sq_sum as f64) / self.depth as f64).sqrt()
    }

    /// Most frequent non-reference base and its count.
    pub fn top_alt(&self, ref_base: u8) -> Option<(u8, u32)> {
        let ref_idx = Self::base_index(ref_base);
        let mut best: Option<(u8, u32)> = None;
        for (i, &c) in self.base_counts.iter().enumerate() {
            if Some(i) == ref_idx || c == 0 {
                continue;
            }
            if best.map(|(_, bc)| c > bc).unwrap_or(true) {
                best = Some(([b'A', b'C', b'G', b'T'][i], c));
            }
        }
        best
    }

    /// Most frequent indel allele and its count.
    pub fn top_indel(&self) -> Option<(&IndelAllele, u32)> {
        self.indels
            .iter()
            .max_by_key(|(_, c)| *c)
            .map(|(a, c)| (a, *c))
    }

    /// Count of a specific base letter.
    pub fn count_of(&self, base: u8) -> u32 {
        Self::base_index(base)
            .map(|i| self.base_counts[i])
            .unwrap_or(0)
    }
}

/// Filters applied before a read contributes to the pileup — the quality
/// thresholds real callers use (duplicates and low-mapq reads excluded).
#[derive(Debug, Clone, Copy)]
pub struct PileupFilter {
    pub min_mapq: u8,
    pub min_base_qual: u8,
    pub include_duplicates: bool,
}

impl Default for PileupFilter {
    fn default() -> PileupFilter {
        PileupFilter {
            min_mapq: 10,
            min_base_qual: 10,
            include_duplicates: false,
        }
    }
}

/// A pileup over one chromosome region `[start, end]` (1-based,
/// inclusive).
pub struct Pileup {
    pub ref_id: i32,
    pub start: i64,
    /// Columns for positions `start ..= start + columns.len() - 1`.
    pub columns: Vec<PileupColumn>,
}

impl Pileup {
    /// Build the pileup of `records` over `[start, end]` on `ref_id`.
    /// Records outside the window, unmapped, secondary, or filtered reads
    /// contribute nothing.
    pub fn build(
        records: &[SamRecord],
        ref_id: i32,
        start: i64,
        end: i64,
        filter: &PileupFilter,
    ) -> Pileup {
        assert!(start >= 1 && end >= start, "bad pileup window");
        let n = (end - start + 1) as usize;
        let mut columns = vec![PileupColumn::default(); n];
        let in_window = |pos: i64| pos >= start && pos <= end;
        for rec in records {
            if !rec.is_mapped()
                || rec.ref_id != ref_id
                || !rec.flags.is_primary()
                || rec.mapq < filter.min_mapq
                || (!filter.include_duplicates && rec.flags.is_duplicate())
            {
                continue;
            }
            if rec.end_pos() < start || rec.pos > end {
                continue;
            }
            let mut ref_pos = rec.pos;
            let mut read_pos = 0usize;
            let reverse = rec.flags.is_reverse();
            for (oi, op) in rec.cigar.0.iter().enumerate() {
                match *op {
                    CigarOp::Match(len) => {
                        for k in 0..len as i64 {
                            let rp = ref_pos + k;
                            let qp = read_pos + k as usize;
                            if !in_window(rp) {
                                continue;
                            }
                            let col = &mut columns[(rp - start) as usize];
                            let (Some(&base), Some(&q)) = (rec.seq.get(qp), rec.qual.get(qp))
                            else {
                                continue;
                            };
                            if q < filter.min_base_qual {
                                continue;
                            }
                            if let Some(bi) = PileupColumn::base_index(base) {
                                col.base_counts[bi] += 1;
                                col.qual_sums[bi] += q as u64;
                                col.strand_counts[bi][usize::from(reverse)] += 1;
                                col.depth += 1;
                                col.mapq_sq_sum += (rec.mapq as u64) * (rec.mapq as u64);
                            }
                        }
                        ref_pos += len as i64;
                        read_pos += len as usize;
                    }
                    CigarOp::Ins(len) => {
                        // Anchored at the base before the insertion.
                        let anchor = ref_pos - 1;
                        if in_window(anchor) {
                            let seq: Vec<u8> = rec
                                .seq
                                .get(read_pos..read_pos + len as usize)
                                .map(|s| s.to_vec())
                                .unwrap_or_default();
                            add_indel(
                                &mut columns[(anchor - start) as usize],
                                IndelAllele::Ins(seq),
                            );
                        }
                        read_pos += len as usize;
                    }
                    CigarOp::Del(len) => {
                        let anchor = ref_pos - 1;
                        if in_window(anchor) {
                            add_indel(
                                &mut columns[(anchor - start) as usize],
                                IndelAllele::Del(len),
                            );
                        }
                        ref_pos += len as i64;
                    }
                    CigarOp::SoftClip(len) => {
                        // A clip boundary hints at trouble (activity score).
                        let boundary = if oi == 0 { rec.pos } else { ref_pos };
                        if in_window(boundary) {
                            columns[(boundary - start) as usize].clips += 1;
                        }
                        read_pos += len as usize;
                    }
                    CigarOp::HardClip(_) => {}
                    CigarOp::Skip(len) => {
                        ref_pos += len as i64;
                    }
                }
            }
        }
        Pileup {
            ref_id,
            start,
            columns,
        }
    }

    /// Column at 1-based position `pos`, if inside the window.
    pub fn at(&self, pos: i64) -> Option<&PileupColumn> {
        if pos < self.start {
            return None;
        }
        self.columns.get((pos - self.start) as usize)
    }

    /// Fill per-column mismatch counts against the reference slice
    /// covering this window (same length as `columns`).
    pub fn annotate_mismatches(&mut self, reference: &[u8]) {
        for (col, &rb) in self.columns.iter_mut().zip(reference) {
            let total: u32 = col.base_counts.iter().sum();
            col.mismatches = total - col.count_of(rb);
        }
    }
}

/// Where the reads of one chromosome lie, so that a pileup over a short
/// window visits the reads near it rather than the whole input. The
/// callers build one per run and take every pileup's reads from it.
pub struct ReadSpans<'r> {
    records: &'r [SamRecord],
    /// `(pos, end_pos, index into records)` of every primary mapped read
    /// on the chromosome, sorted by `pos`.
    spans: Vec<(i64, i64, usize)>,
    /// The longest `end_pos - pos` among `spans` (at least 0).
    max_span: i64,
}

impl<'r> ReadSpans<'r> {
    /// Index the primary mapped reads of `records` on `ref_id`. Costs one
    /// pass plus a sort, which is linear for coordinate-sorted input.
    pub fn new(records: &'r [SamRecord], ref_id: i32) -> ReadSpans<'r> {
        let mut spans: Vec<(i64, i64, usize)> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_mapped() && r.ref_id == ref_id && r.flags.is_primary())
            .map(|(i, r)| (r.pos, r.end_pos(), i))
            .collect();
        spans.sort_by_key(|s| s.0);
        let max_span = spans
            .iter()
            .map(|&(pos, end, _)| end - pos)
            .max()
            .unwrap_or(0)
            .max(0);
        ReadSpans {
            records,
            spans,
            max_span,
        }
    }

    /// The smallest run of `records`, in input order, that holds every read
    /// [`Pileup::build`] can admit for `[start, end]`: the primary mapped
    /// reads of the chromosome with `pos <= end` and `end_pos >= start`.
    /// Reads between them that the filter rejects ride along, so
    /// `Pileup::build` over the run equals `Pileup::build` over all of
    /// `records`, column for column. For coordinate-sorted input the run
    /// is about the reads overlapping the window; unsorted input only
    /// widens it.
    pub fn overlapping(&self, start: i64, end: i64) -> &'r [SamRecord] {
        let lo = self.spans.partition_point(|s| s.0 < start - self.max_span);
        let hi = self.spans.partition_point(|s| s.0 <= end);
        let mut first = usize::MAX;
        let mut last = 0;
        for &(_, read_end, i) in &self.spans[lo..hi] {
            if read_end >= start {
                first = first.min(i);
                last = last.max(i);
            }
        }
        let run: &'r [SamRecord] = if first > last {
            &[]
        } else {
            &self.records[first..=last]
        };
        #[cfg(test)]
        LOOKUPS.with(|l| l.borrow_mut().push((start, end, run.len())));
        run
    }
}

#[cfg(test)]
thread_local! {
    /// `(start, end, run length)` of every [`ReadSpans::overlapping`] call
    /// on this thread: the callers' work-bound tests read it.
    pub(crate) static LOOKUPS: std::cell::RefCell<Vec<(i64, i64, usize)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn add_indel(col: &mut PileupColumn, allele: IndelAllele) {
    for (a, c) in col.indels.iter_mut() {
        if *a == allele {
            *c += 1;
            return;
        }
    }
    col.indels.push((allele, 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gesall_formats::sam::{Cigar, Flags};

    fn read(name: &str, pos: i64, cigar: &str, seq: &[u8]) -> SamRecord {
        let cigar = Cigar::parse(cigar).unwrap();
        let mut r = SamRecord::unmapped(name, seq.to_vec(), vec![30; seq.len()]);
        r.flags = Flags(0);
        r.ref_id = 0;
        r.pos = pos;
        r.mapq = 60;
        r.cigar = cigar;
        r
    }

    #[test]
    fn simple_column_counts() {
        let reads = vec![
            read("a", 10, "4M", b"ACGT"),
            read("b", 11, "4M", b"CGTA"),
            read("c", 12, "2M", b"GT"),
        ];
        let p = Pileup::build(&reads, 0, 10, 20, &PileupFilter::default());
        assert_eq!(p.at(10).unwrap().count_of(b'A'), 1);
        assert_eq!(p.at(11).unwrap().count_of(b'C'), 2);
        assert_eq!(p.at(12).unwrap().count_of(b'G'), 3);
        assert_eq!(p.at(12).unwrap().depth, 3);
        assert_eq!(p.at(13).unwrap().depth, 3);
        assert_eq!(p.at(14).unwrap().depth, 1);
        assert_eq!(p.at(15).unwrap().depth, 0);
    }

    #[test]
    fn filters_exclude_reads() {
        let mut dup = read("d", 10, "4M", b"AAAA");
        dup.flags.set(Flags::DUPLICATE, true);
        let mut lowq = read("l", 10, "4M", b"AAAA");
        lowq.mapq = 3;
        let mut secondary = read("s", 10, "4M", b"AAAA");
        secondary.flags.set(Flags::SECONDARY, true);
        let good = read("g", 10, "4M", b"AAAA");
        let reads = vec![dup, lowq, secondary, good];
        let p = Pileup::build(&reads, 0, 10, 13, &PileupFilter::default());
        assert_eq!(p.at(10).unwrap().depth, 1);
        // With duplicates allowed, two reads count.
        let f = PileupFilter {
            include_duplicates: true,
            ..PileupFilter::default()
        };
        let p2 = Pileup::build(&reads, 0, 10, 13, &f);
        assert_eq!(p2.at(10).unwrap().depth, 2);
    }

    #[test]
    fn insertion_and_deletion_anchoring() {
        // 3M 2I 3M: insertion anchored at pos+2 (last base before ins).
        let reads = vec![
            read("i", 10, "3M2I3M", b"ACGTTACG"),
            read("d", 10, "3M2D3M", b"ACGACG"),
        ];
        let p = Pileup::build(&reads, 0, 10, 20, &PileupFilter::default());
        let col = p.at(12).unwrap();
        assert_eq!(col.indels.len(), 2);
        let (top, count) = col.top_indel().unwrap();
        assert_eq!(count, 1);
        assert!(matches!(top, IndelAllele::Ins(_) | IndelAllele::Del(2)));
        // Deletion consumes reference: read "d" contributes aligned bases
        // at 15,16,17.
        assert_eq!(p.at(15).unwrap().depth, 2); // i's 4th M is at 13.. wait
    }

    #[test]
    fn strand_counts_follow_flags() {
        let fwd = read("f", 10, "2M", b"AA");
        let mut rev = read("r", 10, "2M", b"AA");
        rev.flags.set(Flags::REVERSE, true);
        let p = Pileup::build(&[fwd, rev], 0, 10, 11, &PileupFilter::default());
        let col = p.at(10).unwrap();
        assert_eq!(col.strand_counts[0], [1, 1]);
    }

    #[test]
    fn soft_clip_boundaries_counted() {
        let reads = vec![read("c", 50, "5S10M5S", b"AAAAACCCCCGGGGGTTTTT")];
        let p = Pileup::build(&reads, 0, 40, 70, &PileupFilter::default());
        assert_eq!(p.at(50).unwrap().clips, 1);
        assert_eq!(p.at(60).unwrap().clips, 1);
    }

    #[test]
    fn mismatch_annotation() {
        let reads = vec![read("a", 1, "4M", b"ACGT"), read("b", 1, "4M", b"AGGT")];
        let mut p = Pileup::build(&reads, 0, 1, 4, &PileupFilter::default());
        p.annotate_mismatches(b"ACGT");
        assert_eq!(p.at(1).unwrap().mismatches, 0);
        assert_eq!(p.at(2).unwrap().mismatches, 1);
        assert_eq!(p.at(3).unwrap().mismatches, 0);
    }

    #[test]
    fn top_alt_ignores_reference_base() {
        let reads = vec![
            read("a", 1, "1M", b"A"),
            read("b", 1, "1M", b"A"),
            read("c", 1, "1M", b"G"),
        ];
        let p = Pileup::build(&reads, 0, 1, 1, &PileupFilter::default());
        assert_eq!(p.at(1).unwrap().top_alt(b'A'), Some((b'G', 1)));
        assert_eq!(p.at(1).unwrap().top_alt(b'G'), Some((b'A', 2)));
    }

    #[test]
    fn rms_mapq() {
        let mut a = read("a", 1, "1M", b"A");
        a.mapq = 60;
        let mut b = read("b", 1, "1M", b"A");
        b.mapq = 20;
        let p = Pileup::build(&[a, b], 0, 1, 1, &PileupFilter {
            min_mapq: 0,
            ..PileupFilter::default()
        });
        let rms = p.at(1).unwrap().rms_mapq();
        assert!((rms - ((3600.0f64 + 400.0) / 2.0).sqrt()).abs() < 1e-9);
    }
}
