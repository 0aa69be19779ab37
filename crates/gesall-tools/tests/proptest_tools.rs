//! Property-based tests of the analysis tools' semantic invariants.

#[path = "support/random_reads.rs"]
mod random_reads;

use gesall_formats::sam::cigar::Cigar;
use gesall_formats::sam::{Flags, SamHeader, SamRecord};
use gesall_tools::clean_sam::clean_sam;
use gesall_tools::fix_mate::fix_mate_information;
use gesall_tools::haplotype_caller::{call_range, HaplotypeCallerConfig};
use gesall_tools::mark_duplicates::{mark_duplicates, pair_key};
use gesall_tools::pileup::{Pileup, PileupFilter, ReadSpans};
use gesall_tools::refview::RefView;
use gesall_tools::sort_sam::{is_coordinate_sorted, sort_sam};
use proptest::prelude::*;
use random_reads::{random_reads, CHROM_LEN};
use std::collections::HashMap;

/// A random mapped paired read.
fn arb_pair() -> impl Strategy<Value = (i64, i64, bool, u8)> {
    // (fwd pos, fragment len, hom-strand?, quality)
    (1i64..5000, 200i64..600, any::<bool>(), 10u8..40)
}

fn build_pair(name: &str, pos: i64, frag: i64, qual: u8) -> [SamRecord; 2] {
    let mk = |first: bool, p: i64, rev: bool| {
        let mut r = SamRecord::unmapped(name, vec![b'A'; 100], vec![qual; 100]);
        let mut f = Flags(Flags::PAIRED);
        f.set(
            if first {
                Flags::FIRST_IN_PAIR
            } else {
                Flags::SECOND_IN_PAIR
            },
            true,
        );
        f.set(Flags::REVERSE, rev);
        r.flags = f;
        r.ref_id = 0;
        r.pos = p;
        r.mapq = 60;
        r.cigar = Cigar::full_match(100);
        r
    };
    [mk(true, pos, false), mk(false, pos + frag - 100, true)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn markdup_keeps_exactly_one_pair_per_duplicate_group(
        pairs in proptest::collection::vec(arb_pair(), 2..60),
        seed in any::<u64>(),
    ) {
        let mut records = Vec::new();
        for (i, (pos, frag, _, qual)) in pairs.iter().enumerate() {
            records.extend(build_pair(&format!("p{i}"), *pos, *frag, *qual));
        }
        mark_duplicates(&mut records, seed);
        // Group complete pairs by their compound key; exactly one pair in
        // each group must be unmarked.
        let mut by_name: HashMap<&str, Vec<&SamRecord>> = HashMap::new();
        for r in &records {
            by_name.entry(r.name.as_str()).or_default().push(r);
        }
        let mut groups: HashMap<_, (usize, usize)> = HashMap::new();
        for reads in by_name.values() {
            prop_assert_eq!(reads.len(), 2);
            // Both reads of a pair get the same duplicate flag.
            prop_assert_eq!(
                reads[0].flags.is_duplicate(),
                reads[1].flags.is_duplicate()
            );
            let key = pair_key(reads[0], reads[1]);
            let e = groups.entry(key).or_insert((0, 0));
            e.0 += 1;
            if !reads[0].flags.is_duplicate() {
                e.1 += 1;
            }
        }
        for (key, (total, kept)) in groups {
            prop_assert_eq!(kept, 1, "group {:?} of {} pairs kept {}", key, total, kept);
        }
    }

    #[test]
    fn markdup_marks_are_input_order_insensitive_in_count(
        pairs in proptest::collection::vec(arb_pair(), 2..40),
        seed in any::<u64>(),
        rotate in 0usize..40,
    ) {
        let mut records = Vec::new();
        for (i, (pos, frag, _, qual)) in pairs.iter().enumerate() {
            records.extend(build_pair(&format!("p{i}"), *pos, *frag, *qual));
        }
        let mut rotated = records.clone();
        let shift = (rotate * 2) % rotated.len().max(1);
        rotated.rotate_left(shift);
        mark_duplicates(&mut records, seed);
        mark_duplicates(&mut rotated, seed);
        // The NUMBER of duplicates is invariant (which pair survives a
        // tie may differ — that is the paper's nondeterminism).
        let count = |rs: &[SamRecord]| rs.iter().filter(|r| r.flags.is_duplicate()).count();
        prop_assert_eq!(count(&records), count(&rotated));
    }

    #[test]
    fn clean_sam_output_always_validates(
        positions in proptest::collection::vec((1i64..1200, 20u32..120), 1..40),
    ) {
        // Chromosome of 1000 bp; many reads overhang or fall outside.
        let seqs = vec![vec![b'A'; 1000]];
        let mut records: Vec<SamRecord> = positions
            .iter()
            .enumerate()
            .map(|(i, (pos, len))| {
                let mut r = SamRecord::unmapped(
                    format!("r{i}"),
                    vec![b'C'; *len as usize],
                    vec![30; *len as usize],
                );
                r.flags = Flags(0);
                r.ref_id = 0;
                r.pos = *pos;
                r.mapq = 50;
                r.cigar = Cigar::full_match(*len);
                r
            })
            .collect();
        clean_sam(&mut records, RefView::new(&seqs));
        for r in &records {
            prop_assert!(r.validate().is_ok(), "{r:?}");
            if r.is_mapped() {
                prop_assert!(r.end_pos() <= 1000, "{r:?}");
                prop_assert!(r.pos >= 1);
            }
        }
    }

    #[test]
    fn fix_mate_makes_mate_fields_consistent(
        pairs in proptest::collection::vec(arb_pair(), 1..30),
    ) {
        let mut records = Vec::new();
        for (i, (pos, frag, _, qual)) in pairs.iter().enumerate() {
            let mut p = build_pair(&format!("p{i}"), *pos, *frag, *qual);
            // Stale garbage in the mate fields.
            p[0].mate_pos = 1;
            p[1].mate_ref_id = 7;
            p[0].tlen = -99;
            records.extend(p);
        }
        fix_mate_information(&mut records);
        let mut by_name: HashMap<&str, Vec<&SamRecord>> = HashMap::new();
        for r in &records {
            by_name.entry(r.name.as_str()).or_default().push(r);
        }
        for reads in by_name.values() {
            let (a, b) = (reads[0], reads[1]);
            prop_assert_eq!(a.mate_pos, b.pos);
            prop_assert_eq!(b.mate_pos, a.pos);
            prop_assert_eq!(a.mate_ref_id, b.ref_id);
            prop_assert_eq!(a.tlen, -b.tlen);
            prop_assert_eq!(a.flags.is_mate_reverse(), b.flags.is_reverse());
        }
    }

    #[test]
    fn sort_sam_sorts_and_preserves_multiset(
        pairs in proptest::collection::vec(arb_pair(), 1..40),
    ) {
        let mut records = Vec::new();
        for (i, (pos, frag, _, qual)) in pairs.iter().enumerate() {
            records.extend(build_pair(&format!("p{i}"), *pos, *frag, *qual));
        }
        let mut header = SamHeader::default();
        let mut sorted = records.clone();
        sort_sam(&mut header, &mut sorted);
        prop_assert!(is_coordinate_sorted(&sorted));
        // Same multiset.
        let key = |r: &SamRecord| (r.name.clone(), r.pos, r.flags.0);
        let mut a: Vec<_> = records.iter().map(key).collect();
        let mut b: Vec<_> = sorted.iter().map(key).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        // Idempotent.
        let again = {
            let mut s = sorted.clone();
            sort_sam(&mut header, &mut s);
            s
        };
        prop_assert_eq!(again, sorted);
    }

    #[test]
    fn haplotype_caller_windows_respect_bounds(
        noisy_stretches in proptest::collection::vec((100i64..3500, 1usize..8), 1..4),
    ) {
        // Plant noisy read stacks; every produced window must respect the
        // configured min/max (+padding) lengths and lie on the chromosome.
        let reference = vec![(0..4000).map(|i| b"ACGT"[i % 4]).collect::<Vec<u8>>()];
        let mut records = Vec::new();
        let mut serial = 0;
        for (start, depth) in &noisy_stretches {
            for d in 0..(*depth + 4) {
                let s = (*start + d as i64 * 7).min(3900);
                let mut seq: Vec<u8> =
                    reference[0][(s - 1) as usize..(s - 1) as usize + 80].to_vec();
                for j in (5..75).step_by(6) {
                    seq[j] = if seq[j] == b'A' { b'C' } else { b'A' };
                }
                let mut r = SamRecord::unmapped(format!("n{serial}"), seq, vec![35; 80]);
                serial += 1;
                r.flags = Flags(0);
                r.ref_id = 0;
                r.pos = s;
                r.mapq = 60;
                r.cigar = Cigar::full_match(80);
                records.push(r);
            }
        }
        let cfg = HaplotypeCallerConfig::default();
        let res = call_range(&records, 0, "chr1", 1, 4000, RefView::new(&reference), &cfg);
        for w in &res.windows {
            prop_assert!(w.start >= 1);
            prop_assert!(w.len() >= cfg.min_window, "{w:?}");
            prop_assert!(
                w.len() <= cfg.max_window + 2 * cfg.pad + cfg.quiet_gap + 2,
                "window too long: {w:?}"
            );
        }
        // Windows are emitted in order.
        prop_assert!(res.windows.windows(2).all(|p| p[0].start <= p[1].start));
    }

    #[test]
    fn read_span_lookup_pileups_equal_full_scan(
        seed in any::<u64>(),
        windows in proptest::collection::vec(
            (0u8..3, 0usize..1000, 1i64..CHROM_LEN as i64 + 300, 1i64..700),
            1..16,
        ),
        lenient in any::<bool>(),
    ) {
        // For random windows, and windows that start where a read ends or
        // end where one starts, the lookup's run of reads holds every read
        // the pileup filter can admit, starts and ends on such reads, and
        // builds the same columns as a scan of every record.
        let records = random_reads(seed);
        let windows: Vec<(i64, i64)> = windows
            .iter()
            .map(|&(kind, read, start, len)| {
                let r = &records[read % records.len()];
                match kind {
                    0 => (start, len),
                    1 => (r.end_pos().max(1), len),
                    _ => ((r.pos - len + 1).max(1), len),
                }
            })
            .collect();
        let filter = if lenient {
            PileupFilter { min_mapq: 0, min_base_qual: 0, include_duplicates: true }
        } else {
            PileupFilter::default()
        };
        for ref_id in [0, 1] {
            let spans = ReadSpans::new(&records, ref_id);
            for &(start, len) in &windows {
                let end = start + len - 1;
                let run = spans.overlapping(start, end);
                let admissible = |r: &SamRecord| {
                    r.is_mapped()
                        && r.ref_id == ref_id
                        && r.flags.is_primary()
                        && r.pos <= end
                        && r.end_pos() >= start
                };
                let offset = run
                    .first()
                    .and_then(|first| records.iter().position(|r| std::ptr::eq(r, first)))
                    .unwrap_or(0);
                for (i, r) in records.iter().enumerate() {
                    if admissible(r) {
                        prop_assert!(
                            (offset..offset + run.len()).contains(&i),
                            "read {} outside run {}..{} for [{}, {}]",
                            i, offset, offset + run.len(), start, end
                        );
                    }
                }
                if let (Some(first), Some(last)) = (run.first(), run.last()) {
                    prop_assert!(admissible(first) && admissible(last));
                }
                let full = Pileup::build(&records, ref_id, start, end, &filter);
                let fast = Pileup::build(run, ref_id, start, end, &filter);
                prop_assert_eq!(fast.columns, full.columns);
            }
        }
    }
}
