//! Property-based tests of the MapReduce engine's semantic invariants:
//! the output must be independent of partitioning, cluster shape, sort
//! buffer size, and compression — only then can the platform claim
//! "same program, parallel execution".

use gesall_formats::{Codec, SharedBytes};
use gesall_mapreduce::shuffle::{
    merge_runs, merge_runs_heap, read_frame, reduce_merge, reduce_merge_materialized, write_frame,
    CodecPolicy, Segment,
};
use gesall_mapreduce::{
    ClusterResources, HashPartitioner, InputSplit, JobConfig, MapContext, MapReduceEngine, Mapper,
    ReduceContext, Reducer, SpillPool,
};
use proptest::prelude::*;
use std::sync::Arc;

struct KeyMod(u64);
impl Mapper for KeyMod {
    type InKey = u64;
    type InValue = u64;
    type OutKey = u64;
    type OutValue = u64;
    fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<'_, u64, u64>) {
        ctx.emit(k % self.0, v.wrapping_add(*k));
    }
}

struct SumAndCount;
impl Reducer for SumAndCount {
    type InKey = u64;
    type InValue = u64;
    type OutKey = u64;
    type OutValue = u64;
    fn reduce(&self, k: u64, vs: Vec<u64>, ctx: &mut ReduceContext<'_, u64, u64>) {
        ctx.emit(k, vs.iter().fold(0u64, |a, b| a.wrapping_add(*b)));
        ctx.emit(k, vs.len() as u64);
    }
}

fn run(
    records: &[(u64, u64)],
    n_splits: usize,
    nodes: usize,
    slots: usize,
    reducers: usize,
    sort_bytes: usize,
    compress: bool,
) -> Vec<(u64, u64)> {
    let engine = MapReduceEngine::new(ClusterResources::uniform(nodes, slots, 1 << 20));
    let per = records.len().div_ceil(n_splits.max(1)).max(1);
    let splits: Vec<InputSplit<u64, u64>> = records
        .chunks(per)
        .enumerate()
        .map(|(i, c)| InputSplit::new(format!("s{i}"), c.to_vec()))
        .collect();
    let cfg = JobConfig {
        n_reducers: reducers,
        io_sort_bytes: sort_bytes,
        compress_map_output: compress,
        ..JobConfig::default()
    };
    let res = engine
        .run_job(cfg, &KeyMod(17), &SumAndCount, &HashPartitioner, splits)
        .expect("fault-free job must succeed");
    let mut all: Vec<(u64, u64)> = res.outputs.into_iter().flatten().collect();
    all.sort_unstable();
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn output_invariant_under_execution_shape(
        records in proptest::collection::vec((0u64..1000, 0u64..1_000_000), 1..300),
        n_splits in 1usize..8,
        nodes in 1usize..5,
        slots in 1usize..4,
        reducers in 1usize..6,
        sort_shift in 6u32..16,
        compress in any::<bool>(),
    ) {
        let baseline = run(&records, 1, 1, 1, 1, 1 << 20, false);
        let varied = run(&records, n_splits, nodes, slots, reducers, 1usize << sort_shift, compress);
        prop_assert_eq!(baseline, varied);
    }

    #[test]
    fn merge_runs_equals_global_sort(
        runs in proptest::collection::vec(
            proptest::collection::vec((0u64..100, any::<u64>()), 0..50),
            0..6,
        )
    ) {
        let sorted_runs: Vec<Vec<(u64, u64)>> = runs
            .into_iter()
            .map(|mut r| {
                r.sort_by_key(|(k, _)| *k);
                r
            })
            .collect();
        let mut expected: Vec<(u64, u64)> = sorted_runs.iter().flatten().cloned().collect();
        expected.sort_by_key(|(k, _)| *k); // stable: preserves run order for ties
        let merged = merge_runs(sorted_runs);
        // Key sequence identical; values per key form the same multiset.
        prop_assert_eq!(
            merged.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            expected.iter().map(|(k, _)| *k).collect::<Vec<_>>()
        );
        let mut mv: Vec<(u64, u64)> = merged;
        let mut ev = expected;
        mv.sort_unstable();
        ev.sort_unstable();
        prop_assert_eq!(mv, ev);
    }

    #[test]
    fn merge_runs_sorted_with_stable_tie_break(
        runs in proptest::collection::vec(
            proptest::collection::vec(0u64..20, 0..40),
            0..8,
        )
    ) {
        // Tag every record with its provenance (run index, position in
        // run) so stability is directly observable in the output.
        let tagged: Vec<Vec<(u64, (u64, u64))>> = runs
            .into_iter()
            .enumerate()
            .map(|(ri, mut keys)| {
                keys.sort_unstable();
                keys.into_iter()
                    .enumerate()
                    .map(|(pos, k)| (k, (ri as u64, pos as u64)))
                    .collect()
            })
            .collect();
        let total: usize = tagged.iter().map(Vec::len).sum();
        let merged = merge_runs(tagged);
        prop_assert_eq!(merged.len(), total);
        for w in merged.windows(2) {
            let (k0, (r0, p0)) = w[0];
            let (k1, (r1, p1)) = w[1];
            prop_assert!(k0 <= k1, "output must be key-sorted");
            if k0 == k1 {
                // Equal keys: earlier run wins; within one run,
                // intra-run order is preserved.
                prop_assert!(
                    r0 < r1 || (r0 == r1 && p0 < p1),
                    "tie on key {} broke stability: ({}, {}) before ({}, {})",
                    k0, r0, p0, r1, p1
                );
            }
        }
    }

    #[test]
    fn segment_roundtrip_any_pairs(
        pairs in proptest::collection::vec(("[a-z]{0,12}", any::<u64>()), 0..200),
        compress in any::<bool>(),
    ) {
        let pairs: Vec<(String, u64)> = pairs;
        let seg = Segment::from_pairs(&pairs, compress);
        prop_assert_eq!(seg.records, pairs.len() as u64);
        let back: Vec<(String, u64)> = seg.to_pairs();
        prop_assert_eq!(back, pairs);
    }

    #[test]
    fn zero_copy_decode_equals_owned_decode(
        pairs in proptest::collection::vec(("[a-z]{0,12}", any::<u64>()), 0..200),
        compress in any::<bool>(),
        window in 0usize..64,
    ) {
        // Decoding through a SharedBytes window (the zero-copy fetch
        // path) must yield records byte-identical to decoding from a
        // detached owned buffer (the old path) — even when the segment
        // sits mid-backing rather than at offset zero.
        let pairs: Vec<(String, u64)> = pairs;
        let seg = Segment::from_pairs(&pairs, compress);
        // Re-home the segment inside a larger backing, offset by
        // `window` junk bytes, as `SortSpillBuffer::finish` does.
        let mut backing = vec![0xAAu8; window];
        backing.extend_from_slice(&seg.data);
        backing.extend_from_slice(&[0x55u8; 16]);
        let shared = SharedBytes::from_vec(backing);
        let windowed = Segment {
            data: shared.slice(window..window + seg.data.len()),
            ..seg.clone()
        };
        let owned = Segment {
            data: SharedBytes::from_vec(seg.data.to_vec()),
            ..seg.clone()
        };
        prop_assert_eq!(&windowed.data, &owned.data, "segment bytes must match");
        prop_assert!(!windowed.data.same_backing(&owned.data));
        let via_window: Vec<(String, u64)> = windowed.to_pairs();
        let via_owned: Vec<(String, u64)> = owned.to_pairs();
        prop_assert_eq!(&via_window, &via_owned);
        prop_assert_eq!(via_window, pairs);
    }

    #[test]
    fn frame_roundtrip_any_offset_and_codec(
        pairs in proptest::collection::vec(("[a-z]{0,12}", any::<u64>()), 0..200),
        compress in any::<bool>(),
        codec_pick in any::<u8>(),
        min_shift in 0u32..12,
        prefix in 0usize..64,
    ) {
        // A segment framed mid-buffer (arbitrary junk prefix, arbitrary
        // codec threshold, any *registered* codec — not a hard-coded
        // Raw/Lz pair) must read back as a zero-copy window of the
        // enclosing buffer with codec, counts, and payload intact.
        let pairs: Vec<(String, u64)> = pairs;
        let codec = Codec::registry()[codec_pick as usize % Codec::registry().len()];
        let seg = Segment::from_pairs_with(
            &pairs,
            CodecPolicy::new(compress, 1usize << min_shift).with_codec(codec),
        );
        let mut buf = vec![0xAAu8; prefix];
        write_frame(&seg, &mut buf);
        write_frame(&Segment::empty(), &mut buf); // trailing neighbour
        let shared = SharedBytes::from_vec(buf);
        let (back, next) = read_frame(&shared, prefix).expect("frame must parse");
        prop_assert_eq!(back.codec, seg.codec);
        prop_assert_eq!(back.records, seg.records);
        prop_assert_eq!(back.raw_len, seg.raw_len);
        prop_assert!(back.data.same_backing(&shared), "payload must window the buffer");
        let (tail, end) = read_frame(&shared, next).expect("neighbour frame must parse");
        prop_assert_eq!(tail.records, 0);
        prop_assert_eq!(end, shared.len());
        let decoded: Vec<(String, u64)> = back.to_pairs();
        prop_assert_eq!(decoded, pairs);
    }

    #[test]
    fn compressed_by_reference_fetch_decodes_like_owned(
        pairs in proptest::collection::vec((0u64..50, any::<u64>()), 0..200),
        codec_pick in any::<u8>(),
        prefix in 0usize..48,
    ) {
        // The by-reference shuffle contract: a segment fetched as a
        // window of a larger backing (what a reducer gets from a stored
        // map output, raw or under any registered codec) must
        // reduce-merge to exactly what an owned, detached copy of the
        // same segment produces.
        let mut pairs: Vec<(u64, u64)> = pairs;
        pairs.sort_unstable();
        let codec = Codec::registry()[codec_pick as usize % Codec::registry().len()];
        let seg = Segment::from_pairs_with(
            &pairs,
            CodecPolicy::new(codec.is_compressed(), 1).with_codec(codec),
        );
        let want_codec = if codec.is_compressed() && !pairs.is_empty() { codec } else { Codec::Raw };
        prop_assert_eq!(seg.codec, want_codec);
        let mut buf = vec![0x11u8; prefix];
        write_frame(&seg, &mut buf);
        let shared = SharedBytes::from_vec(buf);
        let (fetched, _) = read_frame(&shared, prefix).expect("frame must parse");
        prop_assert!(fetched.data.same_backing(&shared));
        let owned = Segment {
            data: SharedBytes::from_vec(fetched.data.to_vec()),
            ..fetched.clone()
        };
        let c1 = gesall_mapreduce::Counters::new();
        let c2 = gesall_mapreduce::Counters::new();
        let by_ref = gesall_mapreduce::shuffle::reduce_merge::<u64, u64>(vec![fetched], 4, &c1);
        let by_copy = gesall_mapreduce::shuffle::reduce_merge::<u64, u64>(vec![owned], 4, &c2);
        prop_assert_eq!(by_ref, by_copy);
        prop_assert_eq!(c1.get("shuffle.records"), pairs.len() as u64);
    }

    #[test]
    fn checksum_verify_roundtrips_across_codecs_and_corruption(
        partitions in proptest::collection::vec(
            proptest::collection::vec(("[a-z]{0,12}", any::<u64>()), 0..60),
            1..5,
        ),
        compress in any::<bool>(),
        codec_pick in any::<u8>(),
        min_shift in 0u32..10,
        block_shift in 7u32..11,
        block_frac in 0u32..1000,
        replica_frac in 0u32..1000,
    ) {
        // A stored map output — raw frames or frames under any
        // registered codec, arbitrary block sizes cutting frames
        // mid-payload — must fetch back partition-exact even after an
        // arbitrary replica of an arbitrary block is bit-flipped:
        // verify-on-read quarantines the rot, serves from the survivor,
        // and repairs, so the codec layer above never sees a damaged
        // byte.
        use gesall_dfs::{metrics_keys, Dfs, DfsConfig};
        use gesall_mapreduce::shipping;

        let pairs: Vec<Vec<(String, u64)>> = partitions;
        let codec = Codec::registry()[codec_pick as usize % Codec::registry().len()];
        let segments: Vec<Segment> = pairs
            .iter()
            .map(|p| {
                Segment::from_pairs_with(
                    p,
                    CodecPolicy::new(compress, 1usize << min_shift).with_codec(codec),
                )
            })
            .collect();
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 4,
            block_size: 1usize << block_shift,
            replication: 2,
            ..DfsConfig::default()
        });
        let counters = gesall_mapreduce::Counters::new();
        let path = "/job/shuffle-0/map-00000.segs";
        shipping::store_map_output(&dfs, path, &segments, &counters)
            .expect("store must succeed");
        let info = dfs.stat(path).expect("stored file must stat");
        let n_blocks = info.blocks.len();
        prop_assert!(n_blocks >= 1);
        let block = (block_frac as usize * n_blocks / 1000).min(n_blocks - 1);
        let n_replicas = info.blocks[block].nodes.len();
        let replica = (replica_frac as usize * n_replicas / 1000).min(n_replicas - 1);
        dfs.corrupt_block(path, block, replica).expect("corruption must land");

        for (r, expected) in pairs.iter().enumerate() {
            let seg = shipping::fetch_partition(&dfs, path, r)
                .expect("fetch must survive one corrupt replica");
            prop_assert_eq!(seg.codec, segments[r].codec, "codec tag must round-trip");
            let back: Vec<(String, u64)> = seg.to_pairs();
            prop_assert_eq!(&back, expected, "partition {} must be byte-faithful", r);
        }
        let detected = dfs.metrics().counter(metrics_keys::BLOCKS_CORRUPT_DETECTED).get();
        let repaired = dfs.metrics().counter(metrics_keys::BLOCKS_CORRUPT_REPAIRED).get();
        // The flipped replica is only detected if some fetch actually
        // read it (replica 1 homes may never serve), but any detection
        // must have been repaired in full.
        prop_assert!(detected <= 1);
        prop_assert_eq!(repaired, detected);
    }

    #[test]
    fn streaming_merge_equals_materialized_oracle(
        runs in proptest::collection::vec(
            proptest::collection::vec((0u64..200, any::<u64>()), 0..80),
            0..12,
        ),
        codec_bits in any::<u16>(),
        min_shift in 0u32..10,
        merge_factor in 2usize..=16,
    ) {
        // The streaming reduce merge (lazy run cursors, merge_factor-
        // bounded residency) must be indistinguishable from the eager
        // materializing oracle on any mix of run sizes, codecs, and
        // fan-ins — including empty runs, singleton runs, duplicate
        // keys across runs, and run counts forcing multipass merges.
        // Every registered codec rotates through the mix, so a new
        // registry entry is exercised here without editing the test.
        let segments: Vec<Segment> = runs
            .into_iter()
            .enumerate()
            .map(|(i, mut pairs)| {
                pairs.sort_unstable();
                let compress = (codec_bits >> (i % 16)) & 1 == 1;
                let codec = Codec::registry()[i % Codec::registry().len()];
                Segment::from_pairs_with(
                    &pairs,
                    CodecPolicy::new(compress, 1usize << min_shift).with_codec(codec),
                )
            })
            .collect();
        let total_records: u64 = segments.iter().map(|s| s.records).sum();
        let c_stream = gesall_mapreduce::Counters::new();
        let c_oracle = gesall_mapreduce::Counters::new();
        let streaming =
            reduce_merge::<u64, u64>(segments.clone(), merge_factor, &c_stream);
        let materialized =
            reduce_merge_materialized::<u64, u64>(segments, merge_factor, &c_oracle);
        prop_assert_eq!(streaming, materialized);
        // The streaming path keeps the shuffle accounting intact.
        prop_assert_eq!(c_stream.get("shuffle.records"), total_records);
        let _ = &c_oracle;
        // The streaming path reports its residency peak whenever it
        // actually held records.
        if total_records > 0 {
            prop_assert!(c_stream.get("mem.reduce.peak_resident") > 0);
        }
    }
}

// ---------------------------------------------------------------------
// Bit-parallel spill kernels (DESIGN.md §5): the radix spill sort and
// the loser-tree merge, each pinned to its comparison twin on arbitrary
// inputs.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn loser_tree_merge_matches_heap(
        runs in proptest::collection::vec(
            proptest::collection::vec((0u64..64, any::<u64>()), 0..40),
            0..12,
        ),
    ) {
        // Narrow key range forces heavy duplication, so the stable
        // tie-break (lower run index first) is exercised constantly.
        let sorted: Vec<Vec<(u64, u64)>> = runs
            .into_iter()
            .map(|mut r| { r.sort_by_key(|a| a.0); r })
            .collect();
        prop_assert_eq!(
            merge_runs::<u64, u64>(sorted.clone()),
            merge_runs_heap::<u64, u64>(sorted)
        );
    }

    #[test]
    fn loser_tree_merge_matches_heap_on_strings(
        runs in proptest::collection::vec(
            proptest::collection::vec((0u32..40, any::<u64>()), 0..30),
            1..9,
        ),
    ) {
        // Shared-prefix string keys: the first-8-bytes sort prefix ties
        // everywhere and the Ord fallback decides.
        let sorted: Vec<Vec<(String, u64)>> = runs
            .into_iter()
            .map(|r| {
                let mut r: Vec<(String, u64)> = r
                    .into_iter()
                    .map(|(k, v)| (format!("read-{k:04}"), v))
                    .collect();
                r.sort_by(|a, b| a.0.cmp(&b.0));
                r
            })
            .collect();
        prop_assert_eq!(
            merge_runs::<String, u64>(sorted.clone()),
            merge_runs_heap::<String, u64>(sorted)
        );
    }

    #[test]
    fn radix_spill_sort_matches_comparison_twin(
        records in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..400),
        n_partitions in 1usize..6,
        io_sort_bytes in 64usize..4096,
    ) {
        // The same emission stream through both spill-sort kernels must
        // produce identical segments, spill pattern and all.
        let p = HashPartitioner;
        let run = |radix: bool| -> Vec<Vec<(u64, u64)>> {
            let counters = gesall_mapreduce::Counters::new();
            let mut buf = gesall_mapreduce::shuffle::SortSpillBuffer::new(
                io_sort_bytes,
                n_partitions,
                &p,
                false,
                Arc::new(SpillPool::new(2, 4)),
                counters,
            )
            .with_radix(radix);
            for &(k, v) in &records {
                buf.emit(k, v);
            }
            buf.finish().iter().map(|s| s.to_pairs::<u64, u64>()).collect()
        };
        prop_assert_eq!(run(true), run(false));
    }

    #[test]
    fn radix_spill_sort_matches_comparison_twin_on_strings(
        records in proptest::collection::vec((0u32..200, any::<u64>()), 0..300),
        n_partitions in 1usize..5,
    ) {
        // String keys with a long shared prefix: every sort prefix ties,
        // so the radix path must lean entirely on its comparison
        // fallback and still match the twin record for record.
        let p = HashPartitioner;
        let keyed: Vec<(String, u64)> = records
            .into_iter()
            .map(|(k, v)| (format!("sample-0001-read-{k:06}"), v))
            .collect();
        let run = |radix: bool| -> Vec<Vec<(String, u64)>> {
            let counters = gesall_mapreduce::Counters::new();
            let mut buf = gesall_mapreduce::shuffle::SortSpillBuffer::new(
                512,
                n_partitions,
                &p,
                false,
                Arc::new(SpillPool::new(2, 4)),
                counters,
            )
            .with_radix(radix);
            for (k, v) in keyed.iter().cloned() {
                buf.emit(k, v);
            }
            buf.finish().iter().map(|s| s.to_pairs::<String, u64>()).collect()
        };
        prop_assert_eq!(run(true), run(false));
    }
}
