//! Shuffle codec integration: the codec map-output segments travel
//! under is a transport detail — a job's reduce output must be
//! byte-identical whether the segments ship Raw, Lz, or Seq, while the
//! DFS shuffle bytes shrink with the stronger domain codec.

use gesall_dfs::{Dfs, DfsConfig};
use gesall_formats::sam::SamRecord;
use gesall_formats::Codec;
use gesall_mapreduce::counters::keys;
use gesall_mapreduce::{
    ClusterResources, HashPartitioner, InputSplit, JobConfig, JobResult, MapContext,
    MapReduceEngine, Mapper, ReduceContext, Reducer,
};

/// Keys records by position bucket and passes the alignment record
/// through untouched — the shape of a sort/bin stage.
struct Route;
impl Mapper for Route {
    type InKey = u64;
    type InValue = SamRecord;
    type OutKey = u64;
    type OutValue = SamRecord;
    fn map(&self, _k: &u64, rec: &SamRecord, ctx: &mut MapContext<'_, u64, SamRecord>) {
        ctx.emit(rec.pos as u64 / 64, rec.clone());
    }
}

struct Collect;
impl Reducer for Collect {
    type InKey = u64;
    type InValue = SamRecord;
    type OutKey = u64;
    type OutValue = SamRecord;
    fn reduce(&self, k: u64, vs: Vec<SamRecord>, ctx: &mut ReduceContext<'_, u64, SamRecord>) {
        for v in vs {
            ctx.emit(k, v);
        }
    }
}

/// Deterministic aligned-read-shaped records: 100bp DNA, noisy quals,
/// mostly-sorted positions — the payload mix the Seq codec targets.
fn sam_splits(n_splits: usize, per_split: usize) -> Vec<InputSplit<u64, SamRecord>> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n_splits)
        .map(|s| {
            let records: Vec<(u64, SamRecord)> = (0..per_split)
                .map(|i| {
                    let seq: Vec<u8> = (0..100).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
                    let qual: Vec<u8> = (0..100).map(|_| 30 + (next() % 7) as u8).collect();
                    let mut rec =
                        SamRecord::unmapped(format!("read{:05}-{:02}", i, s), seq, qual);
                    rec.pos = (s * per_split + i) as i64 * 3;
                    (i as u64, rec)
                })
                .collect();
            InputSplit::new(format!("split-{s}"), records)
        })
        .collect()
}

/// The twin runs' shared job shape; `shuffle_codec` left at its default.
fn twin_config() -> JobConfig {
    JobConfig {
        n_reducers: 3,
        io_sort_bytes: 64 * 1024,
        compress_min_bytes: 1,
        speculative: false,
        ..JobConfig::default()
    }
}

fn run_job(cfg: JobConfig) -> JobResult<u64, SamRecord> {
    let dfs = Dfs::new(DfsConfig {
        n_nodes: 3,
        block_size: 64 * 1024,
        replication: 2,
        ..DfsConfig::default()
    });
    let engine = MapReduceEngine::new(ClusterResources::uniform(3, 2, 4096)).with_shuffle_dfs(dfs);
    engine
        .run_job(cfg, &Route, &Collect, &HashPartitioner, sam_splits(4, 120))
        .expect("codec twin job must succeed")
}

fn run_with(codec: Codec) -> JobResult<u64, SamRecord> {
    run_job(JobConfig {
        name: format!("codec-twin-{}", codec.name()),
        shuffle_codec: codec,
        ..twin_config()
    })
}

#[test]
fn reduce_output_is_identical_across_every_shuffle_codec() {
    let raw = run_with(Codec::Raw);
    let lz = run_with(Codec::Lz);
    let seq = run_with(Codec::Seq);

    // Byte-identical reduce output: same reducers, same keys, same
    // record order. (Scheduling is deterministic here — no speculation,
    // no faults — and the multipass merge's pass structure depends only
    // on run counts, which the codec cannot change.)
    assert_eq!(raw.outputs, lz.outputs, "Raw vs Lz reduce output diverged");
    assert_eq!(lz.outputs, seq.outputs, "Lz vs Seq reduce output diverged");
    assert!(raw.outputs.iter().flatten().count() > 0);

    // The codec override actually took: Raw ships everything
    // uncompressed, the others compress every qualifying segment.
    assert_eq!(raw.counters.get(keys::SHUFFLE_SEGMENTS_COMPRESSED), 0);
    assert!(lz.counters.get(keys::SHUFFLE_SEGMENTS_COMPRESSED) > 0);
    assert!(seq.counters.get(keys::SHUFFLE_SEGMENTS_COMPRESSED) > 0);

    // And the wire bytes order as the codecs' strength predicts on
    // genomic payloads: Seq (2-bit bases + grouped literals) beats
    // general LZ, which beats shipping raw.
    let b = |r: &JobResult<u64, SamRecord>| r.counters.get(keys::SHUFFLE_BYTES_DFS);
    assert!(
        b(&seq) < b(&lz) && b(&lz) < b(&raw),
        "expected seq < lz < raw, got seq={} lz={} raw={}",
        b(&seq),
        b(&lz),
        b(&raw)
    );

    // Locality accounting covered the fetches: every shuffled byte was
    // tallied as local or remote.
    for r in [&raw, &lz, &seq] {
        let local = r.counters.get(keys::SHUFFLE_FETCH_BYTES_LOCAL);
        let remote = r.counters.get(keys::SHUFFLE_FETCH_BYTES_REMOTE);
        assert!(
            local + remote >= b(r),
            "local {local} + remote {remote} must cover the fetched frames {}",
            b(r)
        );
    }
}

#[test]
fn sam_shuffles_ship_lz_by_default() {
    // No codec forced: alignment-record shuffles compress under Lz like
    // every other key/value type, so the default run ships exactly the
    // forced-Lz twin's wire bytes.
    let default = run_job(twin_config());
    let forced = run_with(Codec::Lz);
    assert_eq!(default.outputs, forced.outputs);
    assert!(default.counters.get(keys::SHUFFLE_SEGMENTS_COMPRESSED) > 0);
    assert_eq!(
        default.counters.get(keys::SHUFFLE_BYTES_DFS),
        forced.counters.get(keys::SHUFFLE_BYTES_DFS),
        "a default-config SamRecord shuffle must ship the forced-Lz twin's bytes"
    );
}
