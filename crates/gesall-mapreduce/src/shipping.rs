//! Map-output shipping: persisting merged map outputs into DFS and
//! fetching them back by reference for the shuffle.
//!
//! A map task's segments serialize into ONE DFS file: an index header
//! (`[n u64]` then `n` end offsets, relative to the frame area) followed
//! by `n` codec-tagged frames ([`write_frame`](crate::shuffle::write_frame)).
//! The reduce-side fetch resolves its partition through the index and
//! reads ONLY that frame's byte range
//! ([`Dfs::read_file_range_shared`]): for a range inside one block the
//! payload is a zero-copy window of the stored block — mmap'd when the
//! DFS persists blocks (`DfsConfig::block_store_dir`) — so a compressed
//! segment travels disk → shuffle → reduce merge as a refcount bump and
//! is decoded exactly once, and a reducer never materializes the other
//! R−1 partitions of a multi-block map output. The only memcpy on this
//! path is the store-side frame write, counted under `mem.bytes.copied`.

use crate::counters::{keys, Counters};
use crate::shuffle::{read_frame, write_frame, Segment, FRAME_HEADER_BYTES};
use gesall_dfs::{Dfs, DfsError, ReadAffinity};
use gesall_formats::wire::{put_u64, Cursor};
use gesall_formats::{Codec, FormatError, SharedBytes};
use std::fmt;

/// Errors on the map-output shipping path.
#[derive(Debug)]
pub enum ShipError {
    /// The DFS refused the read or write.
    Dfs(DfsError),
    /// A stored frame was corrupt or truncated.
    Format(FormatError),
}

impl ShipError {
    /// Is this failure worth re-attempting? Transient DFS errors
    /// (flaky reads, deadline expiries) are; corrupt-beyond-repair
    /// blocks, missing files, and malformed frames are not — retrying
    /// those only delays the attempt failure that triggers a re-run.
    pub fn is_retryable(&self) -> bool {
        match self {
            ShipError::Dfs(e) => e.is_retryable(),
            ShipError::Format(_) => false,
        }
    }
}

impl fmt::Display for ShipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShipError::Dfs(e) => write!(f, "shipping: {e}"),
            ShipError::Format(e) => write!(f, "shipping: {e}"),
        }
    }
}

impl std::error::Error for ShipError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShipError::Dfs(e) => Some(e),
            ShipError::Format(e) => Some(e),
        }
    }
}

impl From<DfsError> for ShipError {
    fn from(e: DfsError) -> ShipError {
        ShipError::Dfs(e)
    }
}

impl From<FormatError> for ShipError {
    fn from(e: FormatError) -> ShipError {
        ShipError::Format(e)
    }
}

/// Canonical DFS path of a map task's shuffle output.
pub fn map_output_path(job: &str, map_task: usize) -> String {
    format!("{job}/shuffle/map-{map_task:05}.segs")
}

/// Persist a map task's merged segments (one per reduce partition) as a
/// single DFS file: `[n u64]` and `n` frame-end offsets (relative to
/// the frame area), then the `n` frames. The frame write is the one
/// payload memcpy of the shipping path — the deliberate durability copy
/// of DFS transit, counted under `shuffle.ship.bytes.copied` (not the
/// zero-copy gauge `mem.bytes.copied`); compressed payloads are written
/// as-is, never re-encoded. Blocks are placed by `policy` — the engine pins a map
/// output to its mapper's node, so with replication 1 a node death
/// loses exactly the map outputs that ran there.
pub fn store_map_output_with_policy(
    dfs: &Dfs,
    path: &str,
    segments: &[Segment],
    policy: &dyn gesall_dfs::BlockPlacementPolicy,
    counters: &Counters,
) -> Result<(), ShipError> {
    let total: usize = segments
        .iter()
        .map(|s| FRAME_HEADER_BYTES + s.data.len())
        .sum();
    let header = 8 * (1 + segments.len());
    let mut out = Vec::with_capacity(header + total);
    put_u64(&mut out, segments.len() as u64);
    let mut end = 0u64;
    for s in segments {
        end += (FRAME_HEADER_BYTES + s.data.len()) as u64;
        put_u64(&mut out, end);
    }
    for s in segments {
        write_frame(s, &mut out);
        counters.add(keys::SHUFFLE_SHIP_BYTES_COPIED, s.data.len() as u64);
    }
    dfs.write_shared_with_policy(path, SharedBytes::from_vec(out), policy)?;
    Ok(())
}

/// [`store_map_output_with_policy`] with the DFS's default placement.
pub fn store_map_output(
    dfs: &Dfs,
    path: &str,
    segments: &[Segment],
    counters: &Counters,
) -> Result<(), ShipError> {
    store_map_output_with_policy(dfs, path, segments, &gesall_dfs::DefaultPlacement, counters)
}

/// Decode the index header of a stored map output: frame count and the
/// absolute byte range `[start, end)` of each frame within the file.
/// Index reads carry the same affinity hint as the frame read and fold
/// into the same local/remote tally.
fn read_index(
    dfs: &Dfs,
    path: &str,
    affinity: ReadAffinity,
    tally: &mut (u64, u64),
) -> Result<Vec<(usize, usize)>, ShipError> {
    let head = dfs.read_file_range_shared_at(path, 0, 8, affinity)?;
    tally.0 += head.local_bytes;
    tally.1 += head.remote_bytes;
    let n = Cursor::new(&head.bytes[..]).get_u64()? as usize;
    let idx = dfs.read_file_range_shared_at(path, 8, 8 * n, affinity)?;
    tally.0 += idx.local_bytes;
    tally.1 += idx.remote_bytes;
    let mut cur = Cursor::new(&idx.bytes[..]);
    let base = 8 * (1 + n);
    let mut ranges = Vec::with_capacity(n);
    let mut start = base;
    for _ in 0..n {
        let end = base + cur.get_u64()? as usize;
        ranges.push((start, end));
        start = end;
    }
    Ok(ranges)
}

/// Fetch every segment of a stored map output. Payloads are zero-copy
/// windows of the DFS block — mmap-backed when the store persists
/// blocks — and keep their codec tags, so compressed segments stay
/// compressed until the reduce-side merge decodes them.
pub fn fetch_map_output(dfs: &Dfs, path: &str) -> Result<Vec<Segment>, ShipError> {
    let bytes = dfs.read_file_shared(path)?;
    let buf: &[u8] = &bytes;
    let n = Cursor::new(buf).get_u64()? as usize;
    let mut cur = Cursor::new(&buf[8..]);
    let base = 8 * (1 + n);
    let mut offset = base;
    let mut segments = Vec::with_capacity(n);
    for _ in 0..n {
        let indexed_end = base + cur.get_u64()? as usize;
        let (seg, next) = read_frame(&bytes, offset)?;
        if next != indexed_end {
            return Err(FormatError::Bam(format!(
                "frame ends at {next} but index says {indexed_end}"
            ))
            .into());
        }
        segments.push(seg);
        offset = next;
    }
    if offset != buf.len() {
        return Err(FormatError::Bam(format!(
            "{} trailing bytes after {n} segment frames",
            buf.len() - offset
        ))
        .into());
    }
    Ok(segments)
}

/// Fetch just partition `r` of a stored map output — what one reducer
/// pulls from one map task. The index header resolves the frame's byte
/// range and only that range is read: inside one block this is a
/// zero-copy mapped window, and the other R−1 partitions are never
/// touched.
pub fn fetch_partition(dfs: &Dfs, path: &str, r: usize) -> Result<Segment, ShipError> {
    fetch_partition_at(dfs, path, r, ReadAffinity::NONE, &Counters::new())
}

/// [`fetch_partition`] with a [`ReadAffinity`] hint: every read on the
/// fetch (index header and partition frame) prefers the replica on the
/// reducer's own node, and the bytes served are split onto
/// [`keys::SHUFFLE_FETCH_BYTES_LOCAL`] /
/// [`keys::SHUFFLE_FETCH_BYTES_REMOTE`] by whether the serving replica
/// was that node — the locality half of the shuffle byte matrix.
pub fn fetch_partition_at(
    dfs: &Dfs,
    path: &str,
    r: usize,
    affinity: ReadAffinity,
    counters: &Counters,
) -> Result<Segment, ShipError> {
    let mut tally = (0u64, 0u64);
    let ranges = read_index(dfs, path, affinity, &mut tally)?;
    let fetched = (|| -> Result<Segment, ShipError> {
        let Some(&(start, end)) = ranges.get(r) else {
            return Err(FormatError::Bam(format!(
                "partition {r} out of range: map output has {} frames",
                ranges.len()
            ))
            .into());
        };
        let window = dfs.read_file_range_shared_at(path, start, end - start, affinity)?;
        tally.0 += window.local_bytes;
        tally.1 += window.remote_bytes;
        let (seg, consumed) = read_frame(&window.bytes, 0)?;
        if consumed != window.bytes.len() {
            return Err(FormatError::Bam(format!(
                "partition {r}: frame consumed {consumed} of {} indexed bytes",
                window.bytes.len()
            ))
            .into());
        }
        Ok(seg)
    })();
    // Bytes moved are charged even when the fetch then fails to frame —
    // the reads happened.
    counters.add(keys::SHUFFLE_FETCH_BYTES_LOCAL, tally.0);
    counters.add(keys::SHUFFLE_FETCH_BYTES_REMOTE, tally.1);
    fetched
}

/// Bring a fetched segment to the codec the consumer speaks. When the
/// codecs already match this is a pure refcount bump (`same_backing`
/// holds); a mismatch transcodes the payload, counting the copies under
/// `mem.bytes.copied`.
pub fn adapt_codec(seg: &Segment, want: Codec, counters: &Counters) -> Result<Segment, ShipError> {
    if seg.codec == want {
        return Ok(seg.clone());
    }
    // Registry dispatch both ways — decode under the segment's codec,
    // re-encode under `want` — so any pair of registered codecs
    // transcodes without this function enumerating them.
    let raw: std::borrow::Cow<'_, [u8]> = if seg.codec.is_compressed() {
        let v = seg.codec.decode(&seg.data)?;
        counters.add(keys::BYTES_COPIED, v.len() as u64);
        std::borrow::Cow::Owned(v)
    } else {
        std::borrow::Cow::Borrowed(&seg.data)
    };
    let data = if want.is_compressed() {
        let mut data = Vec::new();
        want.encode_append(&raw, &mut data);
        counters.add(keys::BYTES_COPIED, (raw.len() + data.len()) as u64);
        data
    } else {
        // `raw` is Owned here: a raw source with `want == Raw` returned
        // early above, so reaching this arm means the source decoded.
        raw.into_owned()
    };
    Ok(Segment {
        data: SharedBytes::from_vec(data),
        raw_len: seg.raw_len,
        records: seg.records,
        codec: want,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::CodecPolicy;
    use gesall_dfs::DfsConfig;

    fn segments() -> Vec<Segment> {
        vec![
            Segment::from_pairs(&[(1u64, 10u64), (2, 20)], false),
            Segment::from_pairs_with(
                &(0..400u64).map(|i| (i % 13, i)).collect::<Vec<_>>(),
                CodecPolicy::new(true, 16),
            ),
            Segment::empty(),
        ]
    }

    fn dfs(block_store: Option<std::path::PathBuf>) -> Dfs {
        Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 1 << 20,
            replication: 2,
            block_store_dir: block_store,
            ..DfsConfig::default()
        })
    }

    #[test]
    fn store_and_fetch_roundtrip_by_reference() {
        let dfs = dfs(None);
        let counters = Counters::new();
        let segs = segments();
        assert!(segs[1].is_compressed());
        store_map_output(&dfs, "job/shuffle/map-00000.segs", &segs, &counters).unwrap();
        let fetched = fetch_map_output(&dfs, "job/shuffle/map-00000.segs").unwrap();
        assert_eq!(fetched.len(), 3);
        for (orig, got) in segs.iter().zip(&fetched) {
            assert_eq!(orig.codec, got.codec);
            assert_eq!(orig.records, got.records);
            assert_eq!(orig.raw_len, got.raw_len);
            assert_eq!(&orig.data[..], &got.data[..]);
        }
        // Every fetched payload windows the SAME block: the compressed
        // segment travelled by reference, not by copy.
        assert!(fetched[0].data.same_backing(&fetched[1].data));
        let p1 = fetch_partition(&dfs, "job/shuffle/map-00000.segs", 1).unwrap();
        assert!(p1.data.same_backing(&fetched[1].data));
        assert_eq!(p1.to_pairs::<u64, u64>(), segs[1].to_pairs::<u64, u64>());
    }

    #[test]
    fn persisted_store_serves_mapped_windows() {
        let dir = std::env::temp_dir().join(format!(
            "gesall-ship-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dfs = dfs(Some(dir.clone()));
        let counters = Counters::new();
        let segs = segments();
        store_map_output(&dfs, "j/shuffle/map-00000.segs", &segs, &counters).unwrap();
        let a = fetch_partition(&dfs, "j/shuffle/map-00000.segs", 1).unwrap();
        let b = fetch_partition(&dfs, "j/shuffle/map-00000.segs", 1).unwrap();
        // Two fetches share the one file mapping — refcount bumps on the
        // mmap'd block, no payload copies.
        assert!(a.data.same_backing(&b.data));
        if gesall_formats::mapped::MMAP_COMPILED {
            assert!(a.data.is_mapped(), "persisted block must be served mmap'd");
        }
        assert_eq!(a.to_pairs::<u64, u64>(), segs[1].to_pairs::<u64, u64>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adapt_codec_matches_by_reference_and_transcode_mismatches() {
        let counters = Counters::new();
        let segs = segments();
        let compressed = &segs[1];
        // Same codec: refcount bump, zero copies counted.
        let same = adapt_codec(compressed, Codec::Lz, &counters).unwrap();
        assert!(same.data.same_backing(&compressed.data));
        assert_eq!(counters.get(keys::BYTES_COPIED), 0);
        // Mismatch: transcoded, copies counted, contents preserved.
        let raw = adapt_codec(compressed, Codec::Raw, &counters).unwrap();
        assert_eq!(raw.codec, Codec::Raw);
        assert!(!raw.data.same_backing(&compressed.data));
        assert!(counters.get(keys::BYTES_COPIED) > 0);
        assert_eq!(
            raw.to_pairs::<u64, u64>(),
            compressed.to_pairs::<u64, u64>()
        );
        let back = adapt_codec(&raw, Codec::Lz, &counters).unwrap();
        assert_eq!(back.codec, Codec::Lz);
        assert_eq!(back.to_pairs::<u64, u64>(), raw.to_pairs::<u64, u64>());
    }

    // Iterates the codec registry rather than naming codecs, so a newly
    // registered codec is covered (and its same-codec fast path pinned)
    // the day it lands.
    #[test]
    fn adapt_codec_transcodes_between_every_registered_pair() {
        let segs = segments();
        let compressed = &segs[1];
        let want_pairs = compressed.to_pairs::<u64, u64>();
        for &from in Codec::registry() {
            let counters = Counters::new();
            let src = adapt_codec(compressed, from, &counters).unwrap();
            for &to in Codec::registry() {
                let counters = Counters::new();
                let got = adapt_codec(&src, to, &counters).unwrap();
                assert_eq!(got.codec, to);
                if from == to {
                    assert!(
                        got.data.same_backing(&src.data),
                        "{from:?} -> {to:?} must be a refcount bump"
                    );
                    assert_eq!(counters.get(keys::BYTES_COPIED), 0);
                } else {
                    assert!(counters.get(keys::BYTES_COPIED) > 0);
                }
                assert_eq!(got.to_pairs::<u64, u64>(), want_pairs);
            }
        }
    }

    #[test]
    fn partition_fetch_from_multi_block_file_reads_only_its_range() {
        // Tiny blocks force the stored output across many blocks; each
        // partition still comes back intact via its indexed range, and
        // an in-block partition is served zero-copy.
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 256,
            replication: 1,
            ..DfsConfig::default()
        });
        let counters = Counters::new();
        let segs: Vec<Segment> = (0..5)
            .map(|p| {
                Segment::from_pairs(
                    &(0..60u64).map(|i| (i, i * 10 + p)).collect::<Vec<_>>(),
                    false,
                )
            })
            .collect();
        store_map_output(&dfs, "j/shuffle/map-00000.segs", &segs, &counters).unwrap();
        assert!(
            dfs.stat("j/shuffle/map-00000.segs").unwrap().blocks.len() > 1,
            "test needs a multi-block file"
        );
        for (p, s) in segs.iter().enumerate() {
            let got = fetch_partition(&dfs, "j/shuffle/map-00000.segs", p).unwrap();
            assert_eq!(got.records, s.records);
            assert_eq!(got.to_pairs::<u64, u64>(), s.to_pairs::<u64, u64>());
        }
        // And pinned placement keeps the whole output on one node.
        store_map_output_with_policy(
            &dfs,
            "j/shuffle/map-00001.segs",
            &segs,
            &gesall_dfs::PinnedPlacement(2),
            &counters,
        )
        .unwrap();
        let info = dfs.stat("j/shuffle/map-00001.segs").unwrap();
        assert_eq!(info.single_home(), Some(2));
    }

    #[test]
    fn fetch_errors_on_bad_partition_and_corrupt_file() {
        let dfs = dfs(None);
        let counters = Counters::new();
        store_map_output(&dfs, "j/m0", &segments(), &counters).unwrap();
        assert!(fetch_partition(&dfs, "j/m0", 3).is_err());
        dfs.write_file("j/corrupt", &[9u8; 4]).unwrap();
        assert!(fetch_map_output(&dfs, "j/corrupt").is_err());
        assert!(fetch_map_output(&dfs, "j/missing").is_err());
    }
}
