//! The sort-spill-merge pipeline.
//!
//! Map side: emitted records serialize into a bounded **sort buffer**
//! (`io.sort.mb`). A full buffer is sorted by (partition, key) and
//! spilled; when the map function finishes, all spills are merged into a
//! single sorted, partitioned output (the *map-side merge* whose disk
//! contention dominates Fig. 5(b) at large partition sizes). The
//! sort-and-bucket work of each spill runs on a [`SpillPool`] encoder
//! while the mapper keeps buffering, and [`SortSpillBuffer::finish`] is a
//! drain-and-merge barrier — the merged output does not depend on how
//! many spills there were, because spills land in submission order and
//! the final encode still happens in one place.
//!
//! Reduce side: each reducer fetches its partition's segment from every
//! map output and runs a **multipass merge** bounded by `merge_factor`
//! — the quadratic-in-data-per-disk behaviour of Li et al. [15] that
//! explains the paper's disk findings (Appendix B.1).

use crate::counters::{keys, Counters};
use crate::spillpool::SpillPool;
use crate::task::Partitioner;
use gesall_formats::wire::{put_u64, Cursor, Wire};
use gesall_formats::{Codec, FormatError, SharedBytes};
use gesall_telemetry::{kernel_keys, Phase};
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Default compression threshold: payloads smaller than this stay
/// uncompressed even when the job asks for compression — the codec
/// container + dictionary warm-up costs more than it saves on tiny
/// segments. Jobs can override it via
/// [`JobConfig::compress_min_bytes`](crate::runtime::JobConfig).
pub const COMPRESS_MIN_BYTES: usize = 1024;

/// Free-list cap for [`SpillArena`]: holding more released scratch
/// buffers than this drops them (counted under [`keys::SPILL_EVICTED`])
/// instead of growing the list without bound.
pub const SPILL_ARENA_MAX_FREE: usize = 8;

/// How a job picks the codec for each map-output partition: compression
/// on/off, the minimum payload size worth compressing, and which
/// registered codec compressed payloads travel under (LZ unless the job
/// forces another).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecPolicy {
    /// Compress at all?
    pub compress: bool,
    /// Smallest raw payload the codec is applied to.
    pub min_bytes: usize,
    /// The compressed codec applied when a payload qualifies.
    pub codec: Codec,
}

impl CodecPolicy {
    pub fn new(compress: bool, min_bytes: usize) -> CodecPolicy {
        CodecPolicy {
            compress,
            // A floor of 1 keeps empty partitions raw, so zero-length
            // segments never carry a codec container.
            min_bytes: min_bytes.max(1),
            codec: Codec::Lz,
        }
    }

    /// Use `codec` for qualifying payloads instead of the LZ default.
    /// `Codec::Raw` here is a configuration error; it is coerced to
    /// "compression off".
    pub fn with_codec(mut self, codec: Codec) -> CodecPolicy {
        if codec.is_compressed() {
            self.codec = codec;
        } else {
            self.compress = false;
        }
        self
    }

    /// The codec a payload of `raw_len` bytes travels under.
    pub fn choose(&self, raw_len: usize) -> Codec {
        if self.compress && raw_len >= self.min_bytes {
            self.codec
        } else {
            Codec::Raw
        }
    }
}

impl Default for CodecPolicy {
    fn default() -> CodecPolicy {
        CodecPolicy::new(false, COMPRESS_MIN_BYTES)
    }
}

/// One sorted run of encoded (key, value) records.
///
/// The payload is a [`SharedBytes`] window, so a reduce-side fetch of a
/// map output clones a reference into the map task's single output
/// backing instead of memcpy'ing the bytes (assert with
/// [`SharedBytes::same_backing`]). The codec tag travels with the
/// window: a compressed segment ships by reference end-to-end and is
/// decoded exactly once, at the reduce-side merge.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Possibly-compressed payload, shared with its siblings from the
    /// same map task.
    pub data: SharedBytes,
    /// Uncompressed payload length.
    pub raw_len: usize,
    /// Record count.
    pub records: u64,
    /// Codec [`Segment::data`] is encoded under.
    pub codec: Codec,
}

impl Segment {
    pub fn empty() -> Segment {
        Segment {
            data: SharedBytes::new(),
            raw_len: 0,
            records: 0,
            codec: Codec::Raw,
        }
    }

    /// Serialize a sorted run of typed pairs under the default
    /// [`COMPRESS_MIN_BYTES`] threshold.
    pub fn from_pairs<K: Wire, V: Wire>(pairs: &[(K, V)], use_compression: bool) -> Segment {
        Segment::from_pairs_with(pairs, CodecPolicy::new(use_compression, COMPRESS_MIN_BYTES))
    }

    /// Serialize a sorted run of typed pairs. The encode buffer is
    /// pre-sized from [`Wire::encoded_len`]; the policy picks the codec
    /// from the raw payload size.
    pub fn from_pairs_with<K: Wire, V: Wire>(pairs: &[(K, V)], policy: CodecPolicy) -> Segment {
        let raw_len: usize = pairs
            .iter()
            .map(|(k, v)| k.encoded_len() + v.encoded_len())
            .sum();
        let mut raw = Vec::with_capacity(raw_len);
        for (k, v) in pairs {
            k.encode(&mut raw);
            v.encode(&mut raw);
        }
        debug_assert_eq!(raw.len(), raw_len, "encoded_len must be exact");
        let codec = policy.choose(raw_len);
        let data = if codec.is_compressed() {
            let mut data = Vec::new();
            codec.encode_append(&raw, &mut data);
            data
        } else {
            raw
        };
        Segment {
            data: SharedBytes::from_vec(data),
            raw_len,
            records: pairs.len() as u64,
            codec,
        }
    }

    /// Decode back into typed pairs.
    pub fn to_pairs<K: Wire, V: Wire>(&self) -> Vec<(K, V)> {
        let raw_storage;
        let raw: &[u8] = if self.codec.is_compressed() {
            raw_storage = self.codec.decode(&self.data).expect("segment payload corrupt");
            &raw_storage
        } else {
            &self.data
        };
        let mut cur = Cursor::new(raw);
        let mut out = Vec::with_capacity(self.records as usize);
        for _ in 0..self.records {
            let k = K::decode(&mut cur).expect("segment key corrupt");
            let v = V::decode(&mut cur).expect("segment value corrupt");
            out.push((k, v));
        }
        assert!(cur.is_empty(), "trailing bytes in segment");
        out
    }

    /// Bytes that travel over the wire for this segment.
    pub fn wire_len(&self) -> usize {
        self.data.len()
    }

    /// Does [`Segment::data`] need decoding before use?
    pub fn is_compressed(&self) -> bool {
        self.codec.is_compressed()
    }
}

/// Bytes a segment frame's header occupies on the wire:
/// `[codec tag u8][records u64][raw_len u64][data_len u64]`.
pub const FRAME_HEADER_BYTES: usize = 1 + 8 + 8 + 8;

/// Append a segment's wire frame — header plus payload — to `out`.
/// This is the one place a map output's payload is memcpy'd on its way
/// into DFS; the caller accounts the copy.
pub fn write_frame(seg: &Segment, out: &mut Vec<u8>) {
    out.push(seg.codec.tag());
    put_u64(out, seg.records);
    put_u64(out, seg.raw_len as u64);
    put_u64(out, seg.data.len() as u64);
    out.extend_from_slice(&seg.data);
}

/// Parse the segment frame starting at `offset` in `bytes`, returning
/// the segment and the offset just past it. The payload is a zero-copy
/// window of `bytes` — `same_backing` holds between the returned
/// segment and the enclosing buffer, so a compressed frame read out of
/// a (possibly mmap-backed) DFS block travels onward as a refcount
/// bump.
pub fn read_frame(bytes: &SharedBytes, offset: usize) -> gesall_formats::Result<(Segment, usize)> {
    let buf: &[u8] = bytes;
    if buf.len() < offset + FRAME_HEADER_BYTES {
        return Err(FormatError::Bam(format!(
            "truncated segment frame header at offset {offset} (buffer {} bytes)",
            buf.len()
        )));
    }
    let codec = Codec::from_tag(buf[offset])?;
    let mut cur = Cursor::new(&buf[offset + 1..offset + FRAME_HEADER_BYTES]);
    let records = cur.get_u64()?;
    let raw_len = cur.get_u64()? as usize;
    let data_len = cur.get_u64()? as usize;
    let data_start = offset + FRAME_HEADER_BYTES;
    if buf.len() < data_start + data_len {
        return Err(FormatError::Bam(format!(
            "truncated segment frame payload: wanted {data_len} bytes at {data_start}, buffer {}",
            buf.len()
        )));
    }
    let seg = Segment {
        data: bytes.slice(data_start..data_start + data_len),
        raw_len,
        records,
        codec,
    };
    Ok((seg, data_start + data_len))
}

/// A tournament (loser) tree over keyed leaves, the k-way merge kernel
/// (DESIGN.md §5): internal nodes remember the *loser* of their match,
/// so replacing the winner and finding the next one replays only the
/// leaf-to-root path — `log₂ k` comparisons per record, against the
/// binary heap's pop **and** push (each `log k`, plus the tuple moves).
/// `None` keys are +∞ (exhausted leaves); ties go to the lower leaf
/// index, which is exactly [`merge_runs`]' documented stable order.
struct LoserTree<K: Ord> {
    /// `tree[1..cap]` hold the loser leaf of each internal match;
    /// `tree[0]` holds the overall winner.
    tree: Vec<usize>,
    keys: Vec<Option<K>>,
    /// Leaf count, padded to a power of two with `None` leaves.
    cap: usize,
}

impl<K: Ord> LoserTree<K> {
    fn new(mut keys: Vec<Option<K>>) -> LoserTree<K> {
        let cap = keys.len().max(1).next_power_of_two();
        keys.resize_with(cap, || None);
        let mut lt = LoserTree {
            tree: vec![0; cap],
            keys,
            cap,
        };
        // One bottom-up pass: winners bubble up, losers park in `tree`.
        let mut winners = vec![0usize; 2 * cap];
        for i in 0..cap {
            winners[cap + i] = i;
        }
        for node in (1..cap).rev() {
            let (a, b) = (winners[2 * node], winners[2 * node + 1]);
            let (w, l) = if lt.beats(a, b) { (a, b) } else { (b, a) };
            winners[node] = w;
            lt.tree[node] = l;
        }
        lt.tree[0] = winners[1];
        lt
    }

    /// Does leaf `a` come before leaf `b`? `None` = +∞; ties → lower
    /// leaf index (run submission order — the stability contract).
    fn beats(&self, a: usize, b: usize) -> bool {
        match (&self.keys[a], &self.keys[b]) {
            (Some(ka), Some(kb)) => match ka.cmp(kb) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, _) => a < b && self.keys[b].is_none(),
        }
    }

    /// Current winner leaf, or `None` once every leaf is exhausted.
    fn winner(&self) -> Option<usize> {
        let w = self.tree[0];
        self.keys[w].is_some().then_some(w)
    }

    /// Swap the winner leaf's key for `next` (its run's next head) and
    /// replay its path to the root; returns the displaced key.
    fn replace_winner(&mut self, leaf: usize, next: Option<K>) -> Option<K> {
        debug_assert_eq!(leaf, self.tree[0], "only the winner may be replaced");
        let prev = std::mem::replace(&mut self.keys[leaf], next);
        let mut winner = leaf;
        let mut node = (self.cap + leaf) / 2;
        while node >= 1 {
            let loser = self.tree[node];
            if self.beats(loser, winner) {
                self.tree[node] = winner;
                winner = loser;
            }
            node /= 2;
        }
        self.tree[0] = winner;
        prev
    }
}

/// Stable k-way merge of sorted runs by key (ties broken by run order,
/// then intra-run order — deterministic). Runs on the [`LoserTree`]
/// kernel; [`merge_runs_heap`] is the binary-heap twin it is pinned to.
pub fn merge_runs<K: Wire + Ord + Clone, V: Wire>(runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut iters: Vec<std::vec::IntoIter<(K, V)>> =
        runs.into_iter().map(|r| r.into_iter()).collect();
    let mut heads: Vec<Option<V>> = Vec::with_capacity(iters.len());
    let mut keys: Vec<Option<K>> = Vec::with_capacity(iters.len());
    for it in iters.iter_mut() {
        match it.next() {
            Some((k, v)) => {
                keys.push(Some(k));
                heads.push(Some(v));
            }
            None => {
                keys.push(None);
                heads.push(None);
            }
        }
    }
    let mut lt = LoserTree::new(keys);
    while let Some(i) = lt.winner() {
        let v = heads[i].take().expect("head value present for winner run");
        let next = match iters[i].next() {
            Some((nk, nv)) => {
                heads[i] = Some(nv);
                Some(nk)
            }
            None => None,
        };
        let k = lt
            .replace_winner(i, next)
            .expect("winner leaf holds a key");
        out.push((k, v));
    }
    out
}

/// The binary-heap twin of [`merge_runs`], retained as its order oracle
/// (and as the merge under [`reduce_merge_materialized`], keeping that
/// oracle fully independent of the loser-tree kernel).
pub fn merge_runs_heap<K: Wire + Ord + Clone, V: Wire>(runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    // Heap of (key, run_idx) → pop smallest; stability from run_idx order.
    let mut iters: Vec<std::vec::IntoIter<(K, V)>> =
        runs.into_iter().map(|r| r.into_iter()).collect();
    let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::new();
    let mut heads: Vec<Option<V>> = Vec::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        match it.next() {
            Some((k, v)) => {
                heap.push(Reverse((k, i)));
                heads.push(Some(v));
            }
            None => heads.push(None),
        }
    }
    while let Some(Reverse((k, i))) = heap.pop() {
        let v = heads[i].take().expect("head value present for popped run");
        out.push((k, v));
        if let Some((nk, nv)) = iters[i].next() {
            heap.push(Reverse((nk, i)));
            heads[i] = Some(nv);
        }
    }
    out
}

/// Recycled spill-scratch memory: a free-list of encode buffers so a
/// map task's merge serializes every partition through the same
/// allocation instead of growing a fresh `Vec` per partition (or, in
/// the old path, per record). [`SpillArena::acquire`] counts every
/// hand-out under [`keys::SPILL_ALLOCS`] and recycled ones under
/// [`keys::SPILL_REUSED`]. The free-list is capped: releases past
/// [`SPILL_ARENA_MAX_FREE`] drop the buffer and count under
/// [`keys::SPILL_EVICTED`], so arena memory stays bounded no matter how
/// many buffers cycle through.
pub struct SpillArena {
    free: Vec<Vec<u8>>,
    max_free: usize,
    counters: Counters,
}

impl SpillArena {
    pub fn new(counters: Counters) -> SpillArena {
        SpillArena::with_cap(counters, SPILL_ARENA_MAX_FREE)
    }

    /// An arena whose free-list holds at most `max_free` buffers.
    pub fn with_cap(counters: Counters, max_free: usize) -> SpillArena {
        SpillArena {
            free: Vec::new(),
            max_free,
            counters,
        }
    }

    /// Check out a cleared buffer with at least `cap` capacity,
    /// recycling a released one when available.
    pub fn acquire(&mut self, cap: usize) -> Vec<u8> {
        self.counters.add(keys::SPILL_ALLOCS, 1);
        match self.free.pop() {
            Some(mut buf) => {
                self.counters.add(keys::SPILL_REUSED, 1);
                buf.clear();
                buf.reserve(cap);
                buf
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Return a buffer for the next `acquire`; dropped (and counted)
    /// when the free-list is already at capacity.
    pub fn release(&mut self, buf: Vec<u8>) {
        if self.free.len() >= self.max_free {
            self.counters.add(keys::SPILL_EVICTED, 1);
            return;
        }
        self.free.push(buf);
    }
}

/// Runs shorter than this skip the radix machinery — a stable
/// comparison sort wins outright on tiny inputs.
const RADIX_MIN_RUN: usize = 64;

/// LSD radix sort of one partition's run, stable, keyed on
/// [`Wire::sort_prefix`] (DESIGN.md §5). The permutation is computed
/// over 16-byte `(prefix, index)` items — the typed pairs move exactly
/// once, at the end — and constant prefix bytes skip their pass
/// entirely. Because `sort_prefix` is order-consistent
/// (`k₁ < k₂ ⇒ prefix(k₁) ≤ prefix(k₂)`), equal-prefix items end up
/// contiguous; each such tie run that isn't already key-ordered gets a
/// stable comparison sort, so the final order — including stability
/// across equal keys — is exactly `sort_by(key)`'s. Types that keep the
/// default prefix of 0 degenerate to one big tie run (correct, just not
/// faster). Returns (radix passes executed, comparison fallbacks).
fn radix_sort_run<K: Wire + Ord, V: Wire>(run: &mut Vec<(K, V)>) -> (u64, u64) {
    let n = run.len();
    if n <= 1 {
        return (0, 0);
    }
    if n < RADIX_MIN_RUN {
        run.sort_by(|a, b| a.0.cmp(&b.0));
        return (0, 1);
    }
    let mut items: Vec<(u64, u32)> = run
        .iter()
        .enumerate()
        .map(|(i, (k, _))| (k.sort_prefix(), i as u32))
        .collect();
    let mut scratch: Vec<(u64, u32)> = vec![(0, 0); n];
    let mut passes = 0u64;
    for byte in 0..8 {
        let shift = byte * 8;
        let mut counts = [0usize; 256];
        for &(p, _) in &items {
            counts[((p >> shift) & 0xff) as usize] += 1;
        }
        if counts.contains(&n) {
            continue; // constant byte — this pass would be the identity
        }
        passes += 1;
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (o, &c) in offsets.iter_mut().zip(&counts) {
            *o = acc;
            acc += c;
        }
        for &(p, i) in &items {
            let b = ((p >> shift) & 0xff) as usize;
            scratch[offsets[b]] = (p, i);
            offsets[b] += 1;
        }
        std::mem::swap(&mut items, &mut scratch);
    }
    // Move the typed pairs into prefix order (their one move).
    let mut src: Vec<Option<(K, V)>> = run.drain(..).map(Some).collect();
    run.extend(
        items
            .iter()
            .map(|&(_, i)| src[i as usize].take().expect("permutation visits each index once")),
    );
    // Settle equal-prefix tie runs with a stable comparison sort.
    let mut fallbacks = 0u64;
    let mut start = 0usize;
    while start < n {
        let prefix = items[start].0;
        let mut end = start + 1;
        while end < n && items[end].0 == prefix {
            end += 1;
        }
        if end - start > 1 && run[start..end].windows(2).any(|w| w[0].0 > w[1].0) {
            run[start..end].sort_by(|a, b| a.0.cmp(&b.0));
            fallbacks += 1;
        }
        start = end;
    }
    (passes, fallbacks)
}

/// Sort a spill batch by (partition, key) and bucket it into one sorted
/// run per partition — the unit of work a spill encoder executes. The
/// radix path buckets by partition with a stable counting scatter, then
/// radix-sorts each run ([`radix_sort_run`]); pass/fallback activity
/// lands on the `kernel.sort.*` counters.
fn sort_and_bucket<K: Wire + Ord, V: Wire>(
    batch: Vec<(usize, K, V)>,
    n_partitions: usize,
    radix: bool,
    counters: &Counters,
) -> Vec<Vec<(K, V)>> {
    if !radix {
        return sort_and_bucket_comparison(batch, n_partitions);
    }
    let mut counts = vec![0usize; n_partitions];
    for (p, _, _) in &batch {
        counts[*p] += 1;
    }
    let mut runs: Vec<Vec<(K, V)>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (p, k, v) in batch {
        runs[p].push((k, v));
    }
    let mut passes = 0u64;
    let mut fallbacks = 0u64;
    for run in &mut runs {
        let (p, f) = radix_sort_run(run);
        passes += p;
        fallbacks += f;
    }
    if passes > 0 {
        counters.add(kernel_keys::SORT_RADIX_PASSES, passes);
    }
    if fallbacks > 0 {
        counters.add(kernel_keys::SORT_COMPARISON_FALLBACKS, fallbacks);
    }
    runs
}

/// The comparison-sort twin of [`sort_and_bucket`] — the oracle the
/// radix path is pinned to (identical runs for any batch, proptested).
fn sort_and_bucket_comparison<K: Wire + Ord, V: Wire>(
    mut batch: Vec<(usize, K, V)>,
    n_partitions: usize,
) -> Vec<Vec<(K, V)>> {
    batch.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let mut runs: Vec<Vec<(K, V)>> = (0..n_partitions).map(|_| Vec::new()).collect();
    for (p, k, v) in batch {
        runs[p].push((k, v));
    }
    runs
}

/// One spill's output: a sorted run per reduce partition.
type SpillRuns<K, V> = Vec<Vec<(K, V)>>;

/// Sequence-ordered slots the spill encoders fill: slot `i` holds the
/// runs of the `i`-th submitted spill, so the drain barrier hands the
/// merge the spills in emission order whatever order they finished in.
struct SpillSlots<K, V> {
    filled: Mutex<Vec<Option<SpillRuns<K, V>>>>,
    done: Condvar,
}

/// The map-side sort buffer.
pub struct SortSpillBuffer<'a, K: Wire + Ord + Clone, V: Wire> {
    io_sort_bytes: usize,
    n_partitions: usize,
    partitioner: &'a dyn Partitioner<K>,
    policy: CodecPolicy,
    current: Vec<(usize, K, V)>,
    current_bytes: usize,
    /// Background encoders every spill sorts on.
    pool: Arc<SpillPool>,
    slots: Arc<SpillSlots<K, V>>,
    counters: Counters,
    /// Radix-sort spill batches (default); off = comparison-sort twin.
    radix: bool,
}

impl<'a, K, V> SortSpillBuffer<'a, K, V>
where
    K: Wire + Ord + Clone + Send + 'static,
    V: Wire + Send + 'static,
{
    /// A sort buffer whose spills sort on `pool`'s background encoders:
    /// the mapper keeps buffering while previous spills sort, and
    /// [`SortSpillBuffer::finish`] drains before merging.
    pub fn new(
        io_sort_bytes: usize,
        n_partitions: usize,
        partitioner: &'a dyn Partitioner<K>,
        use_compression: bool,
        pool: Arc<SpillPool>,
        counters: Counters,
    ) -> Self {
        SortSpillBuffer {
            io_sort_bytes: io_sort_bytes.max(1),
            n_partitions: n_partitions.max(1),
            partitioner,
            policy: CodecPolicy::new(use_compression, COMPRESS_MIN_BYTES),
            current: Vec::new(),
            current_bytes: 0,
            pool,
            slots: Arc::new(SpillSlots {
                filled: Mutex::new(Vec::new()),
                done: Condvar::new(),
            }),
            counters,
            radix: true,
        }
    }

    /// Choose the spill-sort kernel: radix on [`Wire::sort_prefix`]
    /// (default) or the comparison-sort twin. Output is identical either
    /// way; only speed changes.
    pub fn with_radix(mut self, radix: bool) -> Self {
        self.radix = radix;
        self
    }

    /// Override the compression threshold (the `JobConfig` knob).
    pub fn with_min_compress_bytes(mut self, min_bytes: usize) -> Self {
        self.policy = CodecPolicy::new(self.policy.compress, min_bytes).with_codec(self.policy.codec);
        self
    }

    /// Use `codec` for qualifying partitions instead of the LZ default
    /// (the job's `shuffle_codec`).
    pub fn with_codec(mut self, codec: Codec) -> Self {
        self.policy = self.policy.with_codec(codec);
        self
    }

    /// Buffer one record by move; spill when full. Sizing comes from
    /// [`Wire::encoded_len`], so nothing is serialized (or copied) until
    /// [`SortSpillBuffer::finish`] writes the single output backing.
    pub fn emit(&mut self, key: K, value: V) {
        let sz = key.encoded_len() + value.encoded_len();
        self.current_bytes += sz;
        self.counters.add(keys::MAP_OUTPUT_BYTES, sz as u64);
        self.counters.add(keys::MAP_OUTPUT_RECORDS, 1);
        let p = self.partitioner.partition(&key, self.n_partitions);
        self.current.push((p, key, value));
        if self.current_bytes >= self.io_sort_bytes {
            self.spill();
        }
    }

    fn spill(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.current);
        self.current_bytes = 0;
        self.counters.add(keys::MAP_SPILLS, 1);
        // Reserve the next sequence slot, then hand the sort to an
        // encoder. The partition index was computed at emit time, so the
        // job captures only owned data.
        let idx = {
            let mut slots = self.slots.filled.lock();
            slots.push(None);
            slots.len() - 1
        };
        self.counters.add(keys::SPILL_POOL_JOBS, 1);
        let n = self.n_partitions;
        let radix = self.radix;
        let slots = self.slots.clone();
        let counters = self.counters.clone();
        self.pool.submit(Box::new(move || {
            let t0 = Instant::now();
            let runs = sort_and_bucket(batch, n, radix, &counters);
            counters.add(Phase::SortSpill.counter_key(), t0.elapsed().as_nanos() as u64);
            let mut filled = slots.filled.lock();
            filled[idx] = Some(runs);
            slots.done.notify_all();
        }));
    }

    /// Finish the map task: merge all spills into one sorted segment per
    /// partition. This is the drain-and-merge barrier — it waits for
    /// outstanding background spills (the wait is counted under
    /// [`keys::SPILL_POOL_DRAIN_WAIT_NANOS`]) and then merges them in
    /// submission order, so the output does not depend on how many
    /// spills the buffer size caused.
    pub fn finish(mut self) -> Vec<Segment> {
        self.spill();
        let t0 = Instant::now();
        let spills: Vec<SpillRuns<K, V>> = {
            let mut filled = self.slots.filled.lock();
            while filled.iter().any(|s| s.is_none()) {
                self.slots.done.wait(&mut filled);
            }
            filled
                .drain(..)
                .map(|s| s.expect("drain barrier saw all slots filled"))
                .collect()
        };
        self.counters.add(
            keys::SPILL_POOL_DRAIN_WAIT_NANOS,
            t0.elapsed().as_nanos() as u64,
        );
        let t0 = Instant::now();
        let n_spills = spills.len();
        if n_spills > 1 {
            self.counters
                .add(keys::MAP_MERGE_SEGMENTS, n_spills as u64);
        }
        let mut per_partition: Vec<Vec<Vec<(K, V)>>> =
            (0..self.n_partitions).map(|_| Vec::new()).collect();
        for spill in spills {
            for (p, run) in spill.into_iter().enumerate() {
                if !run.is_empty() {
                    per_partition[p].push(run);
                }
            }
        }
        // Serialize every partition into ONE backing buffer; the
        // returned segments are O(1) slices of it, so reduce-side
        // fetches share the allocation instead of copying. Compressed
        // partitions encode raw into an arena-recycled scratch first
        // (one real allocation per task, reused across partitions),
        // then the codec appends to the backing.
        let mut arena = SpillArena::new(self.counters.clone());
        let mut backing: Vec<u8> = Vec::new();
        let mut metas: Vec<(usize, usize, usize, u64, Codec)> = Vec::new();
        for runs in per_partition {
            let merged = if runs.len() == 1 {
                runs.into_iter().next().unwrap()
            } else {
                merge_runs(runs)
            };
            let raw_len: usize = merged
                .iter()
                .map(|(k, v)| k.encoded_len() + v.encoded_len())
                .sum();
            let start = backing.len();
            let codec = self.policy.choose(raw_len);
            if codec.is_compressed() {
                let mut scratch = arena.acquire(raw_len);
                for (k, v) in &merged {
                    k.encode(&mut scratch);
                    v.encode(&mut scratch);
                }
                let t_enc = Instant::now();
                codec.encode_append(&scratch, &mut backing);
                self.counters.add(
                    keys::SHUFFLE_CODEC_ENCODE_NANOS,
                    t_enc.elapsed().as_nanos() as u64,
                );
                arena.release(scratch);
                // Raw encode into scratch + the compressor's write.
                let copied = raw_len + (backing.len() - start);
                self.counters.add(keys::BYTES_COPIED, copied as u64);
            } else {
                backing.reserve(raw_len);
                for (k, v) in &merged {
                    k.encode(&mut backing);
                    v.encode(&mut backing);
                }
                self.counters.add(keys::BYTES_COPIED, raw_len as u64);
            }
            metas.push((start, backing.len(), raw_len, merged.len() as u64, codec));
        }
        let backing = SharedBytes::from_vec(backing);
        let segments: Vec<Segment> = metas
            .into_iter()
            .map(|(start, end, raw_len, records, codec)| Segment {
                data: backing.slice(start..end),
                raw_len,
                records,
                codec,
            })
            .collect();
        self.counters
            .add(Phase::MapMerge.counter_key(), t0.elapsed().as_nanos() as u64);
        segments
    }
}

/// Tracks the decoded-side resident bytes of a streaming merge: what is
/// charged here is materialized working memory (Lz decompress scratch,
/// the ≤ `merge_factor` head records under the heap) — the encoded run
/// storage (source segment windows, arena-recycled rewrite buffers) is
/// the engine's "disk" layer and is accounted under
/// [`keys::REDUCE_MERGE_BYTES`] instead. The peak lands on
/// [`keys::REDUCE_PEAK_RESIDENT`] and is bounded by `merge_factor` ×
/// source-run size, independent of how many runs feed the merge.
#[derive(Debug, Default)]
struct ResidentGauge {
    current: u64,
    peak: u64,
}

impl ResidentGauge {
    fn charge(&mut self, bytes: u64) {
        self.current += bytes;
        self.peak = self.peak.max(self.current);
    }

    fn release(&mut self, bytes: u64) {
        self.current = self.current.saturating_sub(bytes);
    }
}

/// One sorted run awaiting its turn in the multipass merge: either a
/// still-encoded shuffle segment or a run an earlier pass re-encoded
/// into an arena buffer (raw wire encoding, the in-process stand-in for
/// Hadoop's on-disk intermediate run files).
enum StreamRun {
    Pending(Segment),
    Rewritten { buf: Vec<u8>, records: u64 },
}

/// Where an active run cursor decodes from.
enum RunBuf {
    /// Zero-copy window of the source segment (raw codec) — shares the
    /// map output's backing or the DFS block mapping; nothing new is
    /// resident.
    Shared(SharedBytes),
    /// Owned decode buffer: an Lz segment's decompressed payload
    /// (charged on the gauge) or a rewritten run's arena buffer
    /// (storage-layer, returned to the arena on exhaustion).
    Owned { buf: Vec<u8>, charged: u64 },
}

/// A lazily-decoding cursor over one sorted run: records decode one at
/// a time from the run's byte window, so an active run holds at most
/// its head record in typed form.
struct RunCursor<K, V> {
    buf: RunBuf,
    pos: usize,
    remaining: u64,
    _pd: std::marker::PhantomData<(K, V)>,
}

impl<K: Wire + Ord + Clone, V: Wire> RunCursor<K, V> {
    /// Activate a run for merging. A compressed source decompresses once
    /// into an owned scratch (the one materialization, charged on
    /// `gauge` and timed as shuffle work and under
    /// [`keys::SHUFFLE_CODEC_DECODE_NANOS`] — it is the deferred half of
    /// the fetch-and-decode the old path did eagerly); raw sources and
    /// rewritten runs decode in place.
    fn activate(
        run: StreamRun,
        gauge: &mut ResidentGauge,
        shuffle_nanos: &mut u64,
        counters: &Counters,
    ) -> RunCursor<K, V> {
        match run {
            StreamRun::Pending(seg) => {
                let remaining = seg.records;
                let buf = if seg.is_compressed() {
                    let t0 = Instant::now();
                    let raw = seg.codec.decode(&seg.data).expect("segment payload corrupt");
                    let decode_nanos = t0.elapsed().as_nanos() as u64;
                    *shuffle_nanos += decode_nanos;
                    counters.add(keys::SHUFFLE_CODEC_DECODE_NANOS, decode_nanos);
                    let charged = raw.len() as u64;
                    gauge.charge(charged);
                    RunBuf::Owned { buf: raw, charged }
                } else {
                    RunBuf::Shared(seg.data)
                };
                RunCursor {
                    buf,
                    pos: 0,
                    remaining,
                    _pd: std::marker::PhantomData,
                }
            }
            StreamRun::Rewritten { buf, records } => RunCursor {
                buf: RunBuf::Owned {
                    buf,
                    charged: 0, // storage-layer bytes, not decode scratch
                },
                pos: 0,
                remaining: records,
                _pd: std::marker::PhantomData,
            },
        }
    }

    /// Decode the next record; returns the pair and its encoded size
    /// (charged on `gauge` until the caller sinks it).
    fn next(&mut self, gauge: &mut ResidentGauge) -> Option<(K, V, u64)> {
        if self.remaining == 0 {
            return None;
        }
        let slice: &[u8] = match &self.buf {
            RunBuf::Shared(b) => b,
            RunBuf::Owned { buf, .. } => buf,
        };
        let tail = &slice[self.pos..];
        let mut cur = Cursor::new(tail);
        let k = K::decode(&mut cur).expect("run key corrupt");
        let v = V::decode(&mut cur).expect("run value corrupt");
        let consumed = (tail.len() - cur.remaining()) as u64;
        self.pos += consumed as usize;
        self.remaining -= 1;
        if self.remaining == 0 {
            assert_eq!(self.pos, slice.len(), "trailing bytes in run");
        }
        gauge.charge(consumed);
        Some((k, v, consumed))
    }

    /// Release an exhausted cursor: uncharge its scratch and return the
    /// owned buffer to the arena for the next rewrite pass.
    fn retire(&mut self, arena: &mut SpillArena, gauge: &mut ResidentGauge) {
        if let RunBuf::Owned { buf, charged } =
            std::mem::replace(&mut self.buf, RunBuf::Shared(SharedBytes::new()))
        {
            gauge.release(charged);
            arena.release(buf);
        }
    }
}

/// Stable streaming k-way merge over run cursors, identical in order to
/// [`merge_runs`] (ties break by cursor index, then intra-run order).
/// At most one head record per cursor is typed-resident at any moment.
/// Runs on the [`LoserTree`] kernel; the byte-identity proptest against
/// [`reduce_merge_materialized`] (whose merge is the heap twin) pins the
/// order down.
fn merge_streams<K: Wire + Ord + Clone, V: Wire>(
    mut cursors: Vec<RunCursor<K, V>>,
    arena: &mut SpillArena,
    gauge: &mut ResidentGauge,
    mut sink: impl FnMut(K, V),
) {
    let mut heads: Vec<Option<V>> = Vec::with_capacity(cursors.len());
    let mut keys: Vec<Option<K>> = Vec::with_capacity(cursors.len());
    let mut head_bytes: Vec<u64> = vec![0; cursors.len()];
    for i in 0..cursors.len() {
        match cursors[i].next(gauge) {
            Some((k, v, sz)) => {
                keys.push(Some(k));
                heads.push(Some(v));
                head_bytes[i] = sz;
            }
            None => {
                cursors[i].retire(arena, gauge);
                keys.push(None);
                heads.push(None);
            }
        }
    }
    let mut lt = LoserTree::new(keys);
    while let Some(i) = lt.winner() {
        let v = heads[i].take().expect("head value present for winner run");
        gauge.release(head_bytes[i]);
        let next = match cursors[i].next(gauge) {
            Some((nk, nv, sz)) => {
                heads[i] = Some(nv);
                head_bytes[i] = sz;
                Some(nk)
            }
            None => {
                cursors[i].retire(arena, gauge);
                None
            }
        };
        let k = lt
            .replace_winner(i, next)
            .expect("winner leaf holds a key");
        sink(k, v);
    }
}

/// Reduce-side shuffle + streaming multipass merge: fetch one segment
/// per map task, merge them down to a single grouped stream.
///
/// Runs are consumed through lazy [`RunCursor`]s that decode one record
/// at a time from the segment's (possibly mmap-backed) byte window, so
/// at most `merge_factor` run heads — plus the output run an
/// intermediate pass is writing — are in flight at once; the old path
/// materialized every run as typed pairs up front, making reducer peak
/// memory linear in input size. Intermediate passes re-encode their
/// merged run through the [`SpillArena`] (raw wire encoding, counted
/// under [`keys::REDUCE_MERGE_BYTES`] exactly as before) and queue it as
/// storage-layer bytes. The decoded-side peak lands on
/// [`keys::REDUCE_PEAK_RESIDENT`]; see [`ResidentGauge`] for what
/// counts. Output is byte-identical to [`reduce_merge_materialized`],
/// which the equivalence proptest pins down.
pub fn reduce_merge<K: Wire + Ord + Clone, V: Wire>(
    segments: Vec<Segment>,
    merge_factor: usize,
    counters: &Counters,
) -> Vec<(K, Vec<V>)> {
    let n_runs = segments.iter().filter(|s| s.records > 0).count();
    let mut it = segments.into_iter();
    reduce_merge_streamed(n_runs, move || it.next(), merge_factor, counters)
}

/// [`reduce_merge`] with the segment supply inverted: the caller
/// promises `n_runs` nonempty source runs up front (from the shipped
/// `SegMeta` record counts) and hands over a `next_segment` supplier
/// that yields them — possibly blocking on a prefetch channel — in map
/// order, so partition fetches pipeline with the merge instead of all
/// completing before it starts.
///
/// `n_runs` must be promised because the multipass queue discipline
/// (pop `merge_factor` runs from the front, append the rewritten run at
/// the back) makes equal-key output order depend on the number of
/// nonempty runs: knowing the count up front lets the streamed path
/// reproduce [`reduce_merge`]'s pass structure — and therefore
/// byte-identical output — while only pulling a source run at the
/// moment a pass activates it. Empty segments are skipped as merge
/// inputs (exactly as the batch path filters them) but still accounted;
/// any left after the last nonempty run are drained at the end.
pub fn reduce_merge_streamed<K: Wire + Ord + Clone, V: Wire>(
    n_runs: usize,
    mut next_segment: impl FnMut() -> Option<Segment>,
    merge_factor: usize,
    counters: &Counters,
) -> Vec<(K, Vec<V>)> {
    let merge_factor = merge_factor.max(2);
    let t0 = Instant::now();
    // Per-segment shuffle accounting is unchanged from the batch path:
    // the decode copies still happen (lazily, in the merge), so the
    // same bytes are charged — just as each segment arrives.
    let account = |s: &Segment| {
        counters.add(keys::SHUFFLE_RECORDS, s.records);
        counters.add(keys::SHUFFLE_BYTES, s.wire_len() as u64);
        counters.add(keys::SHUFFLE_BYTES_RAW, s.raw_len as u64);
        if s.is_compressed() {
            counters.add(keys::SHUFFLE_SEGMENTS_COMPRESSED, 1);
        } else {
            counters.add(keys::SHUFFLE_SEGMENTS_RAW, 1);
        }
        // Decode into typed records, plus the decompressor's write.
        let copied = s.raw_len + if s.is_compressed() { s.raw_len } else { 0 };
        counters.add(keys::BYTES_COPIED, copied as u64);
    };
    // The logical multipass queue: `pending` not-yet-pulled source runs
    // at the front, rewritten runs behind them. Source runs are only
    // materialized (pulled from the supplier) when a pass activates
    // them.
    let mut pending = n_runs;
    let mut rewritten: std::collections::VecDeque<StreamRun> = std::collections::VecDeque::new();
    // Lazy decode work (codec decode at cursor activation) and time
    // spent waiting on the supplier (a blocking fetch the prefetch
    // didn't hide) are shuffle-phase time; both accumulate here and are
    // attributed at the end so the merge phase doesn't double-count
    // them.
    let mut shuffle_nanos = 0u64;
    let mut pull = |shuffle_nanos: &mut u64| -> StreamRun {
        loop {
            let ta = Instant::now();
            let s = next_segment().expect("supplier ended before promised run count");
            account(&s);
            *shuffle_nanos += ta.elapsed().as_nanos() as u64;
            if s.records > 0 {
                return StreamRun::Pending(s);
            }
        }
    };
    let mut arena = SpillArena::new(counters.clone());
    let mut gauge = ResidentGauge::default();
    // Intermediate passes: merge `merge_factor` runs at a time,
    // re-encoding the merged run into an arena buffer
    // (REDUCE_MERGE_BYTES counts the same encoded length as the
    // materializing oracle).
    while pending + rewritten.len() > merge_factor {
        let take = merge_factor.min(pending + rewritten.len());
        let cursors: Vec<RunCursor<K, V>> = (0..take)
            .map(|_| {
                let run = if pending > 0 {
                    pending -= 1;
                    pull(&mut shuffle_nanos)
                } else {
                    rewritten.pop_front().unwrap()
                };
                RunCursor::activate(run, &mut gauge, &mut shuffle_nanos, counters)
            })
            .collect();
        let mut out = arena.acquire(0);
        let mut records = 0u64;
        merge_streams(cursors, &mut arena, &mut gauge, |k: K, v: V| {
            k.encode(&mut out);
            v.encode(&mut out);
            records += 1;
        });
        counters.add(keys::REDUCE_MERGE_PASSES, 1);
        counters.add(keys::REDUCE_MERGE_BYTES, out.len() as u64);
        rewritten.push_back(StreamRun::Rewritten { buf: out, records });
    }
    // Final pass: merge the remaining ≤ merge_factor runs, grouping
    // consecutive equal keys straight off the stream.
    let cursors: Vec<RunCursor<K, V>> = (0..pending + rewritten.len())
        .map(|_| {
            let run = if pending > 0 {
                pending -= 1;
                pull(&mut shuffle_nanos)
            } else {
                rewritten.pop_front().unwrap()
            };
            RunCursor::activate(run, &mut gauge, &mut shuffle_nanos, counters)
        })
        .collect();
    let mut out: Vec<(K, Vec<V>)> = Vec::new();
    merge_streams(cursors, &mut arena, &mut gauge, |k: K, v: V| {
        match out.last_mut() {
            Some((lk, vs)) if *lk == k => vs.push(v),
            _ => out.push((k, vec![v])),
        }
    });
    // Trailing empty segments (after the last nonempty run) were never
    // pulled by a pass; drain them so their accounting still lands.
    {
        let ta = Instant::now();
        while let Some(s) = next_segment() {
            debug_assert_eq!(s.records, 0, "nonempty run beyond the promised count");
            account(&s);
        }
        shuffle_nanos += ta.elapsed().as_nanos() as u64;
    }
    counters.add(keys::REDUCE_INPUT_GROUPS, out.len() as u64);
    counters.add(keys::REDUCE_PEAK_RESIDENT, gauge.peak);
    counters.add(Phase::Shuffle.counter_key(), shuffle_nanos);
    counters.add(
        Phase::ReduceMerge.counter_key(),
        (t0.elapsed().as_nanos() as u64).saturating_sub(shuffle_nanos),
    );
    out
}

/// The pre-streaming reduce merge: decode every segment into typed
/// pairs up front, then multipass-merge the materialized runs. Retained
/// as the equivalence oracle for [`reduce_merge`] — the streaming path
/// must produce byte-identical grouped output (same keys, same value
/// order) for any segment set, codec mix, and `merge_factor`.
pub fn reduce_merge_materialized<K: Wire + Ord + Clone, V: Wire>(
    segments: Vec<Segment>,
    merge_factor: usize,
    counters: &Counters,
) -> Vec<(K, Vec<V>)> {
    let merge_factor = merge_factor.max(2);
    let mut runs: std::collections::VecDeque<Vec<(K, V)>> = segments
        .iter()
        .filter(|s| s.records > 0)
        .map(|s| s.to_pairs())
        .collect();
    while runs.len() > merge_factor {
        let take = merge_factor.min(runs.len());
        let batch: Vec<Vec<(K, V)>> = (0..take).map(|_| runs.pop_front().unwrap()).collect();
        let merged = merge_runs_heap(batch);
        counters.add(keys::REDUCE_MERGE_PASSES, 1);
        runs.push_back(merged);
    }
    let merged = merge_runs_heap(runs.into_iter().collect());
    let mut out: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in merged {
        match out.last_mut() {
            Some((lk, vs)) if *lk == k => vs.push(v),
            _ => out.push((k, vec![v])),
        }
    }
    counters.add(keys::REDUCE_INPUT_GROUPS, out.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::HashPartitioner;

    fn pool() -> Arc<SpillPool> {
        Arc::new(SpillPool::new(2, 4))
    }

    #[test]
    fn segment_roundtrip_compressed_and_raw() {
        let pairs: Vec<(String, u64)> = (0..500)
            .map(|i| (format!("key{:04}", i % 50), i))
            .collect();
        for comp in [false, true] {
            let seg = Segment::from_pairs(&pairs, comp);
            assert_eq!(seg.records, 500);
            assert_eq!(seg.is_compressed(), comp);
            let back: Vec<(String, u64)> = seg.to_pairs();
            assert_eq!(back, pairs);
            if comp {
                assert!(seg.wire_len() < seg.raw_len, "repetitive keys compress");
            }
        }
    }

    #[test]
    fn codec_policy_threshold_is_a_knob() {
        let pairs: Vec<(String, u64)> = (0..20).map(|i| (format!("k{i:02}"), i)).collect();
        // Under the default 1 KiB threshold this payload stays raw …
        let seg = Segment::from_pairs(&pairs, true);
        assert_eq!(seg.codec, Codec::Raw);
        // … but a per-job threshold of 1 byte compresses it.
        let seg = Segment::from_pairs_with(&pairs, CodecPolicy::new(true, 1));
        assert_eq!(seg.codec, Codec::Lz);
        assert_eq!(seg.to_pairs::<String, u64>(), pairs);
        // Empty payloads never carry a codec container, even at min 0.
        let seg = Segment::from_pairs_with::<String, u64>(&[], CodecPolicy::new(true, 0));
        assert_eq!(seg.codec, Codec::Raw);
        assert_eq!(seg.wire_len(), 0);
    }

    #[test]
    fn frame_roundtrip_is_zero_copy() {
        let a = Segment::from_pairs(&[(1u64, 10u64), (2, 20)], false);
        let b = Segment::from_pairs_with(
            &(0..300u64).map(|i| (i % 9, i)).collect::<Vec<_>>(),
            CodecPolicy::new(true, 16),
        );
        assert!(b.is_compressed());
        let mut wire = Vec::new();
        write_frame(&a, &mut wire);
        write_frame(&b, &mut wire);
        let wire = SharedBytes::from_vec(wire);
        let (ra, next) = read_frame(&wire, 0).unwrap();
        let (rb, end) = read_frame(&wire, next).unwrap();
        assert_eq!(end, wire.len());
        assert_eq!(ra.records, a.records);
        assert_eq!(ra.codec, Codec::Raw);
        assert_eq!(rb.codec, Codec::Lz);
        assert_eq!(rb.raw_len, b.raw_len);
        // The decoded payloads are windows of the enclosing buffer — a
        // compressed frame travels onward as a refcount bump.
        assert!(ra.data.same_backing(&wire));
        assert!(rb.data.same_backing(&wire));
        assert_eq!(ra.to_pairs::<u64, u64>(), a.to_pairs::<u64, u64>());
        assert_eq!(rb.to_pairs::<u64, u64>(), b.to_pairs::<u64, u64>());
    }

    #[test]
    fn frame_rejects_truncation_and_bad_tags() {
        let seg = Segment::from_pairs(&[(7u64, 8u64)], false);
        let mut wire = Vec::new();
        write_frame(&seg, &mut wire);
        // Bad codec tag.
        let mut bad = wire.clone();
        bad[0] = 0x7f;
        assert!(read_frame(&SharedBytes::from_vec(bad), 0).is_err());
        // Truncated header and truncated payload.
        let hdr = SharedBytes::from_vec(wire[..FRAME_HEADER_BYTES - 1].to_vec());
        assert!(read_frame(&hdr, 0).is_err());
        let cut = SharedBytes::from_vec(wire[..wire.len() - 1].to_vec());
        assert!(read_frame(&cut, 0).is_err());
        // Offset past the end.
        let whole = SharedBytes::from_vec(wire);
        assert!(read_frame(&whole, whole.len() + 1).is_err());
    }

    #[test]
    fn merge_runs_is_sorted_and_stable() {
        let a = vec![("a".to_string(), 1u64), ("c".into(), 2), ("e".into(), 3)];
        let b = vec![("a".to_string(), 10u64), ("b".into(), 11)];
        let merged = merge_runs(vec![a, b]);
        let keys: Vec<&str> = merged.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "a", "b", "c", "e"]);
        // Stability: run 0's "a" precedes run 1's.
        assert_eq!(merged[0].1, 1);
        assert_eq!(merged[1].1, 10);
    }

    #[test]
    fn merge_runs_empty_inputs() {
        let merged: Vec<(u64, u64)> = merge_runs(vec![]);
        assert!(merged.is_empty());
        let merged: Vec<(u64, u64)> = merge_runs(vec![vec![], vec![(1, 2)], vec![]]);
        assert_eq!(merged, vec![(1, 2)]);
    }

    #[test]
    fn loser_tree_merge_matches_heap_oracle() {
        // Deterministic pseudo-random runs, duplicate-heavy keys, varied
        // run counts (1, power-of-two, odd): loser tree == heap, always.
        let mut x = 42u64;
        let mut rand = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        for n_runs in [1usize, 2, 3, 7, 8, 13] {
            let runs: Vec<Vec<(u64, u64)>> = (0..n_runs)
                .map(|r| {
                    let len = (rand() % 40) as usize;
                    let mut run: Vec<(u64, u64)> =
                        (0..len).map(|i| (rand() % 10, (r * 1000 + i) as u64)).collect();
                    run.sort_by_key(|&(k, _)| k);
                    run
                })
                .collect();
            assert_eq!(
                merge_runs(runs.clone()),
                merge_runs_heap(runs),
                "n_runs={n_runs}"
            );
        }
    }

    #[test]
    fn radix_sort_matches_comparison_twin() {
        let mut x = 99u64;
        let mut rand = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let counters = Counters::new();
        // String keys exercise the 8-byte-prefix + tie-run path; shared
        // long prefixes force comparison fallbacks past byte 8.
        let batch: Vec<(usize, String, u64)> = (0..500)
            .map(|i| {
                let p = (rand() % 3) as usize;
                let k = format!("shared-prefix-{:06}", rand() % 120);
                (p, k, i)
            })
            .collect();
        let fast = sort_and_bucket(batch.clone(), 3, true, &counters);
        let slow = sort_and_bucket_comparison(batch, 3);
        assert_eq!(fast, slow);
        assert!(counters.get(kernel_keys::SORT_COMPARISON_FALLBACKS) > 0);

        // u64 keys: prefix IS the key — passes run, no unsorted tie runs.
        let counters = Counters::new();
        let batch: Vec<(usize, u64, u64)> = (0..500)
            .map(|i| ((rand() % 2) as usize, rand() % 100_000, i))
            .collect();
        let fast = sort_and_bucket(batch.clone(), 2, true, &counters);
        let slow = sort_and_bucket_comparison(batch, 2);
        assert_eq!(fast, slow);
        assert!(counters.get(kernel_keys::SORT_RADIX_PASSES) > 0);
        assert_eq!(counters.get(kernel_keys::SORT_COMPARISON_FALLBACKS), 0);
    }

    #[test]
    fn radix_sort_run_edge_cases() {
        // Empty and singleton runs cost nothing.
        let mut run: Vec<(u64, u64)> = vec![];
        assert_eq!(radix_sort_run(&mut run), (0, 0));
        let mut run = vec![(5u64, 0u64)];
        assert_eq!(radix_sort_run(&mut run), (0, 0));
        // All-equal keys: stability preserves emission order, no
        // fallback sort is spent on an already-ordered tie run.
        let mut run: Vec<(u64, u64)> = (0..200).map(|i| (7u64, i)).collect();
        let (_, fallbacks) = radix_sort_run(&mut run);
        assert_eq!(fallbacks, 0);
        assert_eq!(run, (0..200).map(|i| (7u64, i)).collect::<Vec<_>>());
        // Signed keys cross the negative/positive boundary correctly.
        let mut run: Vec<(i64, u64)> = (0..200i64)
            .map(|i| (if i % 2 == 0 { -i } else { i }, i as u64))
            .collect();
        let mut expect = run.clone();
        radix_sort_run(&mut run);
        expect.sort_by_key(|a| a.0);
        assert_eq!(run, expect);
    }

    #[test]
    fn sort_buffer_spills_when_full() {
        let counters = Counters::new();
        let p = HashPartitioner;
        let mut buf: SortSpillBuffer<'_, u64, u64> =
            SortSpillBuffer::new(256, 2, &p, false, pool(), counters.clone());
        for i in 0..200u64 {
            buf.emit(i % 37, i);
        }
        let segs = buf.finish();
        assert_eq!(segs.len(), 2);
        assert!(counters.get(keys::MAP_SPILLS) > 1, "tiny buffer must spill");
        assert_eq!(counters.get(keys::MAP_OUTPUT_RECORDS), 200);
        // All records preserved, each segment sorted.
        let mut n = 0;
        for s in &segs {
            let pairs: Vec<(u64, u64)> = s.to_pairs();
            assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));
            n += pairs.len();
        }
        assert_eq!(n, 200);
    }

    #[test]
    fn partitioning_respects_partitioner() {
        let counters = Counters::new();
        let p = crate::task::FnPartitioner::new(|k: &u64, n| (*k as usize) % n);
        let mut buf: SortSpillBuffer<'_, u64, String> =
            SortSpillBuffer::new(1 << 20, 3, &p, false, pool(), counters);
        for i in 0..60u64 {
            buf.emit(i, format!("v{i}"));
        }
        let segs = buf.finish();
        for (pi, s) in segs.iter().enumerate() {
            for (k, _) in s.to_pairs::<u64, String>() {
                assert_eq!(k as usize % 3, pi);
            }
        }
    }

    #[test]
    fn reduce_merge_groups_by_key() {
        let counters = Counters::new();
        let seg1 = Segment::from_pairs(&[(1u64, 10u64), (2, 20)], false);
        let seg2 = Segment::from_pairs(&[(1u64, 11u64), (3, 30)], false);
        let grouped = reduce_merge::<u64, u64>(vec![seg1, seg2], 10, &counters);
        assert_eq!(
            grouped,
            vec![(1, vec![10, 11]), (2, vec![20]), (3, vec![30])]
        );
        assert_eq!(counters.get(keys::SHUFFLE_RECORDS), 4);
        assert_eq!(counters.get(keys::REDUCE_INPUT_GROUPS), 3);
        assert_eq!(counters.get(keys::REDUCE_MERGE_PASSES), 0);
        assert_eq!(counters.get(keys::SHUFFLE_SEGMENTS_RAW), 2);
        assert_eq!(counters.get(keys::SHUFFLE_SEGMENTS_COMPRESSED), 0);
    }

    #[test]
    fn reduce_merge_multipass_when_many_segments() {
        let counters = Counters::new();
        let segments: Vec<Segment> = (0..20u64)
            .map(|s| Segment::from_pairs(&[(s, s * 100), (s + 100, s)], false))
            .collect();
        let grouped = reduce_merge::<u64, u64>(segments, 4, &counters);
        assert_eq!(grouped.len(), 40);
        assert!(
            counters.get(keys::REDUCE_MERGE_PASSES) >= 4,
            "20 segments at factor 4 need multiple passes, got {}",
            counters.get(keys::REDUCE_MERGE_PASSES)
        );
        assert!(counters.get(keys::REDUCE_MERGE_BYTES) > 0);
        // Sorted overall.
        let ks: Vec<u64> = grouped.iter().map(|(k, _)| *k).collect();
        let mut sorted = ks.clone();
        sorted.sort_unstable();
        assert_eq!(ks, sorted);
    }

    #[test]
    fn fewer_segments_than_factor_means_no_extra_pass() {
        let counters = Counters::new();
        let segments: Vec<Segment> = (0..5u64)
            .map(|s| Segment::from_pairs(&[(s, s)], false))
            .collect();
        let _ = reduce_merge::<u64, u64>(segments, 10, &counters);
        assert_eq!(counters.get(keys::REDUCE_MERGE_PASSES), 0);
    }

    #[test]
    fn finish_partitions_share_one_backing() {
        // The zero-copy contract of the map side: a map task's segments
        // are windows of ONE backing, and a segment clone shares it —
        // pointer identity, no payload copy.
        let counters = Counters::new();
        let p = crate::task::FnPartitioner::new(|k: &u64, n| (*k as usize) % n);
        let mut buf: SortSpillBuffer<'_, u64, u64> =
            SortSpillBuffer::new(256, 4, &p, false, pool(), counters);
        for i in 0..300u64 {
            buf.emit(i, i * 7);
        }
        let segs = buf.finish();
        assert_eq!(segs.len(), 4);
        for pair in segs.windows(2) {
            assert!(
                pair[0].data.same_backing(&pair[1].data),
                "partition segments must slice one backing"
            );
        }
        let fetched = segs[0].clone();
        assert!(
            fetched.data.same_backing(&segs[0].data),
            "a segment clone must not copy the payload"
        );
    }

    #[test]
    fn spill_arena_recycles_buffers() {
        let counters = Counters::new();
        let mut arena = SpillArena::new(counters.clone());
        let a = arena.acquire(1024);
        arena.release(a);
        let b = arena.acquire(512);
        arena.release(b);
        let _c = arena.acquire(2048);
        assert_eq!(counters.get(keys::SPILL_ALLOCS), 3);
        assert_eq!(counters.get(keys::SPILL_REUSED), 2);
        assert_eq!(counters.get(keys::SPILL_EVICTED), 0);
    }

    #[test]
    fn spill_arena_free_list_is_capped() {
        let counters = Counters::new();
        let mut arena = SpillArena::with_cap(counters.clone(), 2);
        let bufs: Vec<Vec<u8>> = (0..5).map(|_| arena.acquire(64)).collect();
        for b in bufs {
            arena.release(b);
        }
        // 2 held, 3 dropped at the cap.
        assert_eq!(counters.get(keys::SPILL_EVICTED), 3);
        let _ = arena.acquire(64);
        let _ = arena.acquire(64);
        assert_eq!(counters.get(keys::SPILL_REUSED), 2);
    }

    #[test]
    fn shuffle_roundtrip_compression_on_off() {
        // End-to-end sort-spill-merge → reduce fetch, with the codec on
        // and off: grouped output must be identical either way.
        let p = HashPartitioner;
        let mut outputs = Vec::new();
        for comp in [false, true] {
            let counters = Counters::new();
            let mut buf: SortSpillBuffer<'_, String, u64> =
                SortSpillBuffer::new(512, 3, &p, comp, pool(), counters.clone());
            for i in 0..400u64 {
                buf.emit(format!("key{:03}", i % 40), i);
            }
            let segs = buf.finish();
            if comp {
                assert!(
                    segs.iter().any(|s| s.is_compressed()),
                    "repetitive keys above the threshold must compress"
                );
            } else {
                assert!(segs.iter().all(|s| !s.is_compressed()));
            }
            let mut grouped = Vec::new();
            for seg in segs {
                grouped.extend(reduce_merge::<String, u64>(vec![seg], 4, &counters));
            }
            grouped.sort();
            assert_eq!(counters.get(keys::SHUFFLE_RECORDS), 400);
            outputs.push(grouped);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0].len(), 40);
    }

    #[test]
    fn spill_count_does_not_change_segments() {
        // The determinism contract of the overlapped pipeline: the same
        // emit stream must merge to byte-identical segments whether a
        // tiny buffer spilled it through the pool many times or one
        // large buffer spilled it once, codec on or off.
        let p = HashPartitioner;
        let emit_all = |buf: &mut SortSpillBuffer<'_, String, u64>| {
            for i in 0..600u64 {
                buf.emit(format!("key{:03}", i % 53), i);
            }
        };
        for comp in [false, true] {
            let once = {
                let counters = Counters::new();
                let mut buf = SortSpillBuffer::new(1 << 20, 3, &p, comp, pool(), counters.clone());
                emit_all(&mut buf);
                let segs = buf.finish();
                assert_eq!(counters.get(keys::MAP_SPILLS), 1);
                segs
            };
            let many = {
                let pool = pool();
                let counters = Counters::new();
                let mut buf =
                    SortSpillBuffer::new(512, 3, &p, comp, pool.clone(), counters.clone());
                emit_all(&mut buf);
                let segs = buf.finish();
                assert!(
                    counters.get(keys::SPILL_POOL_JOBS) > 1,
                    "tiny buffer must spill through the pool"
                );
                assert_eq!(
                    counters.get(keys::SPILL_POOL_JOBS),
                    counters.get(keys::MAP_SPILLS)
                );
                assert_eq!(pool.jobs_run(), counters.get(keys::SPILL_POOL_JOBS));
                segs
            };
            assert_eq!(once.len(), many.len());
            for (o, m) in once.iter().zip(&many) {
                assert_eq!(o.codec, m.codec);
                assert_eq!(o.records, m.records);
                assert_eq!(o.raw_len, m.raw_len);
                assert_eq!(&o.data[..], &m.data[..], "merged payloads must match");
            }
        }
    }
}
