//! Job counters — the numbers the paper's analysis keeps citing
//! ("72 million more records than the input are shuffled", "1.92× the
//! input data", spill counts, merge passes).
//!
//! The bag itself now lives in `gesall-telemetry`, backed by its
//! [`MetricsRegistry`](gesall_telemetry::MetricsRegistry): every `add`
//! is a lock-free atomic increment, and snapshots/`Debug` output are
//! deterministically sorted by key. This module keeps the well-known
//! key names and re-exports the type so engine code is unchanged.

pub use gesall_telemetry::Counters;

/// Well-known counter names.
pub mod keys {
    pub const MAP_INPUT_RECORDS: &str = "map.input.records";
    pub const MAP_OUTPUT_RECORDS: &str = "map.output.records";
    pub const MAP_OUTPUT_BYTES: &str = "map.output.bytes";
    pub const MAP_SPILLS: &str = "map.spills";
    pub const MAP_MERGE_SEGMENTS: &str = "map.merge.segments";
    pub const SHUFFLE_RECORDS: &str = "shuffle.records";
    pub const SHUFFLE_BYTES: &str = "shuffle.bytes";
    pub const SHUFFLE_BYTES_RAW: &str = "shuffle.bytes.raw";
    pub const REDUCE_INPUT_GROUPS: &str = "reduce.input.groups";
    pub const REDUCE_OUTPUT_RECORDS: &str = "reduce.output.records";
    pub const REDUCE_MERGE_PASSES: &str = "reduce.merge.passes";
    pub const REDUCE_MERGE_BYTES: &str = "reduce.merge.bytes";
    /// Nanoseconds spent converting between framework records and
    /// external-program bytes (the Fig. 6a overhead).
    pub const DATA_TRANSFORM_NANOS: &str = "wrapper.transform.nanos";
    /// Nanoseconds spent inside wrapped external programs.
    pub const EXTERNAL_PROGRAM_NANOS: &str = "wrapper.external.nanos";
    /// Payload bytes memcpy'd inside the streaming pipes (writer buffer
    /// fills, chunk churn, reader copy-outs). Kept under the `wrapper.`
    /// prefix because, like the wrapper timers, the bag it accumulates on
    /// is pipeline-cumulative rather than per-job.
    pub const WRAPPER_BYTES_COPIED: &str = "wrapper.bytes.copied";
    /// Task attempts that panicked and were retried (or aborted the job).
    pub const FAILED_ATTEMPTS: &str = "fault.failed.attempts";
    /// Speculative (backup) attempts launched for stragglers.
    pub const SPECULATIVE_LAUNCHED: &str = "fault.speculative.launched";
    /// Attempts whose committed-too-late results were discarded after a
    /// speculative race.
    pub const SPECULATIVE_WASTED: &str = "fault.speculative.wasted";
    /// Completed map tasks re-executed because the node holding their
    /// shuffle output died.
    pub const MAPS_RERUN_ON_NODE_LOSS: &str = "fault.maps.rerun.on.node.loss";
    /// Payload bytes memcpy'd on the record path (spill encode, compress,
    /// decompress, decode, segment fetch). The honest "bytes moved"
    /// gauge the zero-copy refactor is measured by.
    pub const BYTES_COPIED: &str = gesall_telemetry::mem_keys::BYTES_COPIED;
    /// Spill-scratch buffers handed out by the arena, total.
    pub const SPILL_ALLOCS: &str = gesall_telemetry::mem_keys::SPILL_ALLOCS;
    /// Spill-scratch buffers that were recycled rather than freshly
    /// allocated.
    pub const SPILL_REUSED: &str = gesall_telemetry::mem_keys::SPILL_REUSED;
    /// Released spill-scratch buffers dropped because the arena's
    /// free-list was already at its cap.
    pub const SPILL_EVICTED: &str = gesall_telemetry::mem_keys::SPILL_EVICTED;
    /// Spill batches handed to the background encoder pool.
    pub const SPILL_POOL_JOBS: &str = "spill.pool.jobs";
    /// Nanoseconds the spill-encoder pool spent executing jobs — divided
    /// by map wall-clock this is the bench-smoke overlap metric.
    pub const SPILL_POOL_BUSY_NANOS: &str = "spill.pool.busy.nanos";
    /// Spill submissions that blocked on the pool's bounded queue
    /// (backpressure events).
    pub const SPILL_POOL_SUBMIT_WAITS: &str = "spill.pool.submit.waits";
    /// Nanoseconds map tasks spent in the finish() drain barrier waiting
    /// for their outstanding async spills.
    pub const SPILL_POOL_DRAIN_WAIT_NANOS: &str = "spill.pool.drain.wait.nanos";
    /// Encoder workers the pool grew in response to sustained
    /// submit-wait pressure (autoscaling events).
    pub const SPILL_POOL_WORKERS_GROWN: &str = "spill.pool.workers.grown";
    /// Shuffle wire bytes a reducer fetched out of a DFS-transit map
    /// output (frames sliced from stored blocks). Every shuffle ships
    /// through the DFS, so every shuffled byte lands here.
    pub const SHUFFLE_BYTES_DFS: &str = "shuffle.bytes.dfs";
    /// Payload bytes memcpy'd while assembling a map output's transit
    /// file for the DFS (the one deliberate durability copy of the
    /// DFS-transit shuffle). Tracked apart from [`BYTES_COPIED`] so the
    /// zero-copy record-path gauge keeps measuring the record path, not
    /// the transit layer's by-design write.
    pub const SHUFFLE_SHIP_BYTES_COPIED: &str = "shuffle.ship.bytes.copied";
    /// Peak decoded-side resident bytes of the streaming reduce merge:
    /// decompression scratch charged on cursor activation plus the head
    /// records under the merge heap, released as runs exhaust. Bounded
    /// by `merge_factor` × source-run size, not input size — the memory
    /// contract the streaming merge exists to provide. Summed across
    /// reducers on merge.
    pub const REDUCE_PEAK_RESIDENT: &str = gesall_telemetry::mem_keys::REDUCE_PEAK_RESIDENT;
    /// Completed map tasks whose shuffle-output home died but whose
    /// DFS-shipped output survived on a replica: the reducers re-fetch
    /// instead of the engine re-running the map.
    pub const MAPS_RESHIPPED_FROM_DFS: &str = "fault.maps.reshipped.from.dfs";
    /// Shuffle fetches re-attempted at the engine level after a
    /// retryable DFS error survived the DFS's own internal retries —
    /// the second tier of the gray-failure defence.
    pub const SHUFFLE_FETCH_RETRIES: &str = "shuffle.fetch.retries";
    /// Shuffle fetch bytes served by a replica on the reducer's own
    /// node (the locality-aware replica selection hit its affinity).
    pub const SHUFFLE_FETCH_BYTES_LOCAL: &str = "shuffle.fetch.bytes.local";
    /// Shuffle fetch bytes shipped from another node — an affinity
    /// miss, a hedge win on the remote replica, or a reducer with no
    /// co-located replica at all.
    pub const SHUFFLE_FETCH_BYTES_REMOTE: &str = "shuffle.fetch.bytes.remote";
    /// Map-output partition fetches that were already resident when the
    /// reduce merge asked for them — the bounded prefetch pipeline ran
    /// ahead of the loser-tree drain.
    pub const SHUFFLE_FETCH_PREFETCHED: &str = "shuffle.fetch.prefetched";
    /// Map-output segments that travelled the shuffle uncompressed.
    pub const SHUFFLE_SEGMENTS_RAW: &str = "shuffle.segments.raw";
    /// Map-output segments that travelled the shuffle compressed (shipped
    /// by reference, decoded once at the reduce-side merge).
    pub const SHUFFLE_SEGMENTS_COMPRESSED: &str = "shuffle.segments.compressed";
    /// Nanoseconds map tasks spent in the shuffle codec compressing
    /// partitions — a sub-interval of `phase.map-merge.nanos`.
    pub const SHUFFLE_CODEC_ENCODE_NANOS: &str = "shuffle.codec.encode.nanos";
    /// Nanoseconds reducers spent in the shuffle codec decompressing
    /// segments as the merge activates them — a sub-interval of
    /// `phase.shuffle.nanos`, where the deferred decode is charged.
    pub const SHUFFLE_CODEC_DECODE_NANOS: &str = "shuffle.codec.decode.nanos";
    /// Scheduler worker-loop iterations triggered by a condvar
    /// notification (work actually arrived or state changed).
    pub const SCHED_WAKEUPS: &str = "sched.wakeups";
    /// Scheduler worker-loop iterations triggered by the wait timing out
    /// with nothing to do (the old busy-poll, now counted).
    pub const SCHED_IDLE_TIMEOUTS: &str = "sched.idle.timeouts";
    /// Bit-parallel kernel telemetry (DESIGN.md §5): packed-rank words
    /// popcounted, banded-SW hits/fallbacks, radix passes. Re-exported so
    /// engine code reads kernel counters from the same keys module as
    /// everything else.
    pub use gesall_telemetry::kernel_keys::{
        OCC_WORDS_POPCOUNTED, SORT_COMPARISON_FALLBACKS, SORT_RADIX_PASSES, SW_BANDED_HITS,
        SW_FULL_FALLBACKS,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Behavior tests for the bag itself live in gesall-telemetry; this
    // checks the re-export keeps the engine-facing contract.
    #[test]
    fn reexported_counters_keep_engine_contract() {
        let c = Counters::new();
        c.add(keys::MAP_INPUT_RECORDS, 5);
        c.add(keys::MAP_INPUT_RECORDS, 2);
        c.add(keys::MAP_SPILLS, 1);
        assert_eq!(c.get(keys::MAP_INPUT_RECORDS), 7);
        let snap = c.snapshot();
        let mut sorted = snap.clone();
        sorted.sort();
        assert_eq!(snap, sorted, "snapshot must be key-sorted");
        let other = Counters::new();
        other.add(keys::MAP_SPILLS, 3);
        c.merge(&other);
        assert_eq!(c.get(keys::MAP_SPILLS), 4);
    }
}
