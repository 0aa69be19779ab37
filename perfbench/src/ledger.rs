//! The per-layer ledger of a traced run: the metrics of every crate
//! layer, and the paper-style table (rounds x six phases, stage walls
//! against the run's wall with the residual).

use crate::probes::{CodecProbe, Probes, SIZE_SWEEP_MAX_FACTOR};
use crate::spec::{phase_metric, stage_short_name, STAGES};
use crate::workloads::TracedRun;
use gesall_core::pipeline::PipelineOutput;
use gesall_mapreduce::counters::keys;
use gesall_telemetry::{report, Phase, PhaseRow, Span, SpanKind};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Slot use of one group of task attempts.
#[derive(Debug, Default, Clone, Copy)]
struct SlotUse {
    busy_ms: f64,
    capacity_ms: f64,
}

impl SlotUse {
    fn idle_frac(self) -> f64 {
        if self.capacity_ms <= 0.0 {
            return 0.0;
        }
        (1.0 - self.busy_ms / self.capacity_ms).clamp(0.0, 1.0)
    }
}

/// Sum of one counter over every round of every pipeline.
pub fn counter_sum<'a>(outputs: impl IntoIterator<Item = &'a PipelineOutput>, key: &str) -> u64 {
    outputs
        .into_iter()
        .flat_map(|o| &o.rounds)
        .flat_map(|r| &r.counters)
        .filter(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .sum()
}

/// Per-stage slot use from the recorder's spans: each task attempt is
/// charged to the round span above it, and a round offers `slots` x its
/// duration.
fn slot_use(spans: &[Span], slots: usize) -> BTreeMap<&'static str, SlotUse> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id.0, s)).collect();
    let round_of = |s: &Span| -> Option<&'static str> {
        let mut cur = by_id.get(&s.parent.0).copied();
        while let Some(span) = cur {
            if span.kind == SpanKind::Round {
                return stage_short_name(&span.name);
            }
            cur = by_id.get(&span.parent.0).copied();
        }
        None
    };
    let mut out: BTreeMap<&'static str, SlotUse> = BTreeMap::new();
    for s in spans {
        match s.kind {
            SpanKind::Round => {
                if let Some(stage) = stage_short_name(&s.name) {
                    out.entry(stage).or_default().capacity_ms += slots as f64 * s.duration_ms();
                }
            }
            SpanKind::TaskAttempt => {
                if let Some(stage) = round_of(s) {
                    out.entry(stage).or_default().busy_ms += s.duration_ms();
                }
            }
            _ => {}
        }
    }
    out
}

fn attempts(spans: &[Span]) -> (usize, usize) {
    let all: Vec<&Span> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::TaskAttempt)
        .collect();
    let useful = all
        .iter()
        .filter(|s| {
            s.meta
                .iter()
                .any(|(k, v)| k == "outcome" && v == "Succeeded")
        })
        .count();
    (useful, all.len())
}

/// Stage walls in seconds, summed over every pipeline, keyed by short
/// stage name.
fn stage_walls(t: &TracedRun) -> BTreeMap<&'static str, f64> {
    let mut walls: BTreeMap<&'static str, f64> = STAGES.iter().map(|s| (*s, 0.0)).collect();
    for stage in t.outputs.iter().flat_map(|o| &o.stages) {
        if let Some(short) = stage_short_name(&stage.name) {
            *walls.entry(short).or_default() += stage.wall_ms / 1e3;
        }
    }
    walls
}

/// Every per-layer metric, by name.
pub fn metrics(
    t: &TracedRun,
    probes: &Probes,
    index_build_s: f64,
    untraced_wall_s: f64,
    traced_wall_s: f64,
    slots: usize,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), if v.is_finite() { v } else { 0.0 });
    };
    put("aligner.index_build_s", index_build_s);
    put("aligner.align_us_per_pair", probes.align_us_per_pair.full);
    put(
        "kernel.occ.words_popcounted",
        t.kernel.occ_words_popcounted as f64,
    );
    put("kernel.sw.banded_hits", t.kernel.sw_banded_hits as f64);
    put(
        "kernel.sw.full_fallbacks",
        t.kernel.sw_full_fallbacks as f64,
    );
    for (name, c) in [("lz", &probes.lz), ("seq", &probes.seq)] {
        put(
            &format!("codec.{name}.encode_ns_per_byte"),
            c.encode_ns_per_byte.full,
        );
        put(
            &format!("codec.{name}.decode_ns_per_byte"),
            c.decode_ns_per_byte.full,
        );
        put(&format!("codec.{name}.ratio"), c.ratio);
    }
    put("dfs.write_mb_per_s", probes.dfs_write_mb_per_s);
    put("dfs.read_mb_per_s", probes.dfs_read_mb_per_s);
    put("dfs.cas_get_s", t.cas_get_s);
    put("dfs.bytes_written", t.dfs_bytes_written as f64);
    put("dfs.bytes_read", t.dfs_bytes_read as f64);
    put("dfs.bytes_copied", t.dfs_bytes_copied as f64);

    for phase in Phase::ALL {
        let nanos = counter_sum(&t.outputs, phase.counter_key());
        put(&phase_metric(phase), nanos as f64 / 1e9);
    }
    put(
        "mr.shuffle.dfs_bytes",
        counter_sum(&t.outputs, keys::SHUFFLE_BYTES_DFS) as f64,
    );
    let local = counter_sum(&t.outputs, keys::SHUFFLE_FETCH_BYTES_LOCAL) as f64;
    let remote = counter_sum(&t.outputs, keys::SHUFFLE_FETCH_BYTES_REMOTE) as f64;
    put(
        "mr.shuffle.fetch_local_frac",
        local / (local + remote).max(1.0),
    );
    put(
        "mr.spec.launched",
        counter_sum(&t.outputs, keys::SPECULATIVE_LAUNCHED) as f64,
    );
    put(
        "mr.spec.wasted",
        counter_sum(&t.outputs, keys::SPECULATIVE_WASTED) as f64,
    );
    let (useful, total) = attempts(&t.spans);
    put(
        "mr.attempts.useful_frac",
        useful as f64 / total.max(1) as f64,
    );
    let per_stage = slot_use(&t.spans, slots);
    let busy_ms: f64 = per_stage.values().map(|u| u.busy_ms).sum();
    put(
        "mr.slot_idle_frac",
        SlotUse {
            busy_ms,
            capacity_ms: t.slot_capacity_s * 1e3,
        }
        .idle_frac(),
    );
    for stage in STAGES {
        let idle = per_stage
            .get(stage)
            .copied()
            .unwrap_or_default()
            .idle_frac();
        put(&format!("mr.slot_idle_frac.{stage}"), idle);
    }

    put("tools.hc_s", probes.hc_s);
    put("tools.ug_s", probes.ug_s);
    put("tools.markdup_ns_per_record", probes.markdup_ns_per_record);
    put("tools.sort_ns_per_record", probes.sort_ns_per_record);
    put(
        "tools.clean_fixmate_ns_per_record",
        probes.clean_fixmate_ns_per_record,
    );

    let walls = stage_walls(t);
    for (stage, s) in &walls {
        put(&format!("core.stage.{stage}_s"), *s);
    }
    let hits: usize = t.outputs.iter().map(|o| o.cache_hits()).sum();
    put("core.dag.cache_hits", hits as f64);
    put(
        "core.residual_s",
        t.ledger_wall_s - walls.values().sum::<f64>(),
    );

    put("jobsvc.queue_wait_s", t.queue_wait_s);
    put("jobsvc.slots_borrowed", t.slots_borrowed as f64);
    put("jobsvc.slots_reclaimed", t.slots_reclaimed as f64);
    put(
        "telemetry.overhead_frac",
        traced_wall_s / untraced_wall_s - 1.0,
    );
    m
}

/// The traced run's table in the shape of the paper's Tables 4–7.
pub fn table(
    workload: &str,
    t: &TracedRun,
    probes: &Probes,
    metrics: &BTreeMap<String, f64>,
    slots: usize,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {workload}: traced run ==");
    // Rounds x six phases (task-summed, so a row can exceed its wall on
    // a parallel cluster), summed over every pipeline of the run.
    let mut rows: BTreeMap<String, PhaseRow> = BTreeMap::new();
    for r in t.outputs.iter().flat_map(|o| &o.rounds) {
        let row = PhaseRow::from_snapshot(&r.name, r.wall_ms, &r.counters);
        let acc = rows.entry(r.name.clone()).or_insert_with(|| PhaseRow {
            label: r.name.clone(),
            wall_ms: 0.0,
            phase_ms: [0.0; 6],
        });
        acc.wall_ms += row.wall_ms;
        for (a, b) in acc.phase_ms.iter_mut().zip(row.phase_ms) {
            *a += b;
        }
    }
    let rows: Vec<PhaseRow> = rows.into_values().collect();
    let _ = writeln!(s, "rounds x phases (ms, summed over tasks; {slots} slots):");
    s.push_str(&report::phase_table(&rows));

    let _ = writeln!(s, "stage ledger (s):");
    let walls = stage_walls(t);
    for stage in STAGES {
        let w = walls[stage];
        let idle = metrics
            .get(&format!("mr.slot_idle_frac.{stage}"))
            .copied()
            .unwrap_or(0.0);
        let _ = writeln!(
            s,
            "  {stage:<14} {w:>8.3}  {:>5.1}%  slot idle {:>5.1}%",
            100.0 * w / t.ledger_wall_s,
            100.0 * idle
        );
    }
    let sum: f64 = walls.values().sum();
    let _ = writeln!(s, "  {:<14} {sum:>8.3}", "sum of stages");
    let _ = writeln!(s, "  {:<14} {:>8.3}", "residual", t.ledger_wall_s - sum);
    let _ = writeln!(s, "  {:<14} {:>8.3}", "wall", t.ledger_wall_s);
    let g = |k: &str| metrics.get(k).copied().unwrap_or(0.0);
    let _ = writeln!(
        s,
        "speculation: {} launched, {} wasted; useful attempts {:.3}",
        g("mr.spec.launched"),
        g("mr.spec.wasted"),
        g("mr.attempts.useful_frac")
    );
    let _ = writeln!(
        s,
        "telemetry.overhead_frac {:+.4}",
        g("telemetry.overhead_frac")
    );
    let _ = writeln!(
        s,
        "size sweep (half -> full, limit {SIZE_SWEEP_MAX_FACTOR}x): align {:.2} -> {:.2} us/pair over {} pairs",
        probes.align_us_per_pair.half, probes.align_us_per_pair.full, probes.align_pairs
    );
    for (name, c) in [("lz", &probes.lz), ("seq", &probes.seq)] {
        let CodecProbe {
            encode_ns_per_byte: e,
            decode_ns_per_byte: d,
            ratio,
        } = *c;
        let _ = writeln!(
            s,
            "  codec {name}: encode {:.2} -> {:.2} ns/B, decode {:.2} -> {:.2} ns/B, ratio {ratio:.3} over {} B",
            e.half, e.full, d.half, d.full, probes.codec_payload_bytes
        );
    }
    s
}
