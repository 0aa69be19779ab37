//! # gesall-perfbench
//!
//! The repository's performance benchmark: three seeded workloads run
//! through the platform's public API, end-to-end metrics from untraced
//! runs, and a per-layer ledger from traced runs. See `README.md` in
//! this directory for the workloads, metrics and how to run it.

pub mod checks;
pub mod inputs;
pub mod ledger;
pub mod probes;
pub mod spec;
pub mod workloads;

use checks::Checks;
use gesall_telemetry::Json;
use inputs::{Setup, PAIRS_PER_JOB};
use probes::CallerCheck;
use spec::Workload;
use std::time::{Duration, Instant};
use workloads::{Runner, NODES, SLOTS_PER_NODE};

/// Set-ups per benchmark run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Timed runs per benchmark run, at the least, however long they take.
pub const MIN_RUNS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`;
    /// every flag is required.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|s| *s > 0)
                            .ok_or_else(|| format!("bad seconds {value}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a benchmark run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let mut metrics = Json::obj();
        for (name, value, unit) in &self.metrics {
            let value = if value.is_finite() { *value } else { 0.0 };
            metrics = metrics.field(name, Json::obj().field("value", value).field("unit", *unit));
        }
        Json::obj()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
            .render()
    }
}

pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// (steal, total) CPU ticks of the machine so far, from `/proc/stat`.
/// Steal is time the hypervisor ran something else while this machine's
/// CPUs had work: it slows every timed run without showing in its code.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Run one benchmark: set up `SETUPS` times, run the workload for
/// `args.seconds` (at least `MIN_RUNS` runs), check every output, and
/// report. With `args.trace`, every other run is traced and the report
/// is the per-layer ledger. Progress and tables go to stderr.
pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let w = args.workload;

    let mut setup_s = Vec::new();
    let mut index_build_s = Vec::new();
    let mut input_digests = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        // The previous set-up is dropped first, so set-ups do not stack.
        drop(setup.take());
        let s = Setup::run(w, args.seed);
        setup_s.push(s.setup_s);
        index_build_s.push(s.index_build_s);
        input_digests.push(s.inputs.digest());
        setup = Some(s);
    }
    let setup = setup.expect("SETUPS > 0");
    checks.same_outputs(&input_digests);
    let (mut runner, warm_up_s) = Runner::prepare(w, &setup, &mut checks);
    let setup_median_s = median(&setup_s) + warm_up_s;
    eprintln!(
        "{} seed {}: {} pairs, set-up {:.3} s (index build {:.3} s, warm-up {:.3} s)",
        w.name(),
        args.seed,
        setup.inputs.pairs.len(),
        setup_median_s,
        median(&index_build_s),
        warm_up_s
    );

    let budget = Duration::from_secs(args.seconds);
    let ticks_before = cpu_ticks();
    let t0 = Instant::now();
    let mut runs = Vec::new();
    // The allocator keeps memory a run freed, so the process high-water
    // mark climbs with the number of runs until it plateaus; the peak is
    // taken after the first run, which every benchmark run makes.
    let mut first_run_peak_mb = 0.0;
    loop {
        let traced = args.trace && runs.len() % 2 == 1;
        let run = runner.run(&setup, traced, &mut checks);
        eprintln!(
            "  run {}{}: {:.3} s, speculative backups {} launched / {} wasted",
            runs.len() + 1,
            if traced { " (traced)" } else { "" },
            run.wall_s,
            run.spec_launched,
            run.spec_wasted
        );
        runs.push(run);
        if runs.len() == 1 {
            first_run_peak_mb = peak_rss_mb();
        }
        let elapsed = t0.elapsed();
        let per_run = elapsed / runs.len() as u32;
        if runs.len() >= MIN_RUNS && elapsed + per_run > budget {
            break;
        }
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        eprintln!(
            "  host steal {:.1}% of CPU time during the timed runs",
            100.0 * steal
        );
    }
    let digests: Vec<u64> = runs.iter().map(|r| r.digest).collect();
    checks.same_outputs(&digests);

    let untraced: Vec<f64> = runs
        .iter()
        .filter(|r| r.trace.is_none())
        .map(|r| r.wall_s)
        .collect();
    let mut metrics = Vec::new();
    if args.trace {
        let traced_walls: Vec<f64> = runs
            .iter()
            .filter(|r| r.trace.is_some())
            .map(|r| r.wall_s)
            .collect();
        let layer = match runs.iter().find_map(|r| r.trace.as_ref()) {
            Some(trace) => {
                let (pipeline_pairs, caller): (&[_], CallerCheck) = match w {
                    Workload::ColdHc => (&setup.inputs.pairs, CallerCheck::HaplotypeCaller),
                    Workload::RerunUg => (&setup.inputs.pairs, CallerCheck::UnifiedGenotyper),
                    Workload::Tenants2 => (&setup.inputs.pairs[..PAIRS_PER_JOB], CallerCheck::None),
                };
                let probes = probes::run(
                    &setup,
                    pipeline_pairs,
                    w.partitions(),
                    &trace.outputs,
                    caller,
                    &mut checks,
                );
                let slots = NODES * SLOTS_PER_NODE;
                let layer = ledger::metrics(
                    trace,
                    &probes,
                    median(&index_build_s),
                    median(&untraced),
                    median(&traced_walls),
                    slots,
                );
                eprint!("{}", ledger::table(w.name(), trace, &probes, &layer, slots));
                layer
            }
            None => {
                checks.fail("no traced run completed".to_string());
                Default::default()
            }
        };
        for (name, unit) in spec::per_layer() {
            let value = layer.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, value, unit));
        }
    } else {
        let wall_s = median(&untraced);
        let latencies: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.job_latencies_s.iter().copied())
            .collect();
        let values = [
            wall_s,
            w.pairs_per_run() as f64 / wall_s,
            median(&latencies),
            setup_median_s,
            first_run_peak_mb,
        ];
        for ((name, unit), value) in spec::END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), value, *unit));
        }
    }
    for msg in &checks.messages {
        eprintln!("CHECK FAILED: {msg}");
    }
    eprintln!(
        "{} runs, {} attempted, {} failed (failed_frac {:.4})",
        runs.len(),
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    Outcome {
        correct: checks.correct(),
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    }
}
