//! # gesall-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (§4 + appendices), each returning a printable report.
//!
//! Two kinds of experiments:
//!
//! * [`sim_experiments`] — paper-scale timing studies (Tables 2, 4–7;
//!   Figures 5, 6b, 7, 10) reproduced through the `gesall-sim` cost
//!   model parameterised by the paper's cluster/workload specs;
//! * [`real_experiments`] — correctness/accuracy studies (Table 8,
//!   Fig. 11, Tables 9/10, Fig. 6a) executed for real at mini scale on
//!   synthetic genomes through the full platform stack.
//!
//! Plus [`smoke`] — the tiny traced end-to-end run behind
//! `just bench-smoke`, which emits `BENCH_smoke.json` and fails if any
//! of the six phase timings is missing.
//! And [`micro`] — the kernel and codec microbenches behind
//! `just bench-micro`, which append to `BENCH_micro.json`.
//!
//! Run everything with `cargo run -p gesall-bench --release --bin
//! experiments -- all`.

pub mod micro;
pub mod real_experiments;
pub mod report;
pub mod sim_experiments;
pub mod smoke;
