//! Output checks. Every pipeline or job the benchmark attempts is
//! checked; a failed pipeline or a failed check counts against
//! `failed`, and any failure makes the run incorrect.

use gesall_core::pipeline::PipelineOutput;
use gesall_dfs::checksum::xxh64;
use gesall_formats::vcf;
use gesall_formats::wire::Wire;
use gesall_tools::sort_sam::is_coordinate_sorted;
use std::fmt::Display;

/// Running tally of attempted work and failures.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

/// An order-sensitive digest over a sequence of values.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OutputDigest(u64);

impl OutputDigest {
    pub fn add(&mut self, v: u64) {
        let mut buf = self.0.to_le_bytes().to_vec();
        buf.extend_from_slice(&v.to_le_bytes());
        self.0 = xxh64(&buf);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of a pipeline's records and variants.
pub fn output_digest(out: &PipelineOutput) -> u64 {
    let mut buf = Vec::new();
    for r in &out.records {
        r.encode(&mut buf);
    }
    buf.extend_from_slice(vcf::to_text(&out.variants).as_bytes());
    xxh64(&buf)
}

impl Checks {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.messages.push(msg);
    }

    /// One attempted check.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(msg());
        }
    }

    /// One attempted pipeline over `n_pairs` read pairs: it must succeed
    /// and return 2 records per pair in coordinate order. Returns the
    /// output's digest (0 when the pipeline failed).
    pub fn pipeline<E: Display>(
        &mut self,
        label: &str,
        out: Result<&PipelineOutput, &E>,
        n_pairs: usize,
    ) -> OutputDigest {
        self.attempted += 1;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                self.fail(format!("{label} failed: {e}"));
                return OutputDigest::default();
            }
        };
        let problem = if out.records.len() != 2 * n_pairs {
            Some(format!(
                "{label}: {} records for {n_pairs} pairs",
                out.records.len()
            ))
        } else if !is_coordinate_sorted(&out.records) {
            Some(format!("{label}: records are not coordinate-sorted"))
        } else {
            None
        };
        if let Some(msg) = problem {
            self.fail(msg);
        }
        OutputDigest(output_digest(out))
    }

    /// A run that invalidated `stage` must serve every stage before it
    /// from the cache and execute it and every stage after it.
    pub fn rerun_pattern(&mut self, out: &PipelineOutput, stage: &str) {
        let Some(pos) = out.stages.iter().position(|s| s.name == stage) else {
            self.check(false, || {
                format!("invalidated stage {stage} missing from the run")
            });
            return;
        };
        let ok = out
            .stages
            .iter()
            .enumerate()
            .all(|(i, s)| s.cache_hit == (i < pos));
        self.check(ok, || {
            let pattern: Vec<String> = out
                .stages
                .iter()
                .map(|s| format!("{}={}", s.name, if s.cache_hit { "hit" } else { "miss" }))
                .collect();
            format!("re-run cache pattern is wrong: {}", pattern.join(" "))
        });
    }

    /// Every run of a workload must produce the same output.
    pub fn same_outputs(&mut self, digests: &[u64]) {
        let distinct = {
            let mut d = digests.to_vec();
            d.sort_unstable();
            d.dedup();
            d.len()
        };
        self.check(distinct <= 1, || {
            format!("{distinct} distinct outputs over {} runs", digests.len())
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}
