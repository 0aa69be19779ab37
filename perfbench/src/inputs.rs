//! Seeded workload inputs. Genome, donor and reads all come from
//! `gesall-datagen`; the platform only ever sees the generated pairs and
//! the reference index built from the genome.

use crate::spec::Workload;
use gesall_aligner::{Aligner, AlignerConfig, ReferenceIndex};
use gesall_datagen::donor::DonorConfig;
use gesall_datagen::reads::ReadSimConfig;
use gesall_datagen::{DonorGenome, GenomeConfig, ReadSimulator, ReferenceGenome};
use gesall_dfs::checksum::xxh64;
use gesall_formats::fastq::{pairs_to_interleaved_bytes, ReadPair};
use std::sync::Arc;
use std::time::Instant;

/// Chromosome lengths of every workload's genome (0.5 + 0.4 Mb).
pub const CHROMOSOME_LENGTHS: [usize; 2] = [500_000, 400_000];

/// Read pairs the single-pipeline workloads run.
pub const PIPELINE_PAIRS: usize = 20_000;

/// `tenants-2`: tenants, jobs per tenant, and distinct pairs per job.
pub const TENANTS: usize = 2;
pub const JOBS_PER_TENANT: usize = 4;
pub const PAIRS_PER_JOB: usize = 2_000;

/// What one workload runs on.
pub struct Inputs {
    pub chroms: Vec<(String, Vec<u8>)>,
    pub pairs: Vec<ReadPair>,
}

impl Inputs {
    /// Generate a workload's genome, donor and reads from `seed`. The
    /// same seed gives the same inputs.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        Inputs::with_pairs(workload.pairs_per_run(), seed)
    }

    /// `n_pairs` read pairs on the workloads' genome, from `seed`.
    pub fn with_pairs(n_pairs: usize, seed: u64) -> Inputs {
        let genome = ReferenceGenome::generate(&GenomeConfig {
            chromosome_lengths: CHROMOSOME_LENGTHS.to_vec(),
            seed: mix(seed, 1),
            ..GenomeConfig::default()
        });
        let donor = DonorGenome::generate(
            &genome,
            &DonorConfig {
                seed: mix(seed, 2),
                ..DonorConfig::default()
            },
        );
        let (pairs, _) = ReadSimulator::new(
            &genome,
            &donor,
            ReadSimConfig {
                n_pairs,
                seed: mix(seed, 3),
                ..ReadSimConfig::default()
            },
        )
        .simulate();
        let chroms = genome
            .chromosomes
            .iter()
            .map(|c| (c.name.clone(), c.seq.clone()))
            .collect();
        Inputs { chroms, pairs }
    }

    /// Digest of the reference and the read pairs.
    pub fn digest(&self) -> u64 {
        let mut buf = Vec::new();
        for (name, seq) in &self.chroms {
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&xxh64(seq).to_le_bytes());
        }
        buf.extend_from_slice(&xxh64(&pairs_to_interleaved_bytes(&self.pairs)).to_le_bytes());
        xxh64(&buf)
    }
}

/// The workload's set-up: inputs plus the aligner's reference index,
/// with how long each part took.
pub struct Setup {
    pub inputs: Inputs,
    pub aligner: Arc<Aligner>,
    pub setup_s: f64,
    pub index_build_s: f64,
}

impl Setup {
    pub fn run(workload: Workload, seed: u64) -> Setup {
        let t0 = Instant::now();
        let inputs = Inputs::generate(workload, seed);
        let t_index = Instant::now();
        let index = ReferenceIndex::build(&inputs.chroms);
        let index_build_s = t_index.elapsed().as_secs_f64();
        let aligner = Arc::new(Aligner::new(index, AlignerConfig::default()));
        Setup {
            inputs,
            aligner,
            setup_s: t0.elapsed().as_secs_f64(),
            index_build_s,
        }
    }
}

/// Derive an independent sub-seed (splitmix64 finaliser).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
