//! Synthetic GWAS data and input-file handling for the SparkScore
//! reproduction.
//!
//! Replaces the paper's R data-generation scripts (§III): exponential
//! survival times, Bernoulli event indicators, Binomial(2, ρ) genotypes,
//! exponential SNP-set sizes with leftover augmentation — plus the
//! line-oriented text formats the distributed pipeline ingests from the
//! DFS and the parsers its map tasks use.

pub mod config;
pub mod io;
pub mod packed;
pub mod synth;

pub use config::{SyntheticConfig, WeightScheme};
pub use io::{write_dataset_to_dfs, DatasetPaths};
pub use packed::GenotypeBlock;
pub use synth::{GwasDataset, SnpRow};
