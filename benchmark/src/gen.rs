//! Input generation: cohorts and query schedules as pure functions of the
//! seed.
//!
//! The generator is the benchmark's own (not `sparkscore_data::synth`), so
//! no change to the program can alter the inputs it is measured on. It
//! follows the paper's §III recipe — exponential survival times, Bernoulli
//! events, Binomial(2, ρ) genotypes — with one deliberate difference: SNP-set
//! *sizes* follow a fixed pattern and only the *membership* is shuffled by
//! the seed. Per-query cost depends on set size, so every seed presents the
//! same cost distribution and run-to-run spread measures the program, not
//! the draw.

use sparkscore_data::{GwasDataset, SnpRow, SyntheticConfig, WeightScheme};
use sparkscore_stats::{SnpSet, Survival};

/// SplitMix64: small, seedable, and good enough for synthetic genotypes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (the modulo bias is far below anything a
    /// benchmark input could show).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal by Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An independent stream seed for purpose `stream` under `seed`.
pub fn substream(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Dimensions of one generated cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohortShape {
    pub patients: usize,
    pub snps: usize,
    /// Number of SNP-sets; a multiple of four that divides `snps`.
    pub sets: usize,
}

/// One generated cohort: the survival dataset the program's loaders take,
/// plus a quantitative trait over the same patients for the affine-model
/// workload.
pub struct Cohort {
    pub dataset: GwasDataset,
    pub quantitative: Vec<f64>,
}

/// Set sizes cycle through ½, 1, 1½, 1 times the mean, so every seed has
/// the same multiset of sizes.
fn set_sizes(shape: CohortShape) -> Vec<usize> {
    assert!(
        shape.sets.is_multiple_of(4) && shape.snps.is_multiple_of(shape.sets),
        "sets must be a multiple of four dividing snps"
    );
    let mean = shape.snps / shape.sets;
    assert!(
        mean >= 2 && mean.is_multiple_of(2),
        "mean set size must be even"
    );
    (0..shape.sets)
        .map(|k| match k % 4 {
            0 => mean / 2,
            2 => mean + mean / 2,
            _ => mean,
        })
        .collect()
}

pub fn cohort(shape: CohortShape, seed: u64) -> Cohort {
    let mut rng = Rng::new(substream(seed, 1));
    let phenotypes: Vec<Survival> = (0..shape.patients)
        .map(|_| Survival {
            // Exponential with mean 12 months; 85% observed events.
            time: -12.0 * (1.0 - rng.unit()).ln(),
            event: rng.unit() < 0.85,
        })
        .collect();
    let quantitative: Vec<f64> = (0..shape.patients).map(|_| rng.normal()).collect();

    let mut genotypes = Vec::with_capacity(shape.snps);
    let mut weights = Vec::with_capacity(shape.snps);
    for id in 0..shape.snps {
        let maf = 0.05 + 0.45 * rng.unit();
        let dosages = (0..shape.patients)
            .map(|_| u8::from(rng.unit() < maf) + u8::from(rng.unit() < maf))
            .collect();
        genotypes.push(SnpRow {
            id: id as u64,
            dosages,
        });
        // The SKAT default Beta(1, 25) density of the allele frequency.
        weights.push(25.0 * (1.0 - maf).powi(24));
    }

    let mut deck: Vec<usize> = (0..shape.snps).collect();
    rng.shuffle(&mut deck);
    let mut cursor = 0;
    let sets = set_sizes(shape)
        .into_iter()
        .enumerate()
        .map(|(id, size)| {
            let mut members = deck[cursor..cursor + size].to_vec();
            cursor += size;
            members.sort_unstable();
            SnpSet::new(id as u64, members)
        })
        .collect();

    Cohort {
        dataset: GwasDataset {
            config: SyntheticConfig {
                patients: shape.patients,
                snps: shape.snps,
                snp_sets: shape.sets,
                mean_survival: 12.0,
                event_rate: 0.85,
                maf_range: (0.05, 0.5),
                weights: WeightScheme::skat_default(),
                seed,
            },
            phenotypes,
            genotypes,
            weights,
            sets,
        },
        quantitative,
    }
}

/// What a service workload asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMix {
    /// Observed-score queries only.
    Observed,
    /// One fixed-B Monte-Carlo query to every three adaptive ones.
    MonteCarlo,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    Observed,
    McFixed,
    McAdaptive,
}

/// One scheduled query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Index into the service's tenant list.
    pub tenant: usize,
    pub set: u64,
    pub kind: QueryKind,
    /// Multiplier seed (unused by observed queries).
    pub mc_seed: u64,
}

pub const TENANTS: usize = 3;

/// An endless query schedule: `query(i)` is a pure function of the seed
/// and `i`, so a run that got further simply saw a longer prefix.
pub struct Schedule {
    mix: QueryMix,
    set_order: Vec<u64>,
    mc_seeds: [u64; 2],
}

impl Schedule {
    pub fn new(seed: u64, mix: QueryMix, num_sets: usize) -> Self {
        let mut set_order: Vec<u64> = (0..num_sets as u64).collect();
        Rng::new(substream(seed, 2)).shuffle(&mut set_order);
        Schedule {
            mix,
            set_order,
            mc_seeds: [substream(seed, 3), substream(seed, 4)],
        }
    }

    /// Tenants rotate per query. Observed queries walk the shuffled set
    /// order one set per query. Monte-Carlo queries ask each set four times
    /// in a row — one fixed-B query, then three adaptive ones — alternating
    /// between the two pooled seeds, so multiplier tiles are both reused
    /// and newly drawn. One fixed query in four keeps the two latency modes
    /// apart: the median sits inside the adaptive mode and the p95 inside
    /// the fixed-B mode, instead of on the edge between them.
    pub fn query(&self, i: u64) -> Query {
        let tenant = (i % TENANTS as u64) as usize;
        let sets = self.set_order.len() as u64;
        match self.mix {
            QueryMix::Observed => Query {
                tenant,
                set: self.set_order[(i % sets) as usize],
                kind: QueryKind::Observed,
                mc_seed: 0,
            },
            QueryMix::MonteCarlo => Query {
                tenant,
                set: self.set_order[(i / 4 % sets) as usize],
                kind: if i.is_multiple_of(4) {
                    QueryKind::McFixed
                } else {
                    QueryKind::McAdaptive
                },
                mc_seed: self.mc_seeds[(i % 2) as usize],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: CohortShape = CohortShape {
        patients: 40,
        snps: 96,
        sets: 8,
    };

    #[test]
    fn same_seed_same_schedule_different_seed_different_schedule() {
        for mix in [QueryMix::Observed, QueryMix::MonteCarlo] {
            let a: Vec<Query> = (0..200)
                .map(|i| Schedule::new(7, mix, 40).query(i))
                .collect();
            let b: Vec<Query> = (0..200)
                .map(|i| Schedule::new(7, mix, 40).query(i))
                .collect();
            let c: Vec<Query> = (0..200)
                .map(|i| Schedule::new(8, mix, 40).query(i))
                .collect();
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn monte_carlo_schedule_is_one_fixed_in_four_over_two_seeds() {
        let s = Schedule::new(3, QueryMix::MonteCarlo, 12);
        let q: Vec<Query> = (0..8).map(|i| s.query(i)).collect();
        assert_eq!(q[0].kind, QueryKind::McFixed);
        assert!(q[1..4].iter().all(|x| x.kind == QueryKind::McAdaptive));
        assert_eq!(q[4].kind, QueryKind::McFixed);
        assert_ne!(q[0].mc_seed, q[1].mc_seed);
        assert_eq!(q[0].mc_seed, q[2].mc_seed);
        assert!(q[..4].iter().all(|x| x.set == q[0].set));
        assert_ne!(q[4].set, q[0].set);
    }

    #[test]
    fn cohort_is_a_function_of_the_seed_with_fixed_set_sizes() {
        let a = cohort(SHAPE, 5);
        let b = cohort(SHAPE, 5);
        let c = cohort(SHAPE, 6);
        assert_eq!(a.dataset.genotypes, b.dataset.genotypes);
        assert_eq!(a.dataset.sets, b.dataset.sets);
        assert_eq!(a.quantitative, b.quantitative);
        assert_ne!(a.dataset.genotypes, c.dataset.genotypes);
        assert_ne!(a.dataset.sets, c.dataset.sets);
        let sizes = |co: &Cohort| co.dataset.sets.iter().map(|s| s.len()).collect::<Vec<_>>();
        assert_eq!(sizes(&a), sizes(&c));
        assert_eq!(sizes(&a), vec![6, 12, 18, 12, 6, 12, 18, 12]);
        let mut all: Vec<usize> = a
            .dataset
            .sets
            .iter()
            .flat_map(|s| s.members.clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..96).collect::<Vec<_>>(), "sets partition the SNPs");
        assert!(a
            .dataset
            .genotypes
            .iter()
            .all(|r| r.dosages.len() == 40 && r.dosages.iter().all(|&d| d <= 2)));
    }
}
