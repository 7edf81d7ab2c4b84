//! Genomic coordinates: SNP loci, gene regions, and SNP-set construction
//! by positional containment.
//!
//! The paper's §II: "A SNP is typically represented as a pair (chr, pos)
//! … A gene can be represented as a triplet (chr, start, end) … each
//! SNP-set [contains] all SNPs j whose positions lie within gene k."
//! This module implements exactly that mapping, so analyses can be driven
//! by annotation instead of the synthetic arbitrary partition.

use sparkscore_stats::skat::SnpSet;

/// A SNP locus `(chr, pos)` plus its dense index in the genotype matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnpLocus {
    pub index: usize,
    pub chromosome: u8,
    pub position: u64,
}

/// A gene region `(chr, start, end)`, inclusive on both ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneRegion {
    pub id: u64,
    pub name: String,
    pub chromosome: u8,
    pub start: u64,
    pub end: u64,
}

impl GeneRegion {
    pub fn new(id: u64, name: impl Into<String>, chromosome: u8, start: u64, end: u64) -> Self {
        assert!(start <= end, "gene region start must not exceed end");
        GeneRegion {
            id,
            name: name.into(),
            chromosome,
            start,
            end,
        }
    }

    /// Containment by definition: the oracle the binary-search
    /// construction below is tested against.
    #[cfg(test)]
    fn contains(&self, chromosome: u8, position: u64) -> bool {
        self.chromosome == chromosome && (self.start..=self.end).contains(&position)
    }
}

/// Build one SNP-set per gene: all loci whose position lies within the
/// gene's region. Genes that contain no SNP are dropped (SNP-sets must be
/// non-empty); overlapping genes share SNPs, matching real annotation.
/// Loci are binary-searched per chromosome, so construction is
/// O((L + G) log L) rather than O(L·G).
pub fn snp_sets_from_genes(loci: &[SnpLocus], genes: &[GeneRegion]) -> Vec<SnpSet> {
    // Sort loci by (chr, pos) once.
    let mut sorted: Vec<&SnpLocus> = loci.iter().collect();
    sorted.sort_by_key(|l| (l.chromosome, l.position));
    genes
        .iter()
        .filter_map(|gene| {
            let lo = sorted
                .partition_point(|l| (l.chromosome, l.position) < (gene.chromosome, gene.start));
            let hi = sorted
                .partition_point(|l| (l.chromosome, l.position) <= (gene.chromosome, gene.end));
            if lo == hi {
                return None;
            }
            let mut members: Vec<usize> = sorted[lo..hi].iter().map(|l| l.index).collect();
            members.sort_unstable();
            Some(SnpSet::new(gene.id, members))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locus(index: usize, chr: u8, pos: u64) -> SnpLocus {
        SnpLocus {
            index,
            chromosome: chr,
            position: pos,
        }
    }

    #[test]
    fn containment_respects_chromosome_and_bounds() {
        let g = GeneRegion::new(0, "BRCA2-like", 13, 100, 200);
        assert!(g.contains(13, 100));
        assert!(g.contains(13, 200));
        assert!(g.contains(13, 150));
        assert!(!g.contains(13, 99));
        assert!(!g.contains(13, 201));
        assert!(!g.contains(12, 150));
    }

    #[test]
    #[should_panic(expected = "start must not exceed end")]
    fn inverted_region_rejected() {
        let _ = GeneRegion::new(0, "bad", 1, 10, 5);
    }

    #[test]
    fn sets_built_by_position() {
        let loci = vec![
            locus(0, 1, 50),
            locus(1, 1, 150),
            locus(2, 1, 250),
            locus(3, 2, 150), // same position, different chromosome
        ];
        let genes = vec![
            GeneRegion::new(0, "geneA", 1, 100, 300),
            GeneRegion::new(1, "geneB", 2, 100, 200),
            GeneRegion::new(2, "desert", 3, 0, 1_000_000),
        ];
        let sets = snp_sets_from_genes(&loci, &genes);
        assert_eq!(sets.len(), 2, "the empty desert gene is dropped");
        assert_eq!(sets[0].id, 0);
        assert_eq!(sets[0].members, vec![1, 2]);
        assert_eq!(sets[1].id, 1);
        assert_eq!(sets[1].members, vec![3]);
    }

    #[test]
    fn overlapping_genes_share_snps() {
        let loci = vec![locus(0, 1, 100), locus(1, 1, 120)];
        let genes = vec![
            GeneRegion::new(0, "left", 1, 90, 110),
            GeneRegion::new(1, "wide", 1, 50, 500),
        ];
        let sets = snp_sets_from_genes(&loci, &genes);
        assert_eq!(sets[0].members, vec![0]);
        assert_eq!(sets[1].members, vec![0, 1]);
    }

    #[test]
    fn unsorted_loci_are_handled() {
        let loci = vec![locus(5, 1, 300), locus(2, 1, 100), locus(9, 1, 200)];
        let genes = vec![GeneRegion::new(7, "g", 1, 100, 250)];
        let sets = snp_sets_from_genes(&loci, &genes);
        assert_eq!(sets[0].members, vec![2, 9], "indices sorted in output");
    }

    #[test]
    fn matches_naive_containment_scan() {
        // Cross-check the binary-search construction against the O(L·G)
        // definition on a deterministic pseudo-random layout.
        let loci: Vec<SnpLocus> = (0..200)
            .map(|i| locus(i, (i % 5) as u8, ((i * 37) % 1000) as u64))
            .collect();
        let genes: Vec<GeneRegion> = (0..20)
            .map(|k| {
                let start = (k * 53 % 900) as u64;
                GeneRegion::new(k as u64, format!("g{k}"), (k % 5) as u8, start, start + 120)
            })
            .collect();
        let fast = snp_sets_from_genes(&loci, &genes);
        for gene in &genes {
            let mut naive: Vec<usize> = loci
                .iter()
                .filter(|l| gene.contains(l.chromosome, l.position))
                .map(|l| l.index)
                .collect();
            naive.sort_unstable();
            let got = fast.iter().find(|s| s.id == gene.id);
            match got {
                Some(s) => assert_eq!(s.members, naive, "gene {}", gene.name),
                None => assert!(naive.is_empty(), "gene {} dropped but non-empty", gene.name),
            }
        }
    }
}
