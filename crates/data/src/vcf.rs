//! A minimal VCF (Variant Call Format) reader/writer.
//!
//! The paper's abstract: SparkScore "can be readily extended to analysis
//! of DNA and RNA sequencing data" — whose interchange format is VCF.
//! This module supports the subset needed to drive an analysis: `##`
//! meta lines, the `#CHROM` header naming the samples, and records whose
//! per-sample field starts with a diploid `GT` genotype (`0/0`, `0|1`,
//! `./.` …). Genotypes become minor-allele dosage vectors, positions
//! become [`crate::regions::SnpLocus`] coordinates for gene-based SNP-set
//! construction.

use crate::packed::GenotypeBlock;
use crate::regions::SnpLocus;
use crate::synth::SnpRow;
use sparkscore_stats::score::MISSING_DOSAGE;

/// One parsed VCF variant record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcfRecord {
    pub chromosome: u8,
    pub position: u64,
    pub id: String,
    pub reference: String,
    pub alternate: String,
    /// Dosages 0/1/2 per sample; `None` for missing calls (`./.`).
    pub dosages: Vec<Option<u8>>,
}

/// A parsed VCF: sample names and variant records in file order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcfData {
    pub samples: Vec<String>,
    pub records: Vec<VcfRecord>,
}

/// Parse failures, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VcfError {
    MissingHeader,
    MalformedHeader { line: usize },
    MalformedRecord { line: usize, reason: String },
}

impl std::fmt::Display for VcfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VcfError::MissingHeader => write!(f, "no #CHROM header line"),
            VcfError::MalformedHeader { line } => write!(f, "malformed header at line {line}"),
            VcfError::MalformedRecord { line, reason } => {
                write!(f, "malformed record at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for VcfError {}

const FIXED_COLUMNS: usize = 9; // CHROM POS ID REF ALT QUAL FILTER INFO FORMAT

/// Parse VCF text.
pub fn parse_vcf(text: &str) -> Result<VcfData, VcfError> {
    let mut samples: Option<Vec<String>> = None;
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.starts_with("##") || line.trim().is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("#CHROM") {
            let cols: Vec<&str> = header.split_whitespace().collect();
            // POS ID REF ALT QUAL FILTER INFO FORMAT then samples.
            if cols.len() < FIXED_COLUMNS - 1 {
                return Err(VcfError::MalformedHeader { line: lineno });
            }
            samples = Some(
                cols[FIXED_COLUMNS - 1..]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            );
            continue;
        }
        let Some(samples) = &samples else {
            return Err(VcfError::MissingHeader);
        };
        records.push(parse_record(line, lineno, samples.len())?);
    }
    match samples {
        Some(samples) => Ok(VcfData { samples, records }),
        None => Err(VcfError::MissingHeader),
    }
}

fn parse_record(line: &str, lineno: usize, num_samples: usize) -> Result<VcfRecord, VcfError> {
    let bad = |reason: &str| VcfError::MalformedRecord {
        line: lineno,
        reason: reason.to_string(),
    };
    let cols: Vec<&str> = line.split('\t').collect();
    if cols.len() != FIXED_COLUMNS + num_samples {
        return Err(bad(&format!(
            "expected {} columns, found {}",
            FIXED_COLUMNS + num_samples,
            cols.len()
        )));
    }
    let chromosome = cols[0]
        .trim_start_matches("chr")
        .parse::<u8>()
        .map_err(|_| bad("non-numeric chromosome"))?;
    let position = cols[1]
        .parse::<u64>()
        .map_err(|_| bad("non-numeric position"))?;
    // FORMAT must lead with GT for us to read genotypes.
    if cols[8] != "GT" && !cols[8].starts_with("GT:") {
        return Err(bad("FORMAT does not start with GT"));
    }
    let mut dosages = Vec::with_capacity(num_samples);
    for sample in &cols[FIXED_COLUMNS..] {
        let gt = sample.split(':').next().unwrap_or("");
        dosages.push(parse_gt(gt).ok_or_else(|| bad(&format!("bad GT field {gt:?}")))?);
    }
    Ok(VcfRecord {
        chromosome,
        position,
        id: cols[2].to_string(),
        reference: cols[3].to_string(),
        alternate: cols[4].to_string(),
        dosages,
    })
}

/// `0/1`, `1|1`, `./.` → dosage; other allele numbers are rejected
/// (multi-allelic sites are out of scope for the dosage model).
fn parse_gt(gt: &str) -> Option<Option<u8>> {
    let (a, b) = gt.split_once(['/', '|'])?;
    match (a, b) {
        (".", ".") => Some(None),
        _ => {
            let a: u8 = a.parse().ok()?;
            let b: u8 = b.parse().ok()?;
            if a > 1 || b > 1 {
                return None;
            }
            Some(Some(a + b))
        }
    }
}

/// Convert parsed records into the analysis inputs: dosage rows (missing
/// calls imputed to the record's most common dosage — simple mode
/// imputation) and positional loci. Row index == SNP id == locus index.
pub fn to_analysis_inputs(vcf: &VcfData) -> (Vec<SnpRow>, Vec<SnpLocus>) {
    let mut rows = Vec::with_capacity(vcf.records.len());
    let mut loci = Vec::with_capacity(vcf.records.len());
    for (index, rec) in vcf.records.iter().enumerate() {
        let mut counts = [0usize; 3];
        for d in rec.dosages.iter().flatten() {
            counts[*d as usize] += 1;
        }
        // Smallest dosage wins ties (the reference genotype).
        let mut mode = 0u8;
        for d in 1..3u8 {
            if counts[d as usize] > counts[mode as usize] {
                mode = d;
            }
        }
        let dosages: Vec<u8> = rec.dosages.iter().map(|d| d.unwrap_or(mode)).collect();
        rows.push(SnpRow {
            id: index as u64,
            dosages,
        });
        loci.push(SnpLocus {
            index,
            chromosome: rec.chromosome,
            position: rec.position,
        });
    }
    (rows, loci)
}

fn push_header(out: &mut String, samples: &[String]) {
    out.push_str("##fileformat=VCFv4.2\n##source=sparkscore-rs\n");
    out.push_str("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT");
    for s in samples {
        out.push('\t');
        out.push_str(s);
    }
    out.push('\n');
}

fn push_record(out: &mut String, id: u64, dosages: &[u8], locus: &SnpLocus) {
    out.push_str(&format!(
        "{}\t{}\tsnp{}\tA\tG\t.\tPASS\t.\tGT",
        locus.chromosome, locus.position, id
    ));
    for &d in dosages {
        out.push_str(match d {
            0 => "\t0/0",
            1 => "\t0/1",
            2 => "\t1/1",
            MISSING_DOSAGE => "\t./.",
            other => panic!("invalid dosage {other}"),
        });
    }
    out.push('\n');
}

/// Serialize rows and loci back to VCF text (round-trip support and a
/// convenient way to fabricate test fixtures).
pub fn write_vcf(samples: &[String], rows: &[SnpRow], loci: &[SnpLocus]) -> String {
    assert_eq!(rows.len(), loci.len(), "rows and loci must align");
    let mut out = String::new();
    push_header(&mut out, samples);
    for (row, locus) in rows.iter().zip(loci) {
        assert_eq!(row.dosages.len(), samples.len(), "sample count mismatch");
        push_record(&mut out, row.id, &row.dosages, locus);
    }
    out
}

/// Serialize a packed [`GenotypeBlock`] straight to VCF text. Rows are
/// unpacked through one reused buffer (`GenotypeBlock::for_each_row` —
/// no per-row allocation); missing calls become `./.`.
pub fn write_vcf_block(samples: &[String], block: &GenotypeBlock, loci: &[SnpLocus]) -> String {
    assert_eq!(block.num_snps(), loci.len(), "rows and loci must align");
    assert_eq!(block.num_patients(), samples.len(), "sample count mismatch");
    let mut out = String::new();
    push_header(&mut out, samples);
    let mut buf = vec![0u8; block.num_patients()];
    let mut loci = loci.iter();
    block.for_each_row(&mut buf, |id, dosages| {
        push_record(&mut out, id, dosages, loci.next().expect("loci align"));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_VCF: &str = "\
##fileformat=VCFv4.2
##reference=GRCh37
#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tP1\tP2\tP3
1\t101\trs1\tA\tG\t50\tPASS\t.\tGT\t0/0\t0/1\t1/1
1\t250\trs2\tC\tT\t99\tPASS\t.\tGT:DP\t0|1:12\t./.:0\t0/0:7
2\t77\trs3\tG\tA\t10\tPASS\t.\tGT\t1/1\t1/1\t0/1
";

    #[test]
    fn parses_samples_and_records() {
        let vcf = parse_vcf(SAMPLE_VCF).unwrap();
        assert_eq!(vcf.samples, vec!["P1", "P2", "P3"]);
        assert_eq!(vcf.records.len(), 3);
        let r = &vcf.records[0];
        assert_eq!((r.chromosome, r.position), (1, 101));
        assert_eq!(r.id, "rs1");
        assert_eq!(r.dosages, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn phased_extra_format_and_missing_calls() {
        let vcf = parse_vcf(SAMPLE_VCF).unwrap();
        let r = &vcf.records[1];
        assert_eq!(r.dosages, vec![Some(1), None, Some(0)]);
    }

    #[test]
    fn chr_prefix_accepted() {
        let text = SAMPLE_VCF.replace("\n1\t", "\nchr1\t");
        let vcf = parse_vcf(&text).unwrap();
        assert_eq!(vcf.records[0].chromosome, 1);
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(
            parse_vcf("1\t100\trs\tA\tG\t.\t.\t.\tGT\t0/0\n").unwrap_err(),
            VcfError::MissingHeader
        );
    }

    #[test]
    fn wrong_column_count_rejected() {
        let text = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tP1\n\
                    1\t100\trs\tA\tG\t.\t.\t.\tGT\t0/0\t0/1\n";
        assert!(matches!(
            parse_vcf(text).unwrap_err(),
            VcfError::MalformedRecord { line: 2, .. }
        ));
    }

    #[test]
    fn multiallelic_gt_rejected() {
        let text = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tP1\n\
                    1\t100\trs\tA\tG\t.\t.\t.\tGT\t0/2\n";
        assert!(matches!(
            parse_vcf(text).unwrap_err(),
            VcfError::MalformedRecord { .. }
        ));
    }

    #[test]
    fn analysis_inputs_impute_missing_to_mode() {
        let vcf = parse_vcf(SAMPLE_VCF).unwrap();
        let (rows, loci) = to_analysis_inputs(&vcf);
        assert_eq!(rows.len(), 3);
        // Record 2's missing P2 call: dosage counts {0: 1, 1: 1} → mode 0.
        assert_eq!(rows[1].dosages, vec![1, 0, 0]);
        assert_eq!(loci[2].chromosome, 2);
        assert_eq!(loci[2].position, 77);
        assert_eq!(loci[1].index, 1);
    }

    #[test]
    fn write_parse_round_trip() {
        let samples: Vec<String> = vec!["a".into(), "b".into()];
        let rows = vec![
            SnpRow {
                id: 0,
                dosages: vec![0, 2],
            },
            SnpRow {
                id: 1,
                dosages: vec![1, 1],
            },
        ];
        let loci = vec![
            SnpLocus {
                index: 0,
                chromosome: 3,
                position: 500,
            },
            SnpLocus {
                index: 1,
                chromosome: 3,
                position: 900,
            },
        ];
        let text = write_vcf(&samples, &rows, &loci);
        let parsed = parse_vcf(&text).unwrap();
        assert_eq!(parsed.samples, samples);
        let (rows2, loci2) = to_analysis_inputs(&parsed);
        assert_eq!(rows2, rows);
        assert_eq!(loci2, loci);

        // The packed-block export produces byte-identical VCF text.
        let block_rows: Vec<(u64, Vec<u8>)> =
            rows.iter().map(|r| (r.id, r.dosages.clone())).collect();
        let block = GenotypeBlock::from_rows(samples.len(), &block_rows);
        assert_eq!(write_vcf_block(&samples, &block, &loci), text);
    }

    #[test]
    fn block_export_writes_missing_calls() {
        let samples: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let block = GenotypeBlock::from_rows(3, &[(7, vec![1, MISSING_DOSAGE, 2])]);
        let loci = vec![SnpLocus {
            index: 0,
            chromosome: 1,
            position: 42,
        }];
        let text = write_vcf_block(&samples, &block, &loci);
        assert!(text.contains("\t0/1\t./.\t1/1\n"), "{text}");
        // Missing calls survive a parse round-trip as None.
        let parsed = parse_vcf(&text).unwrap();
        assert_eq!(parsed.records[0].dosages, vec![Some(1), None, Some(2)]);
    }
}
