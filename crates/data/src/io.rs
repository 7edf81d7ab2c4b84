//! Text (de)serialization of GWAS inputs — the file formats Algorithm 1
//! reads from HDFS ("Genotype Matrix, Pairs of Events and Survival Times
//! per Patient, SNP Weights, SNP-Sets").
//!
//! All four inputs are line-oriented text so they split cleanly into DFS
//! blocks and parse record-by-record inside map tasks:
//!
//! * genotypes — `"<snp_id> <g_1> <g_2> … <g_n>"` (dosages 0/1/2);
//! * phenotypes — `"<patient_id> <time> <0|1>"`;
//! * weights — `"<snp_id> <weight>"`;
//! * SNP-sets — `"<set_id> <snp_id>,<snp_id>,…"`.

use std::io::Write;

use sparkscore_dfs::{Dfs, DfsError, FileMeta};
use sparkscore_stats::score::Survival;
use sparkscore_stats::skat::SnpSet;

use crate::synth::{GwasDataset, SnpRow};

/// DFS paths of one serialized dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetPaths {
    pub genotypes: String,
    pub phenotypes: String,
    pub weights: String,
    pub sets: String,
}

impl DatasetPaths {
    /// Conventional layout under a prefix directory.
    pub fn under(prefix: &str) -> Self {
        let prefix = prefix.trim_end_matches('/');
        DatasetPaths {
            genotypes: format!("{prefix}/genotypes.txt"),
            phenotypes: format!("{prefix}/phenotypes.txt"),
            weights: format!("{prefix}/weights.txt"),
            sets: format!("{prefix}/snp_sets.txt"),
        }
    }
}

// ---------- line formatting ----------

pub fn format_genotype_line(row: &SnpRow) -> String {
    let mut s = String::with_capacity(8 + 2 * row.dosages.len());
    s.push_str(&row.id.to_string());
    for &d in &row.dosages {
        s.push(' ');
        s.push((b'0' + d) as char);
    }
    s
}

pub fn format_phenotype_line(patient: usize, ph: &Survival) -> String {
    format!("{patient} {:.6} {}", ph.time, u8::from(ph.event))
}

pub fn format_weight_line(snp: u64, weight: f64) -> String {
    format!("{snp} {weight:.10}")
}

pub fn format_set_line(set: &SnpSet) -> String {
    let members: Vec<String> = set.members.iter().map(|m| m.to_string()).collect();
    format!("{} {}", set.id, members.join(","))
}

// ---------- line parsing ----------

fn malformed(kind: &str, line: &str) -> ! {
    panic!("malformed {kind} line: {line:?}")
}

/// Parse `"<snp_id> <g_1> … <g_n>"`.
pub fn parse_genotype_line(line: &str) -> (u64, Vec<u8>) {
    let mut it = line.split_ascii_whitespace();
    let id = it
        .next()
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| malformed("genotype", line));
    let dosages: Vec<u8> = it
        .map(|t| match t {
            "0" => 0u8,
            "1" => 1,
            "2" => 2,
            _ => malformed("genotype", line),
        })
        .collect();
    if dosages.is_empty() {
        malformed("genotype", line)
    }
    (id, dosages)
}

/// Parse `"<patient_id> <time> <0|1>"`.
pub fn parse_phenotype_line(line: &str) -> (usize, Survival) {
    let mut it = line.split_ascii_whitespace();
    let (Some(pid), Some(time), Some(event), None) = (it.next(), it.next(), it.next(), it.next())
    else {
        malformed("phenotype", line)
    };
    let patient = pid.parse().unwrap_or_else(|_| malformed("phenotype", line));
    let time: f64 = time
        .parse()
        .unwrap_or_else(|_| malformed("phenotype", line));
    let event = match event {
        "0" => false,
        "1" => true,
        _ => malformed("phenotype", line),
    };
    (patient, Survival { time, event })
}

/// Parse `"<snp_id> <weight>"`.
pub fn parse_weight_line(line: &str) -> (u64, f64) {
    let mut it = line.split_ascii_whitespace();
    let (Some(id), Some(w), None) = (it.next(), it.next(), it.next()) else {
        malformed("weight", line)
    };
    (
        id.parse().unwrap_or_else(|_| malformed("weight", line)),
        w.parse().unwrap_or_else(|_| malformed("weight", line)),
    )
}

/// Parse `"<set_id> <snp>,<snp>,…"`.
pub fn parse_set_line(line: &str) -> SnpSet {
    let mut it = line.split_ascii_whitespace();
    let (Some(id), Some(members), None) = (it.next(), it.next(), it.next()) else {
        malformed("snp-set", line)
    };
    let id = id.parse().unwrap_or_else(|_| malformed("snp-set", line));
    let members: Vec<usize> = members
        .split(',')
        .map(|t| t.parse().unwrap_or_else(|_| malformed("snp-set", line)))
        .collect();
    SnpSet::new(id, members)
}

// ---------- whole-file serialization ----------

/// Every row as [`format_genotype_line`] writes it, newline-terminated —
/// written as bytes into one buffer sized up front (an id is at most 20
/// digits, then two bytes per patient and the newline).
pub fn genotypes_to_text(rows: &[SnpRow]) -> String {
    let width = rows.first().map_or(0, |row| 2 * row.dosages.len() + 21);
    let mut out = Vec::with_capacity(rows.len() * width);
    for row in rows {
        write!(out, "{}", row.id).expect("writing to a Vec cannot fail");
        for &d in &row.dosages {
            out.extend_from_slice(&[b' ', b'0' + d]);
        }
        out.push(b'\n');
    }
    String::from_utf8(out).expect("dosage digits are ASCII")
}

pub fn phenotypes_to_text(phenotypes: &[Survival]) -> String {
    let mut out = String::new();
    for (i, ph) in phenotypes.iter().enumerate() {
        out.push_str(&format_phenotype_line(i, ph));
        out.push('\n');
    }
    out
}

pub fn weights_to_text(weights: &[f64]) -> String {
    let mut out = String::new();
    for (j, &w) in weights.iter().enumerate() {
        out.push_str(&format_weight_line(j as u64, w));
        out.push('\n');
    }
    out
}

pub fn sets_to_text(sets: &[SnpSet]) -> String {
    let mut out = String::new();
    for s in sets {
        out.push_str(&format_set_line(s));
        out.push('\n');
    }
    out
}

/// Parse a whole phenotype file into patient order.
pub fn parse_phenotypes_text(text: &str) -> Vec<Survival> {
    let mut rows: Vec<(usize, Survival)> = text.lines().map(parse_phenotype_line).collect();
    rows.sort_by_key(|&(i, _)| i);
    for (expect, &(got, _)) in rows.iter().enumerate() {
        assert_eq!(expect, got, "patient ids must be dense");
    }
    rows.into_iter().map(|(_, ph)| ph).collect()
}

/// Write all four inputs of `dataset` to the DFS under `prefix`.
/// Returns the paths; fails if any file already exists.
pub fn write_dataset_to_dfs(
    dfs: &Dfs,
    prefix: &str,
    dataset: &GwasDataset,
) -> Result<(DatasetPaths, Vec<FileMeta>), DfsError> {
    let paths = DatasetPaths::under(prefix);
    let metas = vec![
        dfs.write_text(&paths.genotypes, &genotypes_to_text(&dataset.genotypes))?,
        dfs.write_text(&paths.phenotypes, &phenotypes_to_text(&dataset.phenotypes))?,
        dfs.write_text(&paths.weights, &weights_to_text(&dataset.weights))?,
        dfs.write_text(&paths.sets, &sets_to_text(&dataset.sets))?,
    ];
    Ok((paths, metas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SyntheticConfig;
    use std::sync::Arc;

    #[test]
    fn genotype_line_round_trip() {
        let row = SnpRow {
            id: 42,
            dosages: vec![0, 1, 2, 1, 0],
        };
        let line = format_genotype_line(&row);
        assert_eq!(line, "42 0 1 2 1 0");
        let (id, dosages) = parse_genotype_line(&line);
        assert_eq!(id, 42);
        assert_eq!(dosages, row.dosages);
    }

    #[test]
    fn genotype_file_is_its_lines_joined() {
        let ds = GwasDataset::generate(&SyntheticConfig::small(5));
        let mut rows = ds.genotypes.clone();
        rows[1].id = u64::MAX;
        rows[2].dosages[0] = 3;
        let joined: String = rows
            .iter()
            .map(|row| format_genotype_line(row) + "\n")
            .collect();
        assert_eq!(genotypes_to_text(&rows), joined);
        assert_eq!(genotypes_to_text(&[]), "");
    }

    #[test]
    fn phenotype_line_round_trip() {
        let ph = Survival::event_at(11.25);
        let line = format_phenotype_line(7, &ph);
        let (pid, parsed) = parse_phenotype_line(&line);
        assert_eq!(pid, 7);
        assert!(parsed.event);
        assert!((parsed.time - 11.25).abs() < 1e-6);
    }

    #[test]
    fn weight_line_round_trip() {
        let line = format_weight_line(3, 0.12345);
        let (id, w) = parse_weight_line(&line);
        assert_eq!(id, 3);
        assert!((w - 0.12345).abs() < 1e-9);
    }

    #[test]
    fn set_line_round_trip() {
        let set = SnpSet::new(9, vec![4, 1, 7]);
        let parsed = parse_set_line(&format_set_line(&set));
        assert_eq!(parsed, set);
    }

    #[test]
    #[should_panic(expected = "malformed genotype")]
    fn bad_dosage_rejected() {
        let _ = parse_genotype_line("1 0 3 1");
    }

    #[test]
    #[should_panic(expected = "malformed phenotype")]
    fn bad_event_flag_rejected() {
        let _ = parse_phenotype_line("0 1.5 2");
    }

    #[test]
    fn whole_dataset_round_trips_through_dfs() {
        use sparkscore_cluster::{Cluster, ClusterSpec};
        let ds = GwasDataset::generate(&SyntheticConfig::small(5));
        let cluster = Arc::new(Cluster::provision(ClusterSpec::test_small(3)));
        let dfs = Dfs::new(cluster, 2048, 2).unwrap();
        let (paths, metas) = write_dataset_to_dfs(&dfs, "/gwas", &ds).unwrap();
        assert_eq!(metas.len(), 4);

        // Genotypes.
        let text = dfs.read_to_string(&paths.genotypes).unwrap();
        let rows: Vec<(u64, Vec<u8>)> = text.lines().map(parse_genotype_line).collect();
        assert_eq!(rows.len(), ds.genotypes.len());
        for (parsed, orig) in rows.iter().zip(&ds.genotypes) {
            assert_eq!(parsed.0, orig.id);
            assert_eq!(parsed.1, orig.dosages);
        }

        // Phenotypes (order restored from patient ids).
        let ph = parse_phenotypes_text(&dfs.read_to_string(&paths.phenotypes).unwrap());
        assert_eq!(ph.len(), ds.phenotypes.len());
        for (a, b) in ph.iter().zip(&ds.phenotypes) {
            assert_eq!(a.event, b.event);
            assert!((a.time - b.time).abs() < 1e-5);
        }

        // Weights.
        let wtext = dfs.read_to_string(&paths.weights).unwrap();
        let ws: Vec<(u64, f64)> = wtext.lines().map(parse_weight_line).collect();
        assert_eq!(ws.len(), ds.weights.len());

        // Sets.
        let stext = dfs.read_to_string(&paths.sets).unwrap();
        let sets: Vec<SnpSet> = stext.lines().map(parse_set_line).collect();
        assert_eq!(sets, ds.sets);
    }

    #[test]
    fn writing_twice_fails() {
        use sparkscore_cluster::{Cluster, ClusterSpec};
        let ds = GwasDataset::generate(&SyntheticConfig::small(5));
        let cluster = Arc::new(Cluster::provision(ClusterSpec::test_small(1)));
        let dfs = Dfs::new(cluster, 2048, 1).unwrap();
        write_dataset_to_dfs(&dfs, "/gwas", &ds).unwrap();
        assert!(write_dataset_to_dfs(&dfs, "/gwas", &ds).is_err());
    }
}
