//! Experiment A — scalability of Monte Carlo vs permutation resampling.
//!
//! Regenerates: **Table II** (inputs), **Figure 2** (runtime vs iteration
//! count for both methods on 6 nodes), and **Table III** (its means; the
//! paper's standard deviations over repeated runs have no analogue, since
//! virtual time is deterministic).
//!
//! Paper workload: 1000 patients × 100 000 SNPs × 1000 SNP-sets on
//! 6 × m3.2xlarge. `--scale N` divides SNPs/sets by N (default 100);
//! `--paper-scale` runs the full size.

use sparkscore_bench::{
    context_on, measure_mc, measure_perm, observe, paper, paper_engine, print_table, secs,
    shape_check, HarnessOptions, Measurement,
};
use sparkscore_data::SyntheticConfig;

fn main() {
    let opts = HarnessOptions::from_args();
    let cfg = SyntheticConfig::experiment_a(1).scaled_down(opts.scale);
    let nodes = 6;

    println!("# Experiment A: Monte Carlo vs permutation scalability");
    print_table(
        "Table I — instance type",
        &["name", "vCPU", "mem (GiB)", "storage (GB)"],
        &[vec![
            sparkscore_cluster::M3_2XLARGE.name.to_string(),
            sparkscore_cluster::M3_2XLARGE.vcpus.to_string(),
            (sparkscore_cluster::M3_2XLARGE.memory_mib / 1024).to_string(),
            sparkscore_cluster::M3_2XLARGE.storage_gb.to_string(),
        ]],
    );
    print_table(
        "Table II — input parameters",
        &[
            "patients",
            "SNPs",
            "SNP-sets",
            "avg SNPs/set",
            "nodes",
            "scale",
        ],
        &[vec![
            cfg.patients.to_string(),
            cfg.snps.to_string(),
            cfg.snp_sets.to_string(),
            format!("{:.0}", cfg.mean_set_size()),
            nodes.to_string(),
            format!("1/{}", opts.scale),
        ]],
    );

    let engine = paper_engine(nodes, &cfg);
    let obs = observe(&engine, "experiment_a");
    let ctx = context_on(engine, &cfg);

    let mc_iters: Vec<usize> = if opts.quick {
        vec![0, 2, 4, 8, 16, 100]
    } else {
        vec![0, 2, 4, 8, 16, 100, 1000, 10000]
    };
    let perm_iters: Vec<usize> = if opts.quick {
        vec![0, 2, 4]
    } else {
        vec![0, 2, 4, 8, 16]
    };

    let mc: Vec<Measurement> = mc_iters
        .iter()
        .map(|&b| {
            eprintln!("[mc] B = {b} ...");
            measure_mc(&ctx, b, true)
        })
        .collect();
    let perm: Vec<Measurement> = perm_iters
        .iter()
        .map(|&b| {
            eprintln!("[perm] B = {b} ...");
            measure_perm(&ctx, b)
        })
        .collect();

    // Figure 2 / Table III.
    let all_iters: std::collections::BTreeSet<usize> =
        mc_iters.iter().chain(&perm_iters).copied().collect();
    let mut rows = Vec::new();
    for &b in &all_iters {
        let fmt = |m: Option<&Measurement>| m.map_or("N/A".into(), |m| secs(m.virtual_secs));
        let paper_fmt = |v: Option<f64>| v.map_or("N/A".into(), secs);
        rows.push(vec![
            b.to_string(),
            fmt(mc.iter().find(|m| m.iterations == b)),
            fmt(perm.iter().find(|m| m.iterations == b)),
            paper_fmt(paper::lookup(
                &paper::TABLE_III_ITERS,
                &paper::TABLE_III_MC,
                b,
            )),
            paper_fmt(paper::lookup(
                &paper::TABLE_III_ITERS[..5],
                &paper::TABLE_III_PERM,
                b,
            )),
        ]);
    }
    print_table(
        "Figure 2 / Table III — runtime vs iterations (virtual cluster seconds)",
        &[
            "iterations",
            "MC (measured)",
            "permutation (measured)",
            "MC (paper)",
            "permutation (paper)",
        ],
        &rows,
    );

    // Shape checks against the paper's qualitative claims.
    let get = |ms: &[Measurement], b: usize| {
        ms.iter()
            .find(|m| m.iterations == b)
            .map(|m| m.virtual_secs)
    };
    // Per-iteration costs from the largest common spans.
    let per_iter = |ms: &[Measurement]| -> Option<f64> {
        let base = get(ms, 0)?;
        ms.iter()
            .rfind(|m| m.iterations > 0)
            .map(|m| (m.virtual_secs - base) / m.iterations as f64)
    };
    if let (Some(mc_iter), Some(perm_iter)) = (per_iter(&mc), per_iter(&perm)) {
        shape_check(
            &format!(
                "MC per-iteration cost ({:.3}s) an order of magnitude below \
                 permutation's ({:.3}s)",
                mc_iter, perm_iter
            ),
            perm_iter / mc_iter >= 8.0,
        );
        // The paper's deepest claim: MC at 10 000 iterations under
        // permutation at 16 (ratio ≈ 800× per iteration on their stack).
        // The per-iteration ratio shrinks with --scale because MC's
        // per-iteration floor is fixed scheduling overhead while
        // permutation's cost scales with the data; report the implied
        // crossover instead of hard-failing at reduced scale.
        let crossover = 16.0 * perm_iter / mc_iter;
        println!(
            "info: MC remains cheaper than permutation@16 up to ~{crossover:.0} \
             iterations (paper: >10000 at full scale)"
        );
        if opts.scale <= 2 {
            shape_check(
                "full scale: MC at 10000 iterations cheaper than permutation at 16",
                crossover >= 10_000.0,
            );
        }
    }
    if let (Some(p2), Some(p16)) = (get(&perm, 2), get(&perm, 16)) {
        shape_check(
            "permutation cost grows roughly linearly with iterations",
            p16 / p2 >= 3.0,
        );
    }
    if let (Some(m0), Some(m16)) = (get(&mc, 0), get(&mc, 16)) {
        shape_check(
            "MC nearly flat out to 16 iterations (cached U)",
            m16 <= 2.0 * m0.max(1e-9),
        );
    }

    // Pay-as-you-go economics (the paper's cloud motivation; its
    // permutation arm was cut short by "funding limitations").
    let spec = sparkscore_cluster::ClusterSpec::m3_2xlarge(nodes);
    let mut cost_rows = Vec::new();
    if let Some(m) = mc.last() {
        let c = sparkscore_cluster::estimate_cost(&spec, m.virtual_secs);
        cost_rows.push(vec![
            format!("MC @ {} (measured)", m.iterations),
            format!("${:.2}", c.total_usd()),
        ]);
    }
    if let Some(m) = perm.last() {
        let c = sparkscore_cluster::estimate_cost(&spec, m.virtual_secs);
        cost_rows.push(vec![
            format!("permutation @ {} (measured)", m.iterations),
            format!("${:.2}", c.total_usd()),
        ]);
    }
    for (label, secs) in [
        ("MC @ 10000 (paper runtime)", 7036.6),
        ("permutation @ 16 (paper runtime)", 8818.6),
        (
            "permutation @ 10000 (paper rate, extrapolated)",
            509.4 + 10_000.0 * 519.3,
        ),
    ] {
        let c = sparkscore_cluster::estimate_cost(&spec, secs);
        cost_rows.push(vec![label.to_string(), format!("${:.2}", c.total_usd())]);
    }
    print_table(
        "Pay-as-you-go cost at 2016 EMR rates (6 × m3.2xlarge)",
        &["run", "estimated cost"],
        &cost_rows,
    );

    // Machine-readable dump for EXPERIMENTS.md tooling.
    let dump = |ms: &[Measurement]| {
        ms.iter()
            .map(|m| {
                serde_json::json!({
                    "iterations": m.iterations,
                    "virtual_secs": m.virtual_secs,
                    "wall_secs": m.wall_secs,
                })
            })
            .collect::<Vec<_>>()
    };
    let json = serde_json::json!({
        "experiment": "A",
        "scale": opts.scale,
        "mc": dump(&mc),
        "permutation": dump(&perm),
    });
    println!("\nJSON: {json}");
    obs.finish();
}
