//! Experiment C — auto-tuning: strong scaling and YARN container shapes.
//!
//! Regenerates: **Table VI** + **Figure 6** (strong scaling of the 1M-SNP
//! Monte Carlo workload over 6/12/18 nodes at 10 and 20 iterations) and
//! **Tables VII/VIII** + **Figure 7** (runtime vs container count — 42,
//! 84, 126 containers of matching memory/cores on a 36-node cluster, at
//! 0/10/100 iterations).
//!
//! The paper observes ~2 orders of magnitude between 6 and 18 nodes at 20
//! iterations — far beyond the 3× slot ratio — which we attribute to
//! memory pressure: at 6 nodes the cached `U` RDD exceeds storage memory
//! and every iteration pays a full lineage recomputation. The harness
//! models that by giving the cluster a storage budget proportional to its
//! node count, sized so that `U` fits at 18 nodes but not at 6.

use sparkscore_bench::{
    container_engine, context_on, measure_mc, observe, pressured_engine, print_table, secs,
    shape_check, u_rdd_bytes, HarnessOptions, Measurement,
};
use sparkscore_cluster::ContainerRequest;
use sparkscore_data::SyntheticConfig;

fn main() {
    let opts = HarnessOptions::from_args();
    let cfg = SyntheticConfig::experiment_b_1m(3).scaled_down(opts.scale);

    println!("# Experiment C: auto-tuning (strong scaling + container shapes)");
    print_table(
        "Table VI — strong-scaling inputs",
        &["patients", "SNPs", "SNP-sets", "nodes", "scale"],
        &[vec![
            cfg.patients.to_string(),
            cfg.snps.to_string(),
            cfg.snp_sets.to_string(),
            "6 / 12 / 18".into(),
            format!("1/{}", opts.scale),
        ]],
    );

    // ---- Figure 6: strong scaling ----
    // Per-node storage budget: U fits from ~12 nodes up, thrashes at 6.
    let per_node_budget = (u_rdd_bytes(&cfg) as f64 / 11.0).ceil() as u64;
    let iters: Vec<usize> = if opts.quick {
        vec![0, 10]
    } else {
        vec![0, 10, 20]
    };
    let node_counts = [6u32, 12, 18];
    let mut fig6: Vec<(u32, Vec<Measurement>)> = Vec::new();
    for &nodes in &node_counts {
        let engine = pressured_engine(nodes, per_node_budget * u64::from(nodes), &cfg);
        let obs = observe(&engine, &format!("experiment_c_scaling_{nodes}n"));
        let ctx = context_on(engine, &cfg);
        let series: Vec<Measurement> = iters
            .iter()
            .map(|&b| {
                eprintln!("[scaling] {nodes} nodes, B = {b} ...");
                measure_mc(&ctx, b, true)
            })
            .collect();
        obs.finish();
        fig6.push((nodes, series));
    }
    let rows: Vec<Vec<String>> = iters
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let mut row = vec![b.to_string()];
            for (_, series) in &fig6 {
                row.push(secs(series[i].virtual_secs));
            }
            row
        })
        .collect();
    print_table(
        "Figure 6 — strong scaling, 1M-SNP MC workload (virtual seconds)",
        &["iterations", "6 nodes", "12 nodes", "18 nodes"],
        &rows,
    );
    let last = iters.len() - 1;
    let t6 = fig6[0].1[last].virtual_secs;
    let t12 = fig6[1].1[last].virtual_secs;
    let t18 = fig6[2].1[last].virtual_secs;
    // 12 and 18 nodes can tie (both fit the cache and the 16 input
    // partitions), so allow measurement jitter.
    shape_check(
        "more nodes are never slower (±2%)",
        t18 <= t12 * 1.02 && t12 <= t6 * 1.02,
    );
    shape_check(
        &format!(
            "memory pressure makes 6 nodes dramatically slower at B = {} ({}s vs {}s)",
            iters[last],
            secs(t6),
            secs(t18)
        ),
        t6 / t18 >= 10.0,
    );

    // ---- Figure 7: container shapes on a fixed 36-node cluster ----
    print_table(
        "Table VII — auto-tuning inputs",
        &["patients", "SNPs", "SNP-sets", "nodes", "scale"],
        &[vec![
            cfg.patients.to_string(),
            cfg.snps.to_string(),
            cfg.snp_sets.to_string(),
            "36".into(),
            format!("1/{}", opts.scale),
        ]],
    );
    let shapes = [
        ContainerRequest::paper_42(),
        ContainerRequest::paper_84(),
        ContainerRequest::paper_126(),
    ];
    print_table(
        "Table VIII — container configurations",
        &[
            "containers",
            "memory/container (GiB)",
            "cores/container",
            "total slots",
        ],
        &shapes
            .iter()
            .map(|s| {
                vec![
                    s.containers.to_string(),
                    format!("{:.1}", s.memory_mib as f64 / 1024.0),
                    s.cores.to_string(),
                    s.total_slots().to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let fig7_iters: Vec<usize> = if opts.quick {
        vec![0, 10]
    } else {
        vec![0, 10, 100]
    };
    let mut fig7: Vec<(u32, Vec<Measurement>)> = Vec::new();
    for shape in &shapes {
        let engine = container_engine(36, *shape, &cfg);
        let obs = observe(
            &engine,
            &format!("experiment_c_{}containers", shape.containers),
        );
        let ctx = context_on(engine, &cfg);
        let series: Vec<Measurement> = fig7_iters
            .iter()
            .map(|&b| {
                eprintln!("[containers] {} containers, B = {b} ...", shape.containers);
                measure_mc(&ctx, b, true)
            })
            .collect();
        obs.finish();
        fig7.push((shape.containers, series));
    }
    let rows: Vec<Vec<String>> = fig7_iters
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let mut row = vec![b.to_string()];
            for (_, series) in &fig7 {
                row.push(secs(series[i].virtual_secs));
            }
            row
        })
        .collect();
    print_table(
        "Figure 7 — runtime vs container count, 36 nodes (virtual seconds)",
        &[
            "iterations",
            "42 containers",
            "84 containers",
            "126 containers",
        ],
        &rows,
    );
    // Paper: "performance difference for different numbers of containers
    // ... is almost negligible" — same 252 slots in every shape.
    let last = fig7_iters.len() - 1;
    let times: Vec<f64> = fig7.iter().map(|(_, s)| s[last].virtual_secs).collect();
    let spread = (times.iter().cloned().fold(f64::MIN, f64::max)
        - times.iter().cloned().fold(f64::MAX, f64::min))
        / times.iter().sum::<f64>()
        * times.len() as f64;
    shape_check(
        &format!("container count has negligible effect (relative spread {spread:.3})"),
        spread < 0.15,
    );

    let dump = |series: &[(u32, Vec<Measurement>)]| {
        series
            .iter()
            .map(|(k, ms)| {
                serde_json::json!({
                    "key": k,
                    "points": ms.iter().map(|m| serde_json::json!({
                        "iterations": m.iterations,
                        "virtual_secs": m.virtual_secs,
                        "wall_secs": m.wall_secs,
                    })).collect::<Vec<_>>(),
                })
            })
            .collect::<Vec<_>>()
    };
    let json = serde_json::json!({
        "experiment": "C",
        "scale": opts.scale,
        "fig6_nodes": dump(&fig6),
        "fig7_containers": dump(&fig7),
    });
    println!("\nJSON: {json}");
}
