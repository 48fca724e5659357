//! Experiments on KSP-DG query processing (Figures 24–34).

use crate::cluster::Cluster;
use crate::experiments::datasets_for;
use crate::report::{f2, ms, Table};
use crate::Scale;
use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_core::kspdg::KspDgEngine;
use ksp_workload::{
    DatasetPreset, QueryWorkload, QueryWorkloadConfig, TrafficConfig, TrafficModel,
};
use std::time::Instant;

/// Default number of servers in the simulated cluster (the paper uses 10).
const DEFAULT_SERVERS: usize = 10;

fn iteration_k(scale: Scale) -> usize {
    // The paper measures iteration counts at k = 50 where the effect is visible; the
    // tiny scale uses a smaller k to stay fast.
    match scale {
        Scale::Tiny => 8,
        _ => 20,
    }
}

/// Shared helper: average number of iterations over a query workload after applying a
/// traffic snapshot with the given α and τ, for an index built with the given ξ.
fn mean_iterations(
    preset: DatasetPreset,
    scale: Scale,
    xi: usize,
    alpha: f64,
    tau: f64,
    k: usize,
) -> f64 {
    let spec = preset.spec(scale.dataset_scale());
    let net = spec.generate().expect("dataset generation");
    let mut graph = net.graph;
    let mut index =
        DtlpIndex::build(&graph, DtlpConfig::new(spec.default_z, xi)).expect("index build");
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(alpha, tau), 0xAB);
    let batch = traffic.next_snapshot();
    graph.apply_batch(&batch).expect("graph update");
    index.apply_batch(&batch).expect("index update");

    let nq = match scale {
        Scale::Tiny => 10,
        _ => 40,
    };
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(nq, k), 0xCD);
    let engine = KspDgEngine::new(&index);
    let total: usize =
        workload.iter().map(|q| engine.query(q.source, q.target, q.k).stats.iterations).sum();
    total as f64 / workload.len() as f64
}

/// Figure 24: number of iterations vs ξ.
pub fn fig24(scale: Scale) -> Vec<Table> {
    let xis: Vec<usize> = match scale {
        Scale::Tiny => vec![1, 2, 4],
        _ => vec![1, 5, 10, 15],
    };
    let k = iteration_k(scale);
    let mut table = Table::new(
        format!("Figure 24: iterations vs xi (k={k}, alpha=30%, tau=50%)"),
        &["dataset", "xi", "mean iterations"],
    );
    for preset in datasets_for(scale) {
        for &xi in &xis {
            let iters = mean_iterations(preset, scale, xi, 0.3, 0.5, k);
            table.row(vec![preset.short_name().to_string(), xi.to_string(), f2(iters)]);
        }
    }
    vec![table]
}

/// Figure 25: number of iterations vs τ.
pub fn fig25(scale: Scale) -> Vec<Table> {
    let taus = [0.1, 0.3, 0.5, 0.7, 0.9];
    let k = iteration_k(scale);
    let mut table = Table::new(
        format!("Figure 25: iterations vs tau (k={k}, alpha=30%, xi=1)"),
        &["dataset", "tau", "mean iterations"],
    );
    for preset in datasets_for(scale) {
        for &tau in &taus {
            let iters = mean_iterations(preset, scale, 1, 0.3, tau, k);
            table.row(vec![
                preset.short_name().to_string(),
                format!("{}%", (tau * 100.0) as u32),
                f2(iters),
            ]);
        }
    }
    vec![table]
}

/// Figure 26: number of iterations vs k.
pub fn fig26(scale: Scale) -> Vec<Table> {
    let ks: Vec<usize> = match scale {
        Scale::Tiny => vec![2, 4, 8],
        _ => vec![10, 20, 30, 40, 50],
    };
    let mut table = Table::new(
        "Figure 26: iterations vs k (alpha=30%, tau=50%, xi=1)",
        &["dataset", "k", "mean iterations"],
    );
    for preset in datasets_for(scale) {
        for &k in &ks {
            let iters = mean_iterations(preset, scale, 1, 0.3, 0.5, k);
            table.row(vec![preset.short_name().to_string(), k.to_string(), f2(iters)]);
        }
    }
    vec![table]
}

/// Figure 27: number of iterations vs α.
pub fn fig27(scale: Scale) -> Vec<Table> {
    let alphas = [0.2, 0.3, 0.4, 0.5];
    let k = iteration_k(scale);
    let mut table = Table::new(
        format!("Figure 27: iterations vs alpha (k={k}, tau=90%, xi=1)"),
        &["dataset", "alpha", "mean iterations"],
    );
    for preset in datasets_for(scale) {
        for &alpha in &alphas {
            let iters = mean_iterations(preset, scale, 1, alpha, 0.9, k);
            table.row(vec![
                preset.short_name().to_string(),
                format!("{}%", (alpha * 100.0) as u32),
                f2(iters),
            ]);
        }
    }
    vec![table]
}

/// Figures 28–31: batch query processing time vs z and k, per dataset.
pub fn fig28_31(scale: Scale) -> Vec<Table> {
    let ks: Vec<usize> = match scale {
        Scale::Tiny => vec![2, 4],
        _ => vec![2, 4, 6, 8, 10],
    };
    let nq = scale.default_num_queries();
    let xi = match scale {
        Scale::Tiny => 2,
        _ => 10,
    };
    let mut table = Table::new(
        format!("Figures 28-31: processing time (ms) of {nq} queries vs z and k (xi={xi})"),
        &[
            "dataset",
            "z",
            "k",
            "wall clock (ms)",
            "simulated 10-server makespan (ms)",
            "mean iterations",
        ],
    );
    for preset in datasets_for(scale) {
        let spec = preset.spec(scale.dataset_scale());
        let net = spec.generate().expect("dataset generation");
        let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(nq, 2), 0x31);
        for z in spec.z_sweep() {
            let index = DtlpIndex::build(&net.graph, DtlpConfig::new(z, xi)).expect("index build");
            let cluster = Cluster::new(&index, DEFAULT_SERVERS);
            for &k in &ks {
                let report = cluster.process_queries(&workload.with_k(k));
                table.row(vec![
                    preset.short_name().to_string(),
                    z.to_string(),
                    k.to_string(),
                    ms(report.wall_clock),
                    ms(report.simulated_makespan()),
                    f2(report.mean_iterations()),
                ]);
            }
        }
    }
    vec![table]
}

/// Figure 32: processing time vs number of concurrent queries. Every row runs on a
/// memo-empty copy of the index ([`Cluster::process_queries`]), like the baselines
/// beside it, and prints the share of its partial path computations that the memos
/// its own earlier queries filled answered.
pub fn fig32(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 32: processing time vs number of queries (k=2, xi=10 scaled)",
        &[
            "dataset",
            "Nq",
            "wall clock (ms)",
            "simulated 10-server makespan (ms)",
            "memo hit share",
        ],
    );
    let xi = match scale {
        Scale::Tiny => 2,
        _ => 10,
    };
    for preset in datasets_for(scale) {
        let spec = preset.spec(scale.dataset_scale());
        let net = spec.generate().expect("dataset generation");
        let index =
            DtlpIndex::build(&net.graph, DtlpConfig::new(spec.default_z, xi)).expect("index build");
        let cluster = Cluster::new(&index, DEFAULT_SERVERS);
        let max_nq = *scale.nq_sweep().last().unwrap();
        let workload =
            QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(max_nq, 2), 0x32);
        for nq in scale.nq_sweep() {
            let report = cluster.process_queries(&workload.prefix(nq));
            table.row(vec![
                preset.short_name().to_string(),
                nq.to_string(),
                ms(report.wall_clock),
                ms(report.simulated_makespan()),
                f2(report.memo_hit_share()),
            ]);
        }
    }
    vec![table]
}

/// Figure 33: processing time vs ξ (NY dataset, several k).
pub fn fig33(scale: Scale) -> Vec<Table> {
    let xis: Vec<usize> = match scale {
        Scale::Tiny => vec![1, 2, 4],
        _ => vec![1, 5, 10, 15],
    };
    let ks: Vec<usize> = match scale {
        Scale::Tiny => vec![5, 10],
        _ => vec![10, 20, 30, 40, 50],
    };
    let preset = DatasetPreset::NewYork;
    let spec = preset.spec(scale.dataset_scale());
    let net = spec.generate().expect("dataset generation");
    let mut graph = net.graph;
    let nq = match scale {
        Scale::Tiny => 20,
        _ => 100,
    };
    let mut table = Table::new(
        format!("Figure 33: processing time vs xi (NY, Nq={nq}, alpha=30%, tau=90%)"),
        &["xi", "k", "wall clock (ms)"],
    );
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.3, 0.9), 0x33);
    let batch = traffic.next_snapshot();
    graph.apply_batch(&batch).expect("graph update");
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(nq, 2), 0x33);
    for &xi in &xis {
        let mut index =
            DtlpIndex::build(&graph, DtlpConfig::new(spec.default_z, xi)).expect("index build");
        index.apply_batch(&batch).expect("index update");
        let engine = KspDgEngine::new(&index);
        for &k in &ks {
            let t0 = Instant::now();
            for q in workload.iter() {
                let _ = engine.query(q.source, q.target, k);
            }
            table.row(vec![xi.to_string(), k.to_string(), ms(t0.elapsed())]);
        }
    }
    vec![table]
}

/// Figure 34: processing time vs τ (NY dataset, several k).
pub fn fig34(scale: Scale) -> Vec<Table> {
    let taus = [0.1, 0.3, 0.5, 0.7, 0.9];
    let ks: Vec<usize> = match scale {
        Scale::Tiny => vec![5, 10],
        _ => vec![10, 20, 30, 40, 50],
    };
    let preset = DatasetPreset::NewYork;
    let spec = preset.spec(scale.dataset_scale());
    let net = spec.generate().expect("dataset generation");
    let nq = match scale {
        Scale::Tiny => 20,
        _ => 100,
    };
    let xi = match scale {
        Scale::Tiny => 2,
        _ => 10,
    };
    let mut table = Table::new(
        format!("Figure 34: processing time vs tau (NY, Nq={nq}, alpha=30%, xi={xi})"),
        &["tau", "k", "wall clock (ms)"],
    );
    for &tau in &taus {
        let mut graph = net.graph.clone();
        let mut index =
            DtlpIndex::build(&graph, DtlpConfig::new(spec.default_z, xi)).expect("index build");
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.3, tau), 0x34);
        let batch = traffic.next_snapshot();
        graph.apply_batch(&batch).expect("graph update");
        index.apply_batch(&batch).expect("index update");
        let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(nq, 2), 0x34);
        let engine = KspDgEngine::new(&index);
        for &k in &ks {
            let t0 = Instant::now();
            for q in workload.iter() {
                let _ = engine.query(q.source, q.target, k);
            }
            table.row(vec![format!("{}%", (tau * 100.0) as u32), k.to_string(), ms(t0.elapsed())]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig26_iterations_grow_or_stay_flat_with_k() {
        let tables = fig26(Scale::Tiny);
        assert!(tables[0].num_rows() >= 3);
    }
}
