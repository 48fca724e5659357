//! Comparison with the baseline algorithms (Figures 35–41).

use crate::cluster::{Cluster, ClusterConfig, QuerySpec};
use crate::experiments::cands::CandsIndex;
use crate::experiments::datasets_for;
use crate::report::{ms, Table};
use crate::Scale;
use ksp_algo::{find_ksp, yen_ksp};
use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_workload::{
    DatasetPreset, QueryWorkload, QueryWorkloadConfig, TrafficConfig, TrafficModel,
};
use std::time::{Duration, Instant};

const DEFAULT_SERVERS: usize = 10;

fn query_specs(workload: &QueryWorkload) -> Vec<QuerySpec> {
    workload.iter().map(|q| QuerySpec { source: q.source, target: q.target, k: q.k }).collect()
}

/// Runs the centralized baselines (Yen and FindKSP) over a workload and returns the
/// elapsed wall-clock time of each.
fn run_centralized(
    graph: &ksp_graph::DynamicGraph,
    workload: &QueryWorkload,
) -> (Duration, Duration) {
    let t0 = Instant::now();
    for q in workload.iter() {
        let _ = find_ksp(graph, q.source, q.target, q.k);
    }
    let findksp = t0.elapsed();
    let t1 = Instant::now();
    for q in workload.iter() {
        let _ = yen_ksp(graph, q.source, q.target, q.k);
    }
    let yen = t1.elapsed();
    (findksp, yen)
}

/// Figures 35–38: KSP-DG vs FindKSP vs Yen, total processing time as the number of
/// concurrent queries grows, per dataset.
pub fn fig35_38(scale: Scale) -> Vec<Table> {
    let xi = match scale {
        Scale::Tiny => 2,
        _ => 10,
    };
    let mut table = Table::new(
        "Figures 35-38: KSP-DG vs FindKSP vs Yen, processing time vs Nq (k=2)",
        &["dataset", "Nq", "KSP-DG (ms)", "FindKSP (ms)", "Yen (ms)"],
    );
    for preset in datasets_for(scale) {
        let spec = preset.spec(scale.dataset_scale());
        let net = spec.generate().expect("dataset generation");
        let (cluster, _) = Cluster::build(
            &net.graph,
            ClusterConfig::new(DEFAULT_SERVERS, DtlpConfig::new(spec.default_z, xi)),
        )
        .expect("cluster build");
        let max_nq = *scale.nq_sweep().last().unwrap();
        let full = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(max_nq, 2), 0x35);
        for nq in scale.nq_sweep() {
            let workload = full.prefix(nq);
            let report = cluster.process_queries(&query_specs(&workload));
            let (findksp, yen) = run_centralized(&net.graph, &workload);
            table.row(vec![
                preset.short_name().to_string(),
                nq.to_string(),
                ms(report.wall_clock),
                ms(findksp),
                ms(yen),
            ]);
        }
    }
    vec![table]
}

/// Figure 39: the three algorithms as k grows (FLA in the paper; the largest dataset at
/// this scale here).
pub fn fig39(scale: Scale) -> Vec<Table> {
    let ks: Vec<usize> = match scale {
        Scale::Tiny => vec![2, 4, 6],
        _ => vec![2, 4, 8, 12, 16, 20],
    };
    let nq = match scale {
        Scale::Tiny => 15,
        _ => 100,
    };
    let xi = match scale {
        Scale::Tiny => 2,
        _ => 10,
    };
    let preset = match scale {
        Scale::Tiny => DatasetPreset::Colorado,
        _ => DatasetPreset::Florida,
    };
    let spec = preset.spec(scale.dataset_scale());
    let net = spec.generate().expect("dataset generation");
    let (cluster, _) = Cluster::build(
        &net.graph,
        ClusterConfig::new(DEFAULT_SERVERS, DtlpConfig::new(spec.default_z, xi)),
    )
    .expect("cluster build");
    let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(nq, 2), 0x39);
    let mut table = Table::new(
        format!("Figure 39: processing time vs k ({}, Nq={nq})", preset.short_name()),
        &["k", "KSP-DG (ms)", "FindKSP (ms)", "Yen (ms)"],
    );
    for &k in &ks {
        let wk = workload.with_k(k);
        let report = cluster.process_queries(&query_specs(&wk));
        let (findksp, yen) = run_centralized(&net.graph, &wk);
        table.row(vec![k.to_string(), ms(report.wall_clock), ms(findksp), ms(yen)]);
    }
    vec![table]
}

/// Figure 40: KSP-DG vs CANDS on single-shortest-path (k = 1) query batches.
pub fn fig40(scale: Scale) -> Vec<Table> {
    let nq = match scale {
        Scale::Tiny => 40,
        _ => 500,
    };
    let xi = match scale {
        Scale::Tiny => 2,
        _ => 10,
    };
    let mut table = Table::new(
        format!("Figure 40: KSP-DG vs CANDS, {nq} single-shortest-path queries"),
        &["dataset", "KSP-DG (ms)", "CANDS (ms)"],
    );
    for preset in datasets_for(scale) {
        if preset == DatasetPreset::CentralUsa {
            continue; // the paper's Figures 40-41 cover NY, COL and FLA
        }
        let spec = preset.spec(scale.dataset_scale());
        let net = spec.generate().expect("dataset generation");
        let (cluster, _) = Cluster::build(
            &net.graph,
            ClusterConfig::new(DEFAULT_SERVERS, DtlpConfig::new(spec.default_z, xi)),
        )
        .expect("cluster build");
        let cands = CandsIndex::build(&net.graph, spec.default_z).expect("CANDS build");
        let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(nq, 1), 0x40);

        let report = cluster.process_queries(&query_specs(&workload));
        let t0 = Instant::now();
        for q in workload.iter() {
            let _ = cands.shortest_path(q.source, q.target);
        }
        let cands_time = t0.elapsed();
        table.row(vec![preset.short_name().to_string(), ms(report.wall_clock), ms(cands_time)]);
    }
    vec![table]
}

/// Figure 41: index maintenance cost of KSP-DG (DTLP) vs CANDS under the same update
/// stream (α = 50 %, τ = 50 %).
pub fn fig41(scale: Scale) -> Vec<Table> {
    let xi = match scale {
        Scale::Tiny => 2,
        _ => 10,
    };
    let mut table = Table::new(
        "Figure 41: index maintenance time, DTLP vs CANDS (alpha=50%, tau=50%)",
        &["dataset", "updates", "DTLP (ms)", "CANDS (ms)"],
    );
    for preset in datasets_for(scale) {
        if preset == DatasetPreset::CentralUsa {
            continue;
        }
        let spec = preset.spec(scale.dataset_scale());
        let net = spec.generate().expect("dataset generation");
        let mut dtlp =
            DtlpIndex::build(&net.graph, DtlpConfig::new(spec.default_z, xi)).expect("build");
        let mut cands = CandsIndex::build(&net.graph, spec.default_z).expect("CANDS build");
        let mut traffic = TrafficModel::new(&net.graph, TrafficConfig::new(0.5, 0.5), 0x41);
        let batch = traffic.next_snapshot();

        let t0 = Instant::now();
        dtlp.apply_batch(&batch).expect("DTLP maintenance");
        let dtlp_time = t0.elapsed();
        let t1 = Instant::now();
        cands.apply_batch(&batch).expect("CANDS maintenance");
        let cands_time = t1.elapsed();
        table.row(vec![
            preset.short_name().to_string(),
            batch.len().to_string(),
            ms(dtlp_time),
            ms(cands_time),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig41_reports_both_systems() {
        let tables = fig41(Scale::Tiny);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].num_rows() >= 1);
        assert!(tables[0].render().contains("CANDS"));
    }
}
