//! Scaling-out experiments (Figures 42–46) and the load-balance report of Section 6.6.

use crate::cluster::{Cluster, ClusterConfig, QuerySpec};
use crate::report::{f2, ms, Table};
use crate::Scale;
use ksp_algo::{find_ksp, yen_ksp};
use ksp_core::dtlp::DtlpConfig;
use ksp_workload::{DatasetPreset, QueryWorkload, QueryWorkloadConfig};
use std::time::{Duration, Instant};

fn query_specs(workload: &QueryWorkload) -> Vec<QuerySpec> {
    workload.iter().map(|q| QuerySpec { source: q.source, target: q.target, k: q.k }).collect()
}

fn scaling_datasets(scale: Scale) -> Vec<DatasetPreset> {
    match scale {
        Scale::Tiny => vec![DatasetPreset::NewYork],
        _ => vec![DatasetPreset::NewYork, DatasetPreset::Colorado, DatasetPreset::Florida],
    }
}

fn xi_for(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 2,
        _ => 5,
    }
}

/// Figure 42: DTLP build time as the number of servers grows.
pub fn fig42(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 42: DTLP building time vs number of servers",
        &["dataset", "servers", "wall clock (ms)", "simulated makespan (ms)"],
    );
    for preset in scaling_datasets(scale) {
        let spec = preset.spec(scale.dataset_scale());
        let net = spec.generate().expect("dataset generation");
        for servers in scale.server_sweep() {
            let (_, report) = Cluster::build(
                &net.graph,
                ClusterConfig::new(servers, DtlpConfig::new(spec.default_z, xi_for(scale))),
            )
            .expect("cluster build");
            table.row(vec![
                preset.short_name().to_string(),
                servers.to_string(),
                ms(report.wall_clock),
                ms(report.load_balance.simulated_makespan()),
            ]);
        }
    }
    vec![table]
}

/// Figure 43: query-batch processing time as the number of servers grows.
pub fn fig43(scale: Scale) -> Vec<Table> {
    let nq = scale.default_num_queries();
    let mut table = Table::new(
        format!("Figure 43: processing time of {nq} queries vs number of servers (k=2)"),
        &["dataset", "servers", "wall clock (ms)", "simulated makespan (ms)"],
    );
    for preset in scaling_datasets(scale) {
        let spec = preset.spec(scale.dataset_scale());
        let net = spec.generate().expect("dataset generation");
        let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(nq, 2), 0x43);
        for servers in scale.server_sweep() {
            let (cluster, _) = Cluster::build(
                &net.graph,
                ClusterConfig::new(servers, DtlpConfig::new(spec.default_z, xi_for(scale))),
            )
            .expect("cluster build");
            let report = cluster.process_queries(&query_specs(&workload));
            table.row(vec![
                preset.short_name().to_string(),
                servers.to_string(),
                ms(report.wall_clock),
                ms(report.simulated_makespan()),
            ]);
        }
    }
    vec![table]
}

/// Figure 44: processing time vs servers for several values of k (NY).
pub fn fig44(scale: Scale) -> Vec<Table> {
    let ks: Vec<usize> = match scale {
        Scale::Tiny => vec![2, 4],
        _ => vec![2, 4, 6, 8, 10],
    };
    let nq = scale.default_num_queries();
    let preset = DatasetPreset::NewYork;
    let spec = preset.spec(scale.dataset_scale());
    let net = spec.generate().expect("dataset generation");
    let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(nq, 2), 0x44);
    let mut table = Table::new(
        format!("Figure 44: processing time vs servers for several k (NY, Nq={nq})"),
        &["servers", "k", "simulated makespan (ms)"],
    );
    for servers in scale.server_sweep() {
        let (cluster, _) = Cluster::build(
            &net.graph,
            ClusterConfig::new(servers, DtlpConfig::new(spec.default_z, xi_for(scale))),
        )
        .expect("cluster build");
        for &k in &ks {
            let report = cluster.process_queries(&query_specs(&workload.with_k(k)));
            table.row(vec![servers.to_string(), k.to_string(), ms(report.simulated_makespan())]);
        }
    }
    vec![table]
}

/// Figure 45: scalability comparison of KSP-DG, FindKSP and Yen as servers grow.
///
/// FindKSP and Yen are centralised; as in the paper they are "distributed" by running
/// on every server individually with the queries spread evenly, so their simulated
/// time is the centralised time divided by the number of servers.
pub fn fig45(scale: Scale) -> Vec<Table> {
    let nq = scale.default_num_queries();
    let preset = DatasetPreset::NewYork;
    let spec = preset.spec(scale.dataset_scale());
    let net = spec.generate().expect("dataset generation");
    let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(nq, 2), 0x45);

    // Centralised single-server times, reused for the divided estimate.
    let t0 = Instant::now();
    for q in workload.iter() {
        let _ = find_ksp(&net.graph, q.source, q.target, q.k);
    }
    let findksp_total = t0.elapsed();
    let t1 = Instant::now();
    for q in workload.iter() {
        let _ = yen_ksp(&net.graph, q.source, q.target, q.k);
    }
    let yen_total = t1.elapsed();

    let mut table = Table::new(
        format!("Figure 45: scalability comparison (NY, Nq={nq}, k=2)"),
        &["servers", "KSP-DG (ms)", "FindKSP (ms)", "Yen (ms)"],
    );
    for servers in scale.server_sweep() {
        let (cluster, _) = Cluster::build(
            &net.graph,
            ClusterConfig::new(servers, DtlpConfig::new(spec.default_z, xi_for(scale))),
        )
        .expect("cluster build");
        let report = cluster.process_queries(&query_specs(&workload));
        let divide = |d: Duration| Duration::from_secs_f64(d.as_secs_f64() / servers as f64);
        table.row(vec![
            servers.to_string(),
            ms(report.simulated_makespan()),
            ms(divide(findksp_total)),
            ms(divide(yen_total)),
        ]);
    }
    vec![table]
}

/// Figure 46: relative speedups (time on 2 servers divided by time on Ns servers).
pub fn fig46(scale: Scale) -> Vec<Table> {
    let nq = scale.default_num_queries();
    let preset = DatasetPreset::NewYork;
    let spec = preset.spec(scale.dataset_scale());
    let net = spec.generate().expect("dataset generation");
    let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(nq, 2), 0x46);

    let mut makespans = Vec::new();
    for servers in scale.server_sweep() {
        let (cluster, _) = Cluster::build(
            &net.graph,
            ClusterConfig::new(servers, DtlpConfig::new(spec.default_z, xi_for(scale))),
        )
        .expect("cluster build");
        let report = cluster.process_queries(&query_specs(&workload));
        makespans.push((servers, report.simulated_makespan()));
    }
    let baseline = makespans[0].1;
    let base_servers = makespans[0].0;
    let mut table = Table::new(
        format!("Figure 46: relative speedup of KSP-DG vs {base_servers} servers (NY, Nq={nq})"),
        &["servers", "simulated makespan (ms)", "relative speedup"],
    );
    for (servers, makespan) in makespans {
        let speedup = baseline.as_secs_f64() / makespan.as_secs_f64().max(1e-9);
        table.row(vec![servers.to_string(), ms(makespan), f2(speedup)]);
    }
    vec![table]
}

/// Section 6.6: per-server busy-time and memory spread across cluster sizes.
pub fn load_balance(scale: Scale) -> Vec<Table> {
    let nq = scale.default_num_queries();
    let preset = match scale {
        Scale::Tiny => DatasetPreset::Colorado,
        _ => DatasetPreset::CentralUsa,
    };
    let spec = preset.spec(scale.dataset_scale());
    let net = spec.generate().expect("dataset generation");
    let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(nq, 2), 0x66);
    let mut table = Table::new(
        format!("Section 6.6: load balance across servers ({})", preset.short_name()),
        &["servers", "busy spread (%)", "memory spread (%)"],
    );
    for servers in scale.server_sweep() {
        let (cluster, build) = Cluster::build(
            &net.graph,
            ClusterConfig::new(servers, DtlpConfig::new(spec.default_z, xi_for(scale))),
        )
        .expect("cluster build");
        let report = cluster.process_queries(&query_specs(&workload));
        let busy = report.load_balance.busy_spread * 100.0;
        let memory = build.load_balance.memory_spread * 100.0;
        table.row(vec![servers.to_string(), f2(busy), f2(memory)]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig46_speedups_are_positive() {
        let tables = fig46(Scale::Tiny);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].num_rows() >= 3);
    }
}
