//! Experiments on DTLP construction and maintenance (Table 1, Table 3, Figures 15–23).

use crate::experiments::datasets_for;
use crate::report::{f2, mib, ms, Table};
use crate::Scale;
use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_workload::{
    DatasetPreset, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel,
};
use std::time::Instant;

fn default_xi(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 2,
        _ => 5,
    }
}

/// Table 1: dataset statistics, number of subgraphs (and with > 5 boundary vertices),
/// and skeleton size at the default z.
pub fn table1(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Table 1: road network datasets (scaled) and partitioning statistics",
        &[
            "dataset",
            "vertices",
            "edges",
            "z",
            "#subgraphs",
            "#subgraphs(nb>5)",
            "skeleton vertices",
        ],
    );
    for preset in datasets_for(scale) {
        let spec = preset.spec(scale.dataset_scale());
        let net = spec.generate().expect("dataset generation");
        let index =
            DtlpIndex::build(&net.graph, DtlpConfig::new(spec.default_z, 1)).expect("index build");
        let stats = index.build_stats();
        table.row(vec![
            preset.short_name().to_string(),
            net.graph.num_vertices().to_string(),
            net.graph.num_edges().to_string(),
            spec.default_z.to_string(),
            stats.num_subgraphs.to_string(),
            stats.num_subgraphs_boundary_over_5.to_string(),
            stats.num_boundary_vertices.to_string(),
        ]);
    }
    vec![table]
}

/// Table 3: number of skeleton vertices as z varies.
pub fn table3(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Table 3: skeleton graph size with varying z",
        &["dataset", "z", "skeleton vertices", "skeleton edges", "#subgraphs"],
    );
    for preset in datasets_for(scale) {
        let spec = preset.spec(scale.dataset_scale());
        let net = spec.generate().expect("dataset generation");
        for z in spec.z_sweep() {
            let index = DtlpIndex::build(&net.graph, DtlpConfig::new(z, 1)).expect("index build");
            table.row(vec![
                preset.short_name().to_string(),
                z.to_string(),
                index.build_stats().num_boundary_vertices.to_string(),
                index.skeleton().num_skeleton_edges().to_string(),
                index.num_subgraphs().to_string(),
            ]);
        }
    }
    vec![table]
}

/// Figures 15–18: DTLP construction time and memory vs z, for every dataset, plus the
/// directed-vs-undirected comparison the paper runs on CUSA.
pub fn fig15_18(scale: Scale) -> Vec<Table> {
    let xi = default_xi(scale);
    let mut table = Table::new(
        format!("Figures 15-18: DTLP construction cost vs z (xi = {xi})"),
        &[
            "dataset",
            "z",
            "build time (ms)",
            "EP-Index (MiB)",
            "MFP-tree (MiB)",
            "skeleton (MiB)",
            "#bounding paths",
        ],
    );
    for preset in datasets_for(scale) {
        let spec = preset.spec(scale.dataset_scale());
        let net = spec.generate().expect("dataset generation");
        for z in spec.z_sweep() {
            let t0 = Instant::now();
            let index = DtlpIndex::build(&net.graph, DtlpConfig::new(z, xi)).expect("index build");
            let elapsed = t0.elapsed();
            table.row(vec![
                preset.short_name().to_string(),
                z.to_string(),
                ms(elapsed),
                mib(index.level1_memory_bytes()),
                mib(index.mfp_level1_memory_bytes()),
                mib(index.skeleton_memory_bytes()),
                index.build_stats().num_bounding_paths.to_string(),
            ]);
        }
    }

    // Directed vs undirected (Figure 18 inset): the largest dataset at its default z.
    let mut directed_table = Table::new(
        "Figure 18 (inset): directed vs undirected construction",
        &["dataset", "variant", "z", "build time (ms)"],
    );
    let preset = *datasets_for(scale).last().expect("at least one dataset");
    let spec = preset.spec(scale.dataset_scale());
    let undirected = spec.generate().expect("dataset generation");
    let directed = spec.generate_directed().expect("dataset generation");
    for (variant, graph) in [("undirected", &undirected.graph), ("directed", &directed.graph)] {
        let t0 = Instant::now();
        let _ = DtlpIndex::build(graph, DtlpConfig::new(spec.default_z, xi)).expect("index build");
        directed_table.row(vec![
            preset.short_name().to_string(),
            variant.to_string(),
            spec.default_z.to_string(),
            ms(t0.elapsed()),
        ]);
    }
    vec![table, directed_table]
}

/// Figure 19: maintenance cost vs z, directed vs undirected.
pub fn fig19(scale: Scale) -> Vec<Table> {
    let xi = default_xi(scale);
    let mut table = Table::new(
        "Figure 19: DTLP maintenance time vs z, directed vs undirected (alpha=50%, tau=50%)",
        &["dataset", "variant", "z", "maintenance time (ms)", "paths touched"],
    );
    let preset = *datasets_for(scale).last().expect("at least one dataset");
    let spec = preset.spec(scale.dataset_scale());
    for directed in [false, true] {
        let net =
            if directed { spec.generate_directed() } else { spec.generate() }.expect("dataset");
        for z in spec.z_sweep() {
            let mut index =
                DtlpIndex::build(&net.graph, DtlpConfig::new(z, xi)).expect("index build");
            let mut traffic = TrafficModel::new(&net.graph, TrafficConfig::new(0.5, 0.5), 101);
            let batch = traffic.next_snapshot();
            let t0 = Instant::now();
            let stats = index.apply_batch(&batch).expect("maintenance");
            table.row(vec![
                preset.short_name().to_string(),
                if directed { "directed" } else { "undirected" }.to_string(),
                z.to_string(),
                ms(t0.elapsed()),
                stats.paths_touched.to_string(),
            ]);
        }
    }
    vec![table]
}

/// Figure 20: build and maintenance time vs graph size Ng.
pub fn fig20(scale: Scale) -> Vec<Table> {
    let sizes: Vec<usize> = match scale {
        Scale::Tiny => vec![200, 400, 600, 800],
        Scale::Small => vec![1000, 2000, 3000, 4000, 5000],
        Scale::Medium => vec![4000, 8000, 12000, 16000, 20000],
    };
    let mut table = Table::new(
        "Figure 20: DTLP build and maintenance time vs graph size (xi=10 scaled, alpha=50%)",
        &["Ng (vertices)", "build time (ms)", "maintenance time (ms)"],
    );
    let xi = default_xi(scale) * 2;
    for n in sizes {
        let net = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n))
            .generate(0x000F_1620)
            .expect("network generation");
        let z = (n / 20).clamp(10, 400);
        let t0 = Instant::now();
        let mut index = DtlpIndex::build(&net.graph, DtlpConfig::new(z, xi)).expect("index build");
        let build = t0.elapsed();
        let mut traffic = TrafficModel::new(&net.graph, TrafficConfig::new(0.5, 0.5), 7);
        let batch = traffic.next_snapshot();
        let t1 = Instant::now();
        index.apply_batch(&batch).expect("maintenance");
        table.row(vec![net.graph.num_vertices().to_string(), ms(build), ms(t1.elapsed())]);
    }
    vec![table]
}

/// Figure 21: update throughput (edges/s) and per-update latency vs graph size.
pub fn fig21(scale: Scale) -> Vec<Table> {
    let sizes: Vec<usize> = match scale {
        Scale::Tiny => vec![200, 400, 600],
        Scale::Small => vec![1000, 2000, 3000, 4000, 5000],
        Scale::Medium => vec![4000, 8000, 12000, 16000, 20000],
    };
    let rounds = match scale {
        Scale::Tiny => 5,
        _ => 20,
    };
    let mut table = Table::new(
        "Figure 21: update throughput and per-update latency vs graph size",
        &["Ng (vertices)", "updates applied", "throughput (edges/s)", "per-update latency (us)"],
    );
    let xi = default_xi(scale) * 2;
    for n in sizes {
        let net = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n))
            .generate(0x000F_1621)
            .expect("network generation");
        let z = (n / 20).clamp(10, 400);
        let mut index = DtlpIndex::build(&net.graph, DtlpConfig::new(z, xi)).expect("index build");
        let mut traffic = TrafficModel::new(&net.graph, TrafficConfig::new(0.5, 0.5), 11);
        let mut total_updates = 0usize;
        let t0 = Instant::now();
        for _ in 0..rounds {
            let batch = traffic.next_snapshot();
            total_updates += batch.len();
            index.apply_batch(&batch).expect("maintenance");
        }
        let elapsed = t0.elapsed();
        let throughput = total_updates as f64 / elapsed.as_secs_f64();
        let latency_us = elapsed.as_secs_f64() * 1e6 / total_updates.max(1) as f64;
        table.row(vec![
            net.graph.num_vertices().to_string(),
            total_updates.to_string(),
            f2(throughput),
            f2(latency_us),
        ]);
    }
    vec![table]
}

/// Figure 22: maintenance time vs ξ.
pub fn fig22(scale: Scale) -> Vec<Table> {
    let xis: Vec<usize> = match scale {
        Scale::Tiny => vec![1, 2, 4, 6],
        _ => vec![5, 10, 15, 20, 25, 30],
    };
    let mut table = Table::new(
        "Figure 22: DTLP maintenance time vs xi (alpha=50%, tau=50%)",
        &["dataset", "xi", "maintenance time (ms)", "paths touched", "level-one (MiB)"],
    );
    for preset in datasets_for(scale) {
        if preset == DatasetPreset::CentralUsa {
            continue; // the paper's Figure 22 shows NY, COL and FLA only
        }
        let spec = preset.spec(scale.dataset_scale());
        let net = spec.generate().expect("dataset generation");
        for &xi in &xis {
            let mut index =
                DtlpIndex::build(&net.graph, DtlpConfig::new(spec.default_z, xi)).expect("build");
            let mut traffic = TrafficModel::new(&net.graph, TrafficConfig::new(0.5, 0.5), 23);
            let batch = traffic.next_snapshot();
            let t0 = Instant::now();
            let stats = index.apply_batch(&batch).expect("maintenance");
            table.row(vec![
                preset.short_name().to_string(),
                xi.to_string(),
                ms(t0.elapsed()),
                stats.paths_touched.to_string(),
                mib(index.level1_memory_bytes()),
            ]);
        }
    }
    vec![table]
}

/// Figure 23: maintenance time vs α.
pub fn fig23(scale: Scale) -> Vec<Table> {
    let alphas = [0.1, 0.2, 0.3, 0.4, 0.5];
    let xi = default_xi(scale) * 2;
    let mut table = Table::new(
        "Figure 23: DTLP maintenance time vs alpha (xi=10 scaled, tau=50%)",
        &["dataset", "alpha", "updates", "maintenance time (ms)"],
    );
    for preset in datasets_for(scale) {
        if preset == DatasetPreset::CentralUsa {
            continue; // matches the paper's figure
        }
        let spec = preset.spec(scale.dataset_scale());
        let net = spec.generate().expect("dataset generation");
        let base_index =
            DtlpIndex::build(&net.graph, DtlpConfig::new(spec.default_z, xi)).expect("build");
        for &alpha in &alphas {
            let mut index = base_index.clone();
            let mut traffic = TrafficModel::new(&net.graph, TrafficConfig::new(alpha, 0.5), 29);
            let batch = traffic.next_snapshot();
            let t0 = Instant::now();
            index.apply_batch(&batch).expect("maintenance");
            table.row(vec![
                preset.short_name().to_string(),
                format!("{}%", (alpha * 100.0) as u32),
                batch.len().to_string(),
                ms(t0.elapsed()),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_produces_one_row_per_dataset() {
        let tables = table1(Scale::Tiny);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].num_rows(), datasets_for(Scale::Tiny).len());
    }

    #[test]
    fn fig20_rows_cover_all_sizes() {
        let tables = fig20(Scale::Tiny);
        assert_eq!(tables[0].num_rows(), 4);
        assert!(tables[0].render().contains("build time"));
    }
}
