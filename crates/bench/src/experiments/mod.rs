//! One experiment per table/figure of the paper's evaluation (Section 6).
//!
//! Each function builds its inputs deterministically from the dataset presets, runs
//! the relevant operations, and returns a [`crate::report::Table`] with the same
//! rows/series the paper reports. The `experiments` binary prints them; integration
//! tests run the tiny-scale versions as smoke tests.

pub mod ablation;
pub mod baselines;
pub mod dtlp;
pub mod kspdg;
pub mod scaling;

use crate::report::Table;
use crate::Scale;

/// The full catalogue of experiments, keyed by the identifier used on the command line
/// and in `DESIGN.md` / `EXPERIMENTS.md`.
pub fn catalogue() -> Vec<(&'static str, &'static str)> {
    vec![
        ("table1", "Table 1: dataset statistics and partitioning"),
        ("table3", "Table 3: skeleton-graph size vs z"),
        ("fig15_18", "Figures 15-18: DTLP construction cost vs z (all datasets)"),
        ("fig19", "Figure 19: DTLP maintenance cost, directed vs undirected"),
        ("fig20", "Figure 20: build and maintenance time vs graph size"),
        ("fig21", "Figure 21: update throughput and latency vs graph size"),
        ("fig22", "Figure 22: maintenance time vs xi"),
        ("fig23", "Figure 23: maintenance time vs alpha"),
        ("fig24", "Figure 24: iterations vs xi"),
        ("fig25", "Figure 25: iterations vs tau"),
        ("fig26", "Figure 26: iterations vs k"),
        ("fig27", "Figure 27: iterations vs alpha"),
        ("fig28_31", "Figures 28-31: query processing time vs z and k (all datasets)"),
        ("fig32", "Figure 32: processing time vs number of queries"),
        ("fig33", "Figure 33: processing time vs xi"),
        ("fig34", "Figure 34: processing time vs tau"),
        ("fig35_38", "Figures 35-38: KSP-DG vs FindKSP vs Yen, scaling with Nq"),
        ("fig39", "Figure 39: KSP-DG vs FindKSP vs Yen, scaling with k"),
        ("fig40", "Figure 40: KSP-DG vs CANDS, query processing (k=1)"),
        ("fig41", "Figure 41: KSP-DG vs CANDS, index maintenance"),
        ("fig42", "Figure 42: DTLP building time vs number of servers"),
        ("fig43", "Figure 43: query processing time vs number of servers"),
        ("fig44", "Figure 44: processing time vs servers for several k"),
        ("fig45", "Figure 45: scalability comparison vs servers"),
        ("fig46", "Figure 46: relative speedups vs servers"),
        ("loadbal", "Section 6.6: per-server CPU/memory load balance"),
        ("ablation", "Ablation: vfrags, xi, MFP-tree backend, partial-path cache"),
    ]
}

/// Runs one experiment by id. Returns the tables it produced.
pub fn run(id: &str, scale: Scale) -> Option<Vec<Table>> {
    let tables = match id {
        "table1" => dtlp::table1(scale),
        "table3" => dtlp::table3(scale),
        "fig15_18" => dtlp::fig15_18(scale),
        "fig19" => dtlp::fig19(scale),
        "fig20" => dtlp::fig20(scale),
        "fig21" => dtlp::fig21(scale),
        "fig22" => dtlp::fig22(scale),
        "fig23" => dtlp::fig23(scale),
        "fig24" => kspdg::fig24(scale),
        "fig25" => kspdg::fig25(scale),
        "fig26" => kspdg::fig26(scale),
        "fig27" => kspdg::fig27(scale),
        "fig28_31" => kspdg::fig28_31(scale),
        "fig32" => kspdg::fig32(scale),
        "fig33" => kspdg::fig33(scale),
        "fig34" => kspdg::fig34(scale),
        "fig35_38" => baselines::fig35_38(scale),
        "fig39" => baselines::fig39(scale),
        "fig40" => baselines::fig40(scale),
        "fig41" => baselines::fig41(scale),
        "fig42" => scaling::fig42(scale),
        "fig43" => scaling::fig43(scale),
        "fig44" => scaling::fig44(scale),
        "fig45" => scaling::fig45(scale),
        "fig46" => scaling::fig46(scale),
        "loadbal" => scaling::load_balance(scale),
        "ablation" => ablation::run(scale),
        _ => return None,
    };
    Some(tables)
}

/// Datasets included at a given scale. CUSA is excluded from the tiny scale to keep the
/// smoke tests fast; every other experiment keeps the full four-dataset sweep.
pub fn datasets_for(scale: Scale) -> Vec<ksp_workload::DatasetPreset> {
    use ksp_workload::DatasetPreset::*;
    match scale {
        Scale::Tiny => vec![NewYork, Colorado],
        _ => vec![NewYork, Colorado, Florida, CentralUsa],
    }
}
