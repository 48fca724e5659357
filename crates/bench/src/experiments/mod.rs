//! One experiment per table/figure of the paper's evaluation (Section 6).
//!
//! Each function builds its inputs deterministically from the dataset presets, runs
//! the relevant operations, and returns a [`crate::report::Table`] with the same
//! rows/series the paper reports. The `experiments` binary prints them; integration
//! tests run the tiny-scale versions as smoke tests.

pub mod baselines;
pub mod dtlp;
pub mod kspdg;
pub mod scaling;

use crate::report::Table;
use crate::Scale;

/// One experiment: its command-line id, what it reproduces, and how to run it.
type Experiment = (&'static str, &'static str, fn(Scale) -> Vec<Table>);

/// Every experiment, keyed by the identifier used on the command line.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", "Table 1: dataset statistics and partitioning", dtlp::table1),
    ("table3", "Table 3: skeleton-graph size vs z", dtlp::table3),
    ("fig15_18", "Figures 15-18: DTLP construction cost vs z (all datasets)", dtlp::fig15_18),
    ("fig19", "Figure 19: DTLP maintenance cost, directed vs undirected", dtlp::fig19),
    ("fig20", "Figure 20: build and maintenance time vs graph size", dtlp::fig20),
    ("fig21", "Figure 21: update throughput and latency vs graph size", dtlp::fig21),
    ("fig22", "Figure 22: maintenance time vs xi", dtlp::fig22),
    ("fig23", "Figure 23: maintenance time vs alpha", dtlp::fig23),
    ("fig24", "Figure 24: iterations vs xi", kspdg::fig24),
    ("fig25", "Figure 25: iterations vs tau", kspdg::fig25),
    ("fig26", "Figure 26: iterations vs k", kspdg::fig26),
    ("fig27", "Figure 27: iterations vs alpha", kspdg::fig27),
    ("fig28_31", "Figures 28-31: query processing time vs z and k (all datasets)", kspdg::fig28_31),
    ("fig32", "Figure 32: processing time vs number of queries", kspdg::fig32),
    ("fig33", "Figure 33: processing time vs xi", kspdg::fig33),
    ("fig34", "Figure 34: processing time vs tau", kspdg::fig34),
    ("fig35_38", "Figures 35-38: KSP-DG vs FindKSP vs Yen, scaling with Nq", baselines::fig35_38),
    ("fig39", "Figure 39: KSP-DG vs FindKSP vs Yen, scaling with k", baselines::fig39),
    ("fig40", "Figure 40: KSP-DG vs CANDS, query processing (k=1)", baselines::fig40),
    ("fig41", "Figure 41: KSP-DG vs CANDS, index maintenance", baselines::fig41),
    ("fig42", "Figure 42: DTLP building time vs number of servers", scaling::fig42),
    ("fig43", "Figure 43: query processing time vs number of servers", scaling::fig43),
    ("fig44", "Figure 44: processing time vs servers for several k", scaling::fig44),
    ("fig45", "Figure 45: scalability comparison vs servers", scaling::fig45),
    ("fig46", "Figure 46: relative speedups vs servers", scaling::fig46),
    ("loadbal", "Section 6.6: per-server CPU/memory load balance", scaling::load_balance),
];

/// The full catalogue of experiments as `(id, description)`, in run order.
pub fn catalogue() -> Vec<(&'static str, &'static str)> {
    EXPERIMENTS.iter().map(|&(id, description, _)| (id, description)).collect()
}

/// Runs one experiment by id. Returns the tables it produced.
pub fn run(id: &str, scale: Scale) -> Option<Vec<Table>> {
    EXPERIMENTS
        .iter()
        .find(|&&(known, _, _)| known == id)
        .map(|&(_, _, experiment)| experiment(scale))
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
