//! Named dataset presets mirroring the paper's four road networks at reduced scale.
//!
//! Table 1 of the paper lists the four DIMACS datasets together with their default
//! subgraph capacity `z`. The presets below preserve the *relative* sizes
//! (NY < COL < FLA ≪ CUSA) and the default `z` proportions at a scale that builds and
//! queries in seconds on a single machine, which is what the benchmark harness uses by
//! default. The `Full` scale matches the paper's vertex counts and can be used when the
//! real DIMACS files are available (see [`crate::dimacs`]).

use crate::synthetic::{GeneratedNetwork, RoadNetworkConfig, RoadNetworkGenerator};
use ksp_graph::GraphError;

/// The four datasets of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetPreset {
    /// New York City road network (smallest).
    NewYork,
    /// Colorado road network.
    Colorado,
    /// Florida road network.
    Florida,
    /// Central USA road network (largest).
    CentralUsa,
}

impl DatasetPreset {
    /// All presets, in the order the paper reports them.
    pub const ALL: [DatasetPreset; 4] = [
        DatasetPreset::NewYork,
        DatasetPreset::Colorado,
        DatasetPreset::Florida,
        DatasetPreset::CentralUsa,
    ];

    /// Short name used in figures and tables ("NY", "COL", "FLA", "CUSA").
    pub fn short_name(self) -> &'static str {
        match self {
            DatasetPreset::NewYork => "NY",
            DatasetPreset::Colorado => "COL",
            DatasetPreset::Florida => "FLA",
            DatasetPreset::CentralUsa => "CUSA",
        }
    }

    /// Number of vertices in the *paper's* full dataset (Table 1).
    pub fn paper_vertices(self) -> usize {
        match self {
            DatasetPreset::NewYork => 264_346,
            DatasetPreset::Colorado => 435_666,
            DatasetPreset::Florida => 1_070_376,
            DatasetPreset::CentralUsa => 14_081_816,
        }
    }

    /// Number of edges in the *paper's* full dataset (Table 1).
    pub fn paper_edges(self) -> usize {
        match self {
            DatasetPreset::NewYork => 733_846,
            DatasetPreset::Colorado => 1_057_066,
            DatasetPreset::Florida => 2_712_798,
            DatasetPreset::CentralUsa => 34_292_496,
        }
    }

    /// The default subgraph capacity `z` the paper uses for this dataset.
    pub fn paper_default_z(self) -> usize {
        match self {
            DatasetPreset::NewYork => 200,
            DatasetPreset::Colorado => 200,
            DatasetPreset::Florida => 500,
            DatasetPreset::CentralUsa => 1000,
        }
    }

    /// The range of `z` values swept in the construction-cost figures (Figs. 15–18).
    pub fn paper_z_sweep(self) -> Vec<usize> {
        match self {
            DatasetPreset::NewYork => vec![50, 100, 150, 200, 250],
            DatasetPreset::Colorado => vec![100, 150, 200, 250, 300],
            DatasetPreset::Florida => vec![300, 350, 400, 450, 500],
            DatasetPreset::CentralUsa => vec![800, 900, 1000, 1100, 1200],
        }
    }

    /// Builds the specification at the reduced benchmark scale.
    pub fn spec(self, scale: DatasetScale) -> DatasetSpec {
        DatasetSpec::new(self, scale)
    }
}

/// How large the generated instance of a preset should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetScale {
    /// Tiny instances for unit/integration tests (hundreds of vertices).
    Tiny,
    /// The default benchmark scale (thousands of vertices); keeps the relative sizes
    /// NY < COL < FLA < CUSA.
    Small,
    /// A larger scale for longer benchmark runs (tens of thousands of vertices).
    Medium,
}

impl DatasetScale {
    fn vertex_budget(self, preset: DatasetPreset) -> usize {
        // Relative sizes follow Table 1: COL ≈ 1.6×NY, FLA ≈ 4×NY, CUSA ≈ 53×NY.
        // CUSA is capped at a smaller multiple so single-machine runs stay feasible;
        // it is still by far the largest dataset.
        let ny = match self {
            DatasetScale::Tiny => 220,
            DatasetScale::Small => 2_400,
            DatasetScale::Medium => 9_000,
        };
        match preset {
            DatasetPreset::NewYork => ny,
            DatasetPreset::Colorado => ny * 16 / 10,
            DatasetPreset::Florida => ny * 4,
            DatasetPreset::CentralUsa => match self {
                DatasetScale::Tiny => ny * 8,
                _ => ny * 12,
            },
        }
    }

    fn z_scale_factor(self) -> f64 {
        match self {
            DatasetScale::Tiny => 0.08,
            DatasetScale::Small => 0.25,
            DatasetScale::Medium => 0.5,
        }
    }
}

/// A concrete dataset specification: preset + scale, with derived generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Which of the paper's datasets this instance mirrors.
    pub preset: DatasetPreset,
    /// The scale the instance is generated at.
    pub scale: DatasetScale,
    /// Number of vertices the generated instance targets.
    pub num_vertices: usize,
    /// Default subgraph capacity `z`, scaled in proportion to the paper's default.
    pub default_z: usize,
    /// Deterministic seed used for generation.
    pub seed: u64,
}

impl DatasetSpec {
    /// Creates the specification for a preset at the given scale.
    pub fn new(preset: DatasetPreset, scale: DatasetScale) -> Self {
        let num_vertices = scale.vertex_budget(preset);
        let default_z =
            ((preset.paper_default_z() as f64 * scale.z_scale_factor()).round() as usize).max(8);
        let seed = 0xD1A5_0000
            + match preset {
                DatasetPreset::NewYork => 1,
                DatasetPreset::Colorado => 2,
                DatasetPreset::Florida => 3,
                DatasetPreset::CentralUsa => 4,
            };
        DatasetSpec { preset, scale, num_vertices, default_z, seed }
    }

    /// The sweep of `z` values to use for this instance, scaled from the paper's sweep.
    pub fn z_sweep(&self) -> Vec<usize> {
        self.preset
            .paper_z_sweep()
            .into_iter()
            .map(|z| ((z as f64 * self.scale.z_scale_factor()).round() as usize).max(6))
            .collect()
    }

    /// Generates the road network for this specification (undirected).
    pub fn generate(&self) -> Result<GeneratedNetwork, GraphError> {
        let cfg = RoadNetworkConfig::with_vertices(self.num_vertices);
        RoadNetworkGenerator::new(cfg).generate(self.seed)
    }

    /// Generates the directed variant of this dataset (used by the directed-graph
    /// maintenance comparison of Fig. 19).
    pub fn generate_directed(&self) -> Result<GeneratedNetwork, GraphError> {
        let cfg = RoadNetworkConfig::with_vertices(self.num_vertices).directed();
        RoadNetworkGenerator::new(cfg).generate(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::is_connected_undirected;

    #[test]
    fn presets_report_paper_statistics() {
        assert_eq!(DatasetPreset::NewYork.paper_vertices(), 264_346);
        assert_eq!(DatasetPreset::CentralUsa.paper_edges(), 34_292_496);
        assert_eq!(DatasetPreset::Florida.paper_default_z(), 500);
        assert_eq!(DatasetPreset::ALL.len(), 4);
        assert_eq!(DatasetPreset::Colorado.short_name(), "COL");
    }

    #[test]
    fn relative_sizes_are_preserved_at_small_scale() {
        let sizes: Vec<usize> =
            DatasetPreset::ALL.iter().map(|p| p.spec(DatasetScale::Small).num_vertices).collect();
        assert!(sizes[0] < sizes[1], "NY must be smaller than COL");
        assert!(sizes[1] < sizes[2], "COL must be smaller than FLA");
        assert!(sizes[2] < sizes[3], "FLA must be smaller than CUSA");
    }

    #[test]
    fn default_z_scales_with_paper_default() {
        let ny = DatasetPreset::NewYork.spec(DatasetScale::Small);
        let fla = DatasetPreset::Florida.spec(DatasetScale::Small);
        assert!(fla.default_z > ny.default_z);
        assert_eq!(ny.default_z, 50); // 200 * 0.25
        assert_eq!(fla.default_z, 125); // 500 * 0.25
    }

    #[test]
    fn z_sweep_is_monotone_and_nonempty() {
        for preset in DatasetPreset::ALL {
            let spec = preset.spec(DatasetScale::Tiny);
            let sweep = spec.z_sweep();
            assert!(!sweep.is_empty());
            assert!(sweep.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn tiny_datasets_generate_connected_networks() {
        for preset in [DatasetPreset::NewYork, DatasetPreset::Colorado] {
            let net = preset.spec(DatasetScale::Tiny).generate().unwrap();
            assert!(is_connected_undirected(&net.graph));
            assert!(net.graph.num_vertices() > 100);
        }
    }

    #[test]
    fn generation_is_deterministic_per_spec() {
        let spec = DatasetPreset::NewYork.spec(DatasetScale::Tiny);
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    }

    #[test]
    fn directed_generation_produces_directed_graph() {
        let net = DatasetPreset::NewYork.spec(DatasetScale::Tiny).generate_directed().unwrap();
        assert!(net.graph.is_directed());
    }
}
