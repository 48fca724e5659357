//! Benchmark and experiment harness for the KSP-DG reproduction.
//!
//! Every table and figure of the paper's evaluation (Section 6) has a corresponding
//! experiment in [`experiments`]; the `experiments` binary runs one (or all) of them
//! and prints the same series/rows the paper reports. The scaling figures run on
//! [`cluster`], which assigns subgraphs and queries to simulated servers and reports
//! per-server load ([`metrics`]) and the simulated makespan. The `ledger` binary is
//! the repository's benchmark; it uses none of this library.
//!
//! Experiments run on synthetic road networks generated by `ksp-workload` at a
//! configurable [`Scale`] (the README's "Experiments" section). Absolute numbers are
//! not comparable with the paper's 10-server cluster; the *shape* of every curve —
//! who wins, how cost scales with each parameter — is the reproduction target.

#![warn(missing_docs)]

pub mod cluster;
pub mod experiments;
pub mod metrics;
pub mod report;

use ksp_workload::datasets::DatasetScale;

/// The scale experiments run at; selected with `--scale` (`small` when omitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Hundreds of vertices; completes in seconds. Used by `cargo test` smoke tests.
    Tiny,
    /// Thousands of vertices; the default for the `experiments` binary.
    Small,
    /// Tens of thousands of vertices; for longer runs.
    Medium,
}

impl Scale {
    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            _ => None,
        }
    }

    /// The dataset scale used by `ksp-workload` presets.
    pub fn dataset_scale(self) -> DatasetScale {
        match self {
            Scale::Tiny => DatasetScale::Tiny,
            Scale::Small => DatasetScale::Small,
            Scale::Medium => DatasetScale::Medium,
        }
    }

    /// Number of queries per batch appropriate for the scale (the paper's default
    /// `Nq = 1000` maps to the Small scale).
    pub fn default_num_queries(self) -> usize {
        match self {
            Scale::Tiny => 40,
            Scale::Small => 200,
            Scale::Medium => 1000,
        }
    }

    /// Sweep of batch sizes used by the `Nq` scalability figures.
    pub fn nq_sweep(self) -> Vec<usize> {
        match self {
            Scale::Tiny => vec![10, 20, 40, 80],
            Scale::Small => vec![50, 100, 200, 400, 800],
            Scale::Medium => vec![200, 400, 800, 1600, 3200],
        }
    }

    /// Sweep of server counts for the scaling-out figures (the paper uses 2–20).
    pub fn server_sweep(self) -> Vec<usize> {
        vec![2, 4, 8, 12, 16, 20]
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("SMALL"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn scale_derived_parameters_grow_with_scale() {
        assert!(Scale::Tiny.default_num_queries() < Scale::Small.default_num_queries());
        assert!(Scale::Small.default_num_queries() < Scale::Medium.default_num_queries());
        assert!(Scale::Tiny.nq_sweep().len() >= 3);
        assert_eq!(Scale::Small.server_sweep(), vec![2, 4, 8, 12, 16, 20]);
        assert_eq!(Scale::Tiny.to_string(), "tiny");
    }
}
