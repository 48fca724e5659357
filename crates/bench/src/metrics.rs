//! Per-server load accounting and load-balance statistics (Section 6.6).

use std::time::Duration;

/// Work attributed to one logical server.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerLoad {
    /// Total busy time attributed to this server.
    pub busy_time: Duration,
    /// Number of work items (subgraph builds or queries) executed.
    pub items_processed: usize,
    /// Bytes of index state held by this server (for memory-balance reporting).
    pub memory_bytes: usize,
}

impl ServerLoad {
    /// Adds one work item of the given duration.
    pub fn record(&mut self, elapsed: Duration) {
        self.busy_time += elapsed;
        self.items_processed += 1;
    }
}

/// Load-balance summary over all servers.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBalanceReport {
    /// Number of logical servers.
    pub num_servers: usize,
    /// Maximum per-server busy time (the simulated makespan).
    pub max_busy: Duration,
    /// Minimum per-server busy time.
    pub min_busy: Duration,
    /// Mean per-server busy time.
    pub mean_busy: Duration,
    /// `(max − min) / max` of busy time, as a fraction in `[0, 1]`. The paper reports
    /// this spread staying below 6 % for CPU and 2 % for memory.
    pub busy_spread: f64,
    /// `(max − min) / max` of per-server memory, as a fraction in `[0, 1]`.
    pub memory_spread: f64,
}

impl LoadBalanceReport {
    /// Computes the report from per-server loads.
    pub fn from_loads(loads: &[ServerLoad]) -> Self {
        assert!(!loads.is_empty(), "at least one server is required");
        let busy: Vec<Duration> = loads.iter().map(|l| l.busy_time).collect();
        let max_busy = *busy.iter().max().unwrap();
        let min_busy = *busy.iter().min().unwrap();
        let total: Duration = busy.iter().sum();
        let mean_busy = total / loads.len() as u32;
        let busy_spread = if max_busy.as_secs_f64() > 0.0 {
            (max_busy - min_busy).as_secs_f64() / max_busy.as_secs_f64()
        } else {
            0.0
        };
        let mem_max = loads.iter().map(|l| l.memory_bytes).max().unwrap();
        let mem_min = loads.iter().map(|l| l.memory_bytes).min().unwrap();
        let memory_spread =
            if mem_max > 0 { (mem_max - mem_min) as f64 / mem_max as f64 } else { 0.0 };
        LoadBalanceReport {
            num_servers: loads.len(),
            max_busy,
            min_busy,
            mean_busy,
            busy_spread,
            memory_spread,
        }
    }

    /// The simulated makespan: the longest per-server busy time. On a cluster with one
    /// server per thread this is what determines batch latency.
    pub fn simulated_makespan(&self) -> Duration {
        self.max_busy
    }
}

/// Assigns `items` (given by their load estimate) to `num_servers` servers using
/// longest-processing-time-first (LPT) greedy balancing, and returns for each item the
/// server it is assigned to. This mirrors the paper's "subgraphs are allocated to
/// workers on a many-to-one basis based on their load".
pub fn balanced_assignment(loads: &[usize], num_servers: usize) -> Vec<usize> {
    assert!(num_servers > 0, "need at least one server");
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(loads[i]));
    let mut server_load = vec![0usize; num_servers];
    let mut assignment = vec![0usize; loads.len()];
    for i in order {
        let target = (0..num_servers).min_by_key(|&s| server_load[s]).unwrap();
        assignment[i] = target;
        server_load[target] += loads[i];
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_busy_time() {
        let mut load = ServerLoad::default();
        load.record(Duration::from_millis(5));
        load.record(Duration::from_millis(15));
        assert_eq!(load.items_processed, 2);
        assert_eq!(load.busy_time, Duration::from_millis(20));
    }

    #[test]
    fn report_computes_spread() {
        let loads = vec![
            ServerLoad {
                busy_time: Duration::from_millis(100),
                items_processed: 1,
                memory_bytes: 100,
            },
            ServerLoad {
                busy_time: Duration::from_millis(80),
                items_processed: 1,
                memory_bytes: 90,
            },
            ServerLoad {
                busy_time: Duration::from_millis(90),
                items_processed: 1,
                memory_bytes: 95,
            },
        ];
        let report = LoadBalanceReport::from_loads(&loads);
        assert_eq!(report.num_servers, 3);
        assert_eq!(report.max_busy, Duration::from_millis(100));
        assert_eq!(report.min_busy, Duration::from_millis(80));
        assert!((report.busy_spread - 0.2).abs() < 1e-9);
        assert!((report.memory_spread - 0.1).abs() < 1e-9);
        assert_eq!(report.simulated_makespan(), Duration::from_millis(100));
    }

    #[test]
    fn report_handles_idle_servers() {
        let loads = vec![ServerLoad::default(), ServerLoad::default()];
        let report = LoadBalanceReport::from_loads(&loads);
        assert_eq!(report.busy_spread, 0.0);
        assert_eq!(report.memory_spread, 0.0);
    }

    #[test]
    fn balanced_assignment_spreads_load_evenly() {
        let loads = vec![10, 10, 10, 10, 40, 5, 5];
        let assignment = balanced_assignment(&loads, 2);
        assert_eq!(assignment.len(), loads.len());
        let mut per_server = vec![0usize; 2];
        for (i, &s) in assignment.iter().enumerate() {
            per_server[s] += loads[i];
        }
        let diff = per_server[0].abs_diff(per_server[1]);
        assert!(diff <= 10, "imbalance {diff} too large: {per_server:?}");
    }

    #[test]
    fn balanced_assignment_with_more_servers_than_items() {
        let loads = vec![3, 1];
        let assignment = balanced_assignment(&loads, 8);
        assert!(assignment.iter().all(|&s| s < 8));
        assert_ne!(assignment[0], assignment[1]);
    }
}
