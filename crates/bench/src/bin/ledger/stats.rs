//! The few statistics the ledger reports: nearest-rank percentiles, medians,
//! and the quartile spread the benchmark contract judges steadiness by.

/// Sorts `values` ascending (they are measurements, never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (sorts them); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One repetition of a workload's cycle, summarised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Repetition {
    pub ops: u64,
    /// Wall-clock seconds, everything sent in between included.
    pub wall_s: f64,
    /// Operations answered ÷ `wall_s`.
    pub throughput: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub worst_ms: f64,
}

impl Repetition {
    /// Summarises the round trips of one repetition that took `wall_s` by the
    /// wall clock (sorts them).
    pub fn of(rtt_ms: &mut [f64], wall_s: f64) -> Self {
        sort(rtt_ms);
        Repetition {
            ops: rtt_ms.len() as u64,
            wall_s,
            throughput: ratio(rtt_ms.len() as f64, wall_s),
            p50_ms: percentile(rtt_ms, 0.50),
            p90_ms: percentile(rtt_ms, 0.90),
            worst_ms: percentile(rtt_ms, 1.0),
        }
    }
}

/// Median over repetitions of one of their figures.
pub fn median_of(reps: &[Repetition], figure: impl Fn(&Repetition) -> f64) -> f64 {
    median(&mut reps.iter().map(figure).collect::<Vec<_>>())
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the "exclusive" method) — the spread the benchmark driver computes.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    let mid = median(&mut data);
    let len = data.len();
    if len < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    ratio(quartile(3) - quartile(1), mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn a_repetition_is_summarised_by_wall_clock_and_nearest_rank() {
        // Four round trips that took 10 ms by the wall clock — whatever else
        // was sent in between counts.
        let a = Repetition::of(&mut [1.0, 4.0, 1.0, 2.0], 0.010);
        assert_eq!((a.ops, a.p50_ms, a.p90_ms, a.worst_ms), (4, 1.0, 4.0, 4.0));
        assert!((a.throughput - 400.0).abs() < 1e-9);
        let b = Repetition::of(&mut [4.0, 4.0], 0.004);
        assert_eq!(median_of(&[a, b], |r| r.p50_ms), 2.5);
        assert_eq!(median_of(&[], |r| r.p50_ms), 0.0);
    }

    #[test]
    fn spread_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([2, 4, 4, 5], n=4) == [2.5, 4.0, 4.75]
        assert!((quartile_spread(&[4.0, 2.0, 5.0, 4.0]) - 2.25 / 4.0).abs() < 1e-12);
    }
}
