//! Order statistics and the benchmark's aggregation rules.

/// Percentiles a timing may be reported at, highest last.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps e.g. 99.9% of 10 000 at rank 9990 despite rounding.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest entry of [`PERCENTILES`] with at least ten samples beyond
/// it, or `None` when even the median has fewer.
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && beyond(n, p) >= 10)
}

/// Nearest-rank percentile of `values` (`None` when empty).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// The median, averaging the two middle values of an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Host time and simulated instructions of one simulation.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    /// Host nanoseconds spent producing the simulation.
    pub ns: f64,
    /// Simulated instructions it retired (cores plus engines).
    pub insts: u64,
}

/// Total host ns over total simulated instructions: large simulations
/// weigh in proportion to their instructions.
pub fn ns_per_inst(costs: &[Cost]) -> Option<f64> {
    let insts: u64 = costs.iter().map(|c| c.insts).sum();
    (insts > 0).then(|| costs.iter().map(|c| c.ns).sum::<f64>() / insts as f64)
}

/// Median of the per-simulation ns/inst: every simulation weighs the
/// same, however small.
pub fn ns_per_inst_p50(costs: &[Cost]) -> Option<f64> {
    let per: Vec<f64> = costs
        .iter()
        .filter(|c| c.insts > 0)
        .map(|c| c.ns / c.insts as f64)
        .collect();
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = highest_percentile(n) {
                assert!(beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn ns_per_inst_weighs_by_instructions_and_p50_by_job() {
        let costs = [
            Cost {
                ns: 1000.0,
                insts: 10,
            },
            Cost {
                ns: 100.0,
                insts: 100,
            },
            Cost {
                ns: 9000.0,
                insts: 10,
            },
        ];
        // (1000 + 100 + 9000) / 120.
        let total = ns_per_inst(&costs).expect("instructions were retired");
        assert!((total - 10100.0 / 120.0).abs() < 1e-9);
        // Per job: 100, 1, 900 -> median 100.
        assert_eq!(ns_per_inst_p50(&costs), Some(100.0));
        assert_eq!(ns_per_inst(&[Cost { ns: 5.0, insts: 0 }]), None);
        assert_eq!(ns_per_inst_p50(&[]), None);
    }
}
