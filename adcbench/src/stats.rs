//! Order statistics over per-op latency samples.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it would be set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The `per_mille`/1000 nearest-rank percentile of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it (or `per_mille` is
/// not in `1..=1000`). Integer rank arithmetic keeps the cut exact:
/// 100 samples give a p90 with exactly 10 beyond, 99 give none.
pub fn tail(samples: &[f64], per_mille: usize) -> Option<Tail> {
    let n = samples.len();
    if n == 0 || per_mille == 0 || per_mille > 1000 {
        return None;
    }
    let rank = (n * per_mille).div_ceil(1000);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        value: sorted[rank - 1],
        beyond,
        samples: n,
    })
}

/// The median of `samples` (mean of the two middle values for an even
/// count); `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Samples of each op of a script over the passes of a run.
#[derive(Debug, Clone)]
pub struct PerOp(Vec<Vec<f64>>);

impl PerOp {
    /// No samples yet for `ops` ops.
    pub fn new(ops: usize) -> Self {
        PerOp(vec![Vec::new(); ops])
    }

    /// Record one sample of op `op`.
    pub fn push(&mut self, op: usize, value: f64) {
        self.0[op].push(value);
    }

    /// Each op's median sample (NaN for an op without samples).
    pub fn medians(&self) -> Vec<f64> {
        self.0
            .iter()
            .map(|s| if s.is_empty() { f64::NAN } else { median(s) })
            .collect()
    }

    /// The median over ops of each op's median sample.
    pub fn median(&self) -> f64 {
        median(&self.medians())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the helper has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let t = tail(&ramp(100), 900).expect("100 samples carry a p90");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert_eq!(tail(&ramp(99), 900), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let t = tail(&ramp(1000), 990).expect("1000 samples carry a p99");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(tail(&ramp(999), 990), None);
    }

    #[test]
    fn degenerate_inputs_have_no_tail() {
        assert_eq!(tail(&[], 900), None);
        assert_eq!(tail(&ramp(100), 0), None);
        assert_eq!(tail(&ramp(100), 1001), None);
        assert_eq!(tail(&ramp(10_000), 1000), None);
    }

    #[test]
    fn per_op_reduces_each_op_to_its_median() {
        let mut per_op = PerOp::new(2);
        for v in [5.0, 1.0, 3.0] {
            per_op.push(0, v);
        }
        per_op.push(1, 8.0);
        per_op.push(1, 6.0);
        assert_eq!(per_op.medians(), [3.0, 7.0]);
        assert_eq!(per_op.median(), 5.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
