//! Exact percentiles from raw samples.
//!
//! Every timing the benchmark reports is a nearest-rank percentile of
//! the raw samples it collected, never a bucket bound of a histogram.
//! Alongside the fixed percentiles the report names the highest
//! percentile that still has at least [`TAIL_SAMPLES`] samples beyond
//! it, so a reader can tell a measured tail from a guess.

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// The percentile levels the tail search considers, highest first.
const TAIL_LEVELS: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The 1-based nearest rank of the `p`-th percentile of `n` samples. The
/// product is rounded first so that, say, 99.9% of 10 000 is rank 9990
/// and not 9991 through floating-point error.
fn rank(p: f64, n: usize) -> usize {
    let exact = (p / 100.0 * n as f64 * 1e6).round() / 1e6;
    exact.ceil() as usize
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`,
/// which must be sorted ascending. Returns 0.0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The highest level in [`TAIL_LEVELS`] with at least [`TAIL_SAMPLES`]
/// of `n` samples strictly beyond its rank, or `None` when even the
/// median has fewer.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS.iter().copied().find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_SAMPLES)
}

/// A sorted sample set and the summary the report prints for it.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Takes ownership of raw samples and sorts them.
    pub fn new(mut raw: Vec<f64>) -> Self {
        raw.sort_by(f64::total_cmp);
        Samples { sorted: raw }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The nearest-rank `p`-th percentile.
    pub fn pct(&self, p: f64) -> f64 {
        percentile(&self.sorted, p)
    }

    /// Arithmetic mean (0.0 for no samples).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// One human-readable line: count, p50, and the highest percentile
    /// measured with at least [`TAIL_SAMPLES`] samples beyond it.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let tail = match tail_level(self.len()) {
            Some(p) => format!("p{p}={:.1}{unit}", self.pct(p)),
            None => "tail=n/a".to_string(),
        };
        format!(
            "{name}: n={} p50={:.1}{unit} {tail} (>= {TAIL_SAMPLES} samples beyond)",
            self.len(),
            self.pct(50.0),
        )
    }
}

/// The median of a few values (setup repetitions, restart samples).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).pct(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.pct(50.0), 50.0);
        assert_eq!(s.pct(99.0), 99.0);
        assert_eq!(s.pct(100.0), 100.0);
        assert_eq!(s.pct(0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Nearest rank takes the lower middle of an even count.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(5), None);
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(999), Some(90.0));
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(10_000), Some(99.9));
        assert_eq!(tail_level(100_000), Some(99.99));
    }

    #[test]
    fn describe_names_the_tail_and_count() {
        let s = Samples::new((0..1000).map(f64::from).collect());
        let line = s.describe("txn", "us");
        assert!(line.contains("n=1000"), "{line}");
        assert!(line.contains("p99="), "{line}");
        assert!(Samples::new(vec![1.0]).describe("x", "us").contains("tail=n/a"));
    }
}
