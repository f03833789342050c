//! Order statistics under the sample-support rule: a tail percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, and
//! every reported figure carries its sample count.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Sorts samples ascending (total order, so NaN cannot reorder them).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` (0–100] of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie beyond the nearest rank of percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// A reported tail: which percentile the sample supports, its value, and
/// the counts behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// The percentile reported, or `None` when no percentile has
    /// [`MIN_BEYOND`] samples beyond it and the maximum stands in.
    pub q: Option<f64>,
    /// The value at that percentile (or the maximum).
    pub value: f64,
    /// Samples in the distribution.
    pub n: usize,
    /// Samples beyond the reported percentile.
    pub beyond: usize,
}

impl Tail {
    /// Human-readable label: `p99`, `p95`, … or `max`.
    pub fn label(&self) -> String {
        match self.q {
            Some(q) if q.fract() == 0.0 => format!("p{q:.0}"),
            Some(q) => format!("p{q}"),
            None => "max".into(),
        }
    }
}

/// The highest percentile at or below `cap` with at least [`MIN_BEYOND`]
/// samples beyond it. With too few samples for any percentile the
/// maximum is returned with `q = None`, so the caller says so.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn tail(sorted: &[f64], cap: f64) -> Tail {
    let n = sorted.len();
    assert!(n > 0, "tail of an empty sample");
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&q| q <= cap)
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
        .map_or(
            Tail {
                q: None,
                value: sorted[n - 1],
                n,
                beyond: 0,
            },
            |q| Tail {
                q: Some(q),
                value: percentile(sorted, q),
                n,
                beyond: beyond(n, q),
            },
        )
}

/// Median of unsorted samples (nearest rank).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_reports_only_percentiles_with_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly ten beyond p99.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&s, 99.0);
        assert_eq!((t.q, t.value, t.n, t.beyond), (Some(99.0), 990.0, 1000, 10));
        assert_eq!(t.label(), "p99");
        // p99.9 has one sample beyond: the cap admits it, support does not.
        assert_eq!(tail(&s, 99.9).q, Some(99.0));

        // 999 samples leave nine beyond p99, so the tail drops to p95.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&s, 99.0);
        assert_eq!((t.q, t.beyond), (Some(95.0), 49));
        assert_eq!(t.label(), "p95");

        // 20 samples support only the median (ten beyond rank 10).
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s, 99.0).q, Some(50.0));
    }

    #[test]
    fn tail_falls_back_to_the_maximum_when_nothing_is_supported() {
        let t = tail(&[4.0, 5.0, 6.0], 99.0);
        assert_eq!((t.q, t.value, t.n, t.beyond), (None, 6.0, 3, 0));
        assert_eq!(t.label(), "max");
        assert_eq!(beyond(0, 99.0), 0);
    }
}
