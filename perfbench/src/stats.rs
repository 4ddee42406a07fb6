//! Order statistics with the benchmark's sample rule: a percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it, so a tail
//! figure is never one or two outliers.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile must be inside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest sample with at least q·n samples at or
    // below it; everything after its index lies beyond it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Plain median (mean of the middle pair for even counts), without the
/// sample rule. Used for the per-run set-up repetitions, which are few by
/// design, and for per-layer figures.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Samples of one timed operation class, in the unit they were taken in.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Samples holding `values`.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        Self {
            values: values.into_iter().collect(),
        }
    }

    /// Record one observation.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Percentile under the sample rule; the error names the shortfall.
    pub fn percentile(&self, q: f64, what: &str) -> Result<f64, String> {
        percentile(&self.values, q).ok_or_else(|| {
            format!(
                "{what}: p{} needs {} samples beyond it, have {} samples in all",
                q * 100.0,
                MIN_BEYOND,
                self.values.len()
            )
        })
    }

    /// Plain median, zero when empty (per-layer figures only).
    pub fn median_or_zero(&self) -> f64 {
        median(&self.values).unwrap_or(0.0)
    }
}
