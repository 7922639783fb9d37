//! The measurement arithmetic, kept apart from everything that runs a
//! workload so each rule is unit-tested on hand-made numbers.

/// Nearest-rank percentile of an ascending, non-empty slice: the
/// smallest sample with at least `p` percent of the samples at or
/// below it. Always returns a value that was measured.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Nearest-rank percentile of unordered samples; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

/// The textbook median (mean of the middle two for an even count):
/// used where there are few samples, such as set-up repetitions.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        f64::midpoint(sorted[mid - 1], sorted[mid])
    })
}

/// Geometric mean; `None` when empty or when any value is not
/// strictly positive (a log-scale mean of a zero is meaningless).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Every slice of a p99 window must hold this many samples, so that
/// at least ten lie beyond the reported percentile.
pub const MIN_SLICE_SAMPLES: usize = 1_000;

/// A tail percentile taken as the median of per-slice p99s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SliceP99 {
    /// Median over the slices of each slice's nearest-rank p99.
    pub value: f64,
    /// Sample count of the emptiest slice.
    pub min_slice_samples: usize,
    /// False when some slice held fewer than [`MIN_SLICE_SAMPLES`]:
    /// the value is then reported, but flagged `unresolved`.
    pub resolved: bool,
}

/// Cut `[0, window)` into `slices` equal parts by each sample's
/// completion offset, take the p99 of each part and return the median
/// of those. One stall then moves one slice, not the metric. `None`
/// when any slice is empty.
pub fn median_slice_p99(
    samples: impl Iterator<Item = (f64, f64)>,
    window: f64,
    slices: usize,
) -> Option<SliceP99> {
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for (done_at, latency) in samples {
        let idx = ((done_at / window) * slices as f64) as usize;
        parts[idx.min(slices - 1)].push(latency);
    }
    let p99s: Vec<f64> = parts
        .iter()
        .map(|part| percentile(part, 99.0))
        .collect::<Option<_>>()?;
    let min_slice_samples = parts.iter().map(Vec::len).min()?;
    Some(SliceP99 {
        value: median(&p99s)?,
        min_slice_samples,
        resolved: min_slice_samples >= MIN_SLICE_SAMPLES,
    })
}

/// One request of an open-loop schedule. Latency runs from when the
/// request was *due*, so a stall charges every request it delayed;
/// lateness is how far behind schedule the generator itself sent it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenLoopSample {
    /// Completion minus due time.
    pub latency: f64,
    /// Send minus due time (never negative: nothing is sent early).
    pub lateness: f64,
}

/// Due time of the `k`-th request of a fixed-period schedule.
pub fn due_time(first: f64, period: f64, k: usize) -> f64 {
    period.mul_add(k as f64, first)
}

/// Score one open-loop request from its due, send and completion
/// instants (all seconds on one clock).
pub fn open_loop_sample(due: f64, sent: f64, done: f64) -> OpenLoopSample {
    OpenLoopSample {
        latency: done - due,
        lateness: (sent - due).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 5.0);
        assert_eq!(percentile_sorted(&v, 90.0), 9.0);
        assert_eq!(percentile_sorted(&v, 99.0), 10.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 10.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        // With 1000 samples the p99 leaves exactly ten beyond it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&big, 99.0), 990.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_weighs_ratios_not_differences() {
        let g = geomean(&[1.0, 10_000.0]).unwrap();
        assert!((g - 100.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn slice_p99_is_median_of_slices_and_flags_thin_slices() {
        // Two slices of 1000 samples each: p99s are 990 and 1990.
        let samples = (0..2000).map(|i| (f64::from(i) / 1000.0, f64::from(i + 1)));
        let got = median_slice_p99(samples, 2.0, 2).unwrap();
        assert_eq!(got.value, f64::midpoint(990.0, 1990.0));
        assert_eq!(got.min_slice_samples, 1000);
        assert!(got.resolved);

        // One stall in one of three slices does not move the median.
        let calm = (0..3000).map(|i| (f64::from(i) / 1000.0, 1.0));
        let mut with_stall: Vec<(f64, f64)> = calm.collect();
        for s in with_stall.iter_mut().skip(1000).take(20) {
            s.1 = 500.0;
        }
        let got = median_slice_p99(with_stall.into_iter(), 3.0, 3).unwrap();
        assert_eq!(got.value, 1.0);

        // 999 samples in a slice: value still reported, but unresolved.
        let thin = (0..999).map(|i| (f64::from(i) / 999.0, 1.0));
        let got = median_slice_p99(thin, 1.0, 1).unwrap();
        assert!(!got.resolved);
        assert_eq!(got.min_slice_samples, 999);

        // An empty slice has no percentile at all.
        assert_eq!(median_slice_p99([(0.1, 1.0)].into_iter(), 1.0, 2), None);
        // A completion stamped exactly at the window's end stays inside.
        assert!(median_slice_p99([(1.0, 1.0)].into_iter(), 1.0, 1).is_some());
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        assert_eq!(due_time(0.25, 0.5, 0), 0.25);
        assert_eq!(due_time(0.25, 0.5, 3), 1.75);
        // Sent on time: latency is the service time.
        let s = open_loop_sample(1.0, 1.0, 1.2);
        assert!((s.latency - 0.2).abs() < 1e-12 && s.lateness == 0.0);
        // The previous request stalled 0.4 s: this one is sent late and
        // its latency includes the wait.
        let s = open_loop_sample(1.5, 1.9, 2.0);
        assert!((s.latency - 0.5).abs() < 1e-12);
        assert!((s.lateness - 0.4).abs() < 1e-12);
    }
}
