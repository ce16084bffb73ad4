//! Order statistics over host-time samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Whether a smaller or a larger value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Splits time-ordered `samples` into consecutive windows of `block_s`
/// seconds by `start_s(sample)` (seconds into the run; samples past the
/// last whole window join it), evaluates `f` on each window, and returns
/// the calm quartile of the per-window values: the 25th percentile of a
/// lower-is-better figure, the 75th of a higher-is-better one.
///
/// Contention from other tenants of a shared host only ever slows a run
/// down, in bursts of seconds; a burst then has to cover three quarters of
/// the run before it moves the reported figure.
pub fn calm_quartile<T>(
    samples: &[T],
    start_s: impl Fn(&T) -> f64,
    block_s: f64,
    better: Better,
    f: impl Fn(&[T]) -> f64,
) -> f64 {
    let span = samples.last().map_or(0.0, &start_s);
    let blocks = ((span / block_s).floor() as usize).max(1);
    let mut per_block = Vec::with_capacity(blocks);
    let mut begin = 0;
    for b in 1..=blocks {
        let end = if b == blocks {
            samples.len()
        } else {
            begin + samples[begin..].partition_point(|s| start_s(s) < b as f64 * block_s)
        };
        if end > begin {
            per_block.push(f(&samples[begin..end]));
        }
        begin = end;
    }
    let q = match better {
        Better::Lower => 0.25,
        Better::Higher => 0.75,
    };
    quantile(&per_block, q)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn calm_quartile_ignores_a_burst_in_one_window() {
        // Four 1-second windows of ten samples; window 2 is slow.
        let times: Vec<(f64, f64)> = (0..40)
            .map(|i| (i as f64 / 10.0, if i / 10 == 2 { 100.0 } else { 1.0 }))
            .collect();
        let p50 = |w: &[(f64, f64)]| median(&w.iter().map(|s| s.1).collect::<Vec<_>>());
        assert_eq!(calm_quartile(&times, |s| s.0, 1.0, Better::Lower, p50), 1.0);
        // A rate drops in the slow window instead.
        let rates: Vec<(f64, f64)> = times.iter().map(|&(t, v)| (t, 1.0 / v)).collect();
        assert_eq!(
            calm_quartile(&rates, |s| s.0, 1.0, Better::Higher, p50),
            1.0
        );
        let counts = calm_quartile(&times, |s| s.0, 1.0, Better::Lower, |w| w.len() as f64);
        assert_eq!(counts, 10.0);
        // A run shorter than one window is one window.
        let short = calm_quartile(
            &times[..5],
            |s| s.0,
            10.0,
            Better::Lower,
            |w| w.len() as f64,
        );
        assert_eq!(short, 5.0);
    }
}
