//! Exact percentiles, window medians and the interval algebra behind
//! self times. Everything here works on raw samples kept by the benchmark;
//! nothing goes through `swarm_metrics::Histogram`, whose buckets are
//! powers of two.

/// Number of equal windows a measured phase is cut into; rates and
/// percentiles are reported as the median over them, so one stalled
/// window (a noisy neighbour on the sandbox) does not move the result.
pub const WINDOWS: usize = 10;

/// Fewest samples a window needs for its own percentile; below it the
/// percentile is taken over the whole phase instead.
const MIN_WINDOW_SAMPLES: usize = 200;

/// Exact nearest-rank percentile of an ascending slice (`p` in 0..=1).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 if empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when there is nothing to divide by (a metric that
/// does not apply to a workload reads 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the rule the acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        // Position q*(n+1)/4 in 1-based ranks; like Python, the rank is
        // clamped to the data but the fraction is not.
        let pos = q as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Run-to-run spread as the acceptance check takes it: interquartile
/// distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    ratio(q3 - q1, median(values).abs())
}

/// A value observed at a time (nanoseconds on the run's clock).
pub type Timed = (u64, f64);

/// Which of the [`WINDOWS`] windows of `[t0, t1)` holds `t`, if any.
pub fn window_of(t: u64, t0: u64, t1: u64) -> Option<usize> {
    if t < t0 || t >= t1 || t1 <= t0 {
        return None;
    }
    let w = ((t - t0) as u128 * WINDOWS as u128 / (t1 - t0) as u128) as usize;
    Some(w.min(WINDOWS - 1))
}

/// Percentile `p` of the samples that completed inside `[t0, t1)`: the
/// median over the windows of each window's exact percentile, or the
/// percentile of the whole phase when a window is too thin to have one.
pub fn windowed_percentile(samples: &[Timed], t0: u64, t1: u64, p: f64) -> f64 {
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for &(t, v) in samples {
        if let Some(w) = window_of(t, t0, t1) {
            per_window[w].push(v);
        }
    }
    if per_window.iter().all(|w| w.len() >= MIN_WINDOW_SAMPLES) {
        let each: Vec<f64> = per_window
            .iter_mut()
            .map(|w| {
                w.sort_by(f64::total_cmp);
                percentile(w, p)
            })
            .collect();
        return median(&each);
    }
    let mut all: Vec<f64> = per_window.into_iter().flatten().collect();
    all.sort_by(f64::total_cmp);
    percentile(&all, p)
}

/// Sum of the sample values per second, as the median over the windows
/// of `[t0, t1)`. With a value of 1 per sample this is a completion rate.
pub fn windowed_rate(samples: &[Timed], t0: u64, t1: u64) -> f64 {
    let mut sums = [0.0f64; WINDOWS];
    for &(t, v) in samples {
        if let Some(w) = window_of(t, t0, t1) {
            sums[w] += v;
        }
    }
    let window_secs = (t1 - t0) as f64 / 1e9 / WINDOWS as f64;
    let rates: Vec<f64> = sums.iter().map(|s| s / window_secs).collect();
    median(&rates)
}

/// A half-open interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Total length of the union of `intervals` (which may overlap: parallel
/// children of one parent must not be counted twice).
pub fn union_len(intervals: &mut [Interval]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<Interval> = None;
    for &(s, e) in intervals.iter() {
        if e <= s {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// The part of `parent` its `children` cover: each child clipped to the
/// parent, overlaps counted once. Self time is the parent's length minus
/// this.
pub fn cover(parent: Interval, children: impl IntoIterator<Item = Interval>) -> u64 {
    let mut clipped: Vec<Interval> = children
        .into_iter()
        .map(|(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|(s, e)| e > s)
        .collect();
    union_len(&mut clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Not a power of two, not interpolated: a value that was observed.
        let odd = [3.0, 7.0, 1000.0];
        assert_eq!(percentile(&odd, 0.5), 7.0);
        assert_eq!(percentile(&odd, 0.99), 1000.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn windows_partition_the_phase() {
        let end = WINDOWS as u64 * 200;
        assert_eq!(window_of(0, 0, end), Some(0));
        assert_eq!(window_of(199, 0, end), Some(0));
        assert_eq!(window_of(200, 0, end), Some(1));
        assert_eq!(window_of(end - 1, 0, end), Some(WINDOWS - 1));
        assert_eq!(window_of(end, 0, end), None);
        assert_eq!(window_of(5, 10, end), None);
    }

    #[test]
    fn windowed_rate_is_the_median_window() {
        // 10 completions in every window, but window 2 stalls with 1.
        let mut s: Vec<Timed> = Vec::new();
        for w in 0..WINDOWS as u64 {
            let n = if w == 2 { 1 } else { 10 };
            for i in 0..n {
                s.push((w * 1_000_000_000 + i, 1.0));
            }
        }
        let rate = windowed_rate(&s, 0, WINDOWS as u64 * 1_000_000_000);
        assert_eq!(rate, 10.0);
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        let mut s: Vec<Timed> = Vec::new();
        for w in 0..WINDOWS as u64 {
            for i in 0..MIN_WINDOW_SAMPLES as u64 {
                let v = if w == 3 {
                    900.0
                } else {
                    100.0 + (i % 7) as f64
                };
                s.push((w * 1000 + i, v));
            }
        }
        let p99 = windowed_percentile(&s, 0, WINDOWS as u64 * 1000, 0.99);
        assert_eq!(p99, 106.0);
        // Too few samples per window: falls back to the whole phase.
        let thin: Vec<Timed> = (0..50u64).map(|i| (i * 100, i as f64)).collect();
        assert_eq!(windowed_percentile(&thin, 0, 5000, 0.5), 24.0);
    }

    #[test]
    fn union_counts_overlapping_children_once() {
        let mut v = vec![(0, 10), (5, 15), (20, 30), (22, 25), (30, 31)];
        assert_eq!(union_len(&mut v), 15 + 11);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn cover_clips_children_to_the_parent() {
        // Two parallel children overlapping each other and the edges.
        let c = cover((100, 200), [(90, 150), (140, 260), (300, 400)]);
        assert_eq!(c, 100);
        // Self time of a parent with disjoint serial children.
        let c = cover((0, 100), [(10, 20), (50, 70)]);
        assert_eq!(100 - c, 70);
        assert_eq!(cover((0, 100), []), 0);
    }
}
