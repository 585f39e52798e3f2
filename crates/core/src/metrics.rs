//! Measurement primitives: sampled time series, cumulative event counters
//! and CSV export — the machinery behind every figure in EXPERIMENTS.md.

use std::fmt::Write as _;
use std::time::Duration;

use simnet::SimTime;

/// A periodically sampled series of `(time, value)` points.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at.as_secs_f64(), value));
    }

    /// All `(seconds, value)` points in order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last sampled value.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Maximum value over the whole series, in one pass with no
    /// intermediate allocation.
    pub fn max(&self) -> Option<f64> {
        let mut max: Option<f64> = None;
        for &(_, v) in &self.points {
            max = Some(max.map_or(v, |m| m.max(v)));
        }
        max
    }

    /// Minimum value within the window `[from, to]` seconds, in one pass
    /// with no intermediate allocation.
    pub fn min_in_window(&self, from: f64, to: f64) -> Option<f64> {
        let mut min: Option<f64> = None;
        for &(t, v) in &self.points {
            if t >= from && t <= to {
                min = Some(min.map_or(v, |m| m.min(v)));
            }
        }
        min
    }

    /// Mean value within the window `[from, to]` seconds, streaming a
    /// running sum and count in one pass instead of collecting the window
    /// into an intermediate `Vec`.
    pub fn mean_in_window(&self, from: f64, to: f64) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0u64;
        for &(t, v) in &self.points {
            if t >= from && t <= to {
                sum += v;
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }

    /// First time the series reaches at least `threshold`.
    pub fn first_reach(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(_, v)| v >= threshold)
            .map(|&(t, _)| t)
    }
}

/// A monotonically non-decreasing counter recorded as step events, for the
/// paper's "cumulative number of X" plots.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cumulative {
    events: Vec<(f64, u64)>,
    current: u64,
}

impl Cumulative {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Cumulative::default()
    }

    /// Adds `n` occurrences at time `at`; the total saturates at
    /// `u64::MAX` (a feed that passes over the whole frame numbering
    /// counts that many skipped frames).
    pub fn add(&mut self, at: SimTime, n: u64) {
        if n == 0 {
            return;
        }
        self.current = self.current.saturating_add(n);
        self.events.push((at.as_secs_f64(), self.current));
    }

    /// Current total.
    pub fn total(&self) -> u64 {
        self.current
    }

    /// The `(seconds, running total)` step points.
    pub fn steps(&self) -> &[(f64, u64)] {
        &self.events
    }

    /// Total accumulated strictly before `t` seconds.
    pub fn total_before(&self, t: f64) -> u64 {
        self.events
            .iter()
            .rev()
            .find(|&&(at, _)| at < t)
            .map_or(0, |&(_, v)| v)
    }

    /// Occurrences within the half-open window `[from, to)` seconds:
    /// one at `from` counts, one at `to` does not.
    pub fn in_window(&self, from: f64, to: f64) -> u64 {
        self.total_before(to) - self.total_before(from)
    }
}

/// Sub-buckets per octave in [`Histogram`]: 16 linear steps, bounding the
/// relative quantile error at ~6%.
const HIST_SUB_BITS: u32 = 4;
const HIST_SUB: usize = 1 << HIST_SUB_BITS;

/// A log-linear latency histogram (HdrHistogram-style, sized for
/// microsecond-to-hours durations expressed in seconds).
///
/// Samples are bucketed at microsecond granularity: exact below 16 µs, then
/// `HIST_SUB` linear sub-buckets per power-of-two octave, so quantiles
/// carry at most ~6% relative error while the whole structure stays under
/// a thousand `u64` counters regardless of sample count. Unlike
/// [`percentile`], recording is O(1) and querying never sorts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
}

fn hist_bucket_index(us: u64) -> usize {
    if us < HIST_SUB as u64 {
        us as usize
    } else {
        let msb = 63 - us.leading_zeros();
        let octave = (msb - HIST_SUB_BITS) as usize;
        let sub = ((us >> (msb - HIST_SUB_BITS)) & (HIST_SUB as u64 - 1)) as usize;
        HIST_SUB + octave * HIST_SUB + sub
    }
}

/// Largest duration (µs) falling into bucket `idx` — the value quantiles
/// report for samples in that bucket.
fn hist_bucket_upper_us(idx: usize) -> u64 {
    if idx < HIST_SUB {
        idx as u64
    } else {
        let octave = (idx - HIST_SUB) / HIST_SUB;
        let sub = ((idx - HIST_SUB) % HIST_SUB) as u64;
        let width = 1u64 << octave;
        (HIST_SUB as u64 + sub) * width + width - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records a duration in seconds. Negative values clamp to zero;
    /// non-finite values are ignored.
    pub fn record(&mut self, seconds: f64) {
        if !seconds.is_finite() {
            return;
        }
        let seconds = seconds.max(0.0);
        self.insert((seconds * 1e6).round() as u64, seconds);
    }

    /// Records a duration of `us` whole microseconds: what
    /// [`Histogram::record`] does with `Duration::from_micros(us)` in
    /// seconds, without the rounding back to microseconds.
    pub(crate) fn record_us(&mut self, us: u64) {
        self.insert(us, Duration::from_micros(us).as_secs_f64());
    }

    /// Counts a sample of `seconds`, `us` rounded to whole microseconds.
    fn insert(&mut self, us: u64, seconds: f64) {
        let idx = hist_bucket_index(us);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = seconds;
            self.max = seconds;
        } else {
            self.min = self.min.min(seconds);
            self.max = self.max.max(seconds);
        }
        self.count += 1;
        self.sum += seconds;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (exact, not bucketed), in seconds.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (exact, not bucketed), in seconds.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples (exact, not bucketed), in seconds.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum / self.count as f64)
    }

    /// The `q`-quantile (0.0–1.0) in seconds: the upper edge of the bucket
    /// holding the nearest-rank sample, clamped to the observed
    /// `[min, max]`. Monotone in `q` and always bounded by min/max.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                let value = hist_bucket_upper_us(idx) as f64 / 1e6;
                return Some(value.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (idx, &n) in other.buckets.iter().enumerate() {
            self.buckets[idx] += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// The `q`-quantile (0.0–1.0) of a sample set, by nearest-rank on a sorted
/// copy. Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any sample is NaN.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    Some(sorted[rank])
}

/// Renders aligned `(time, value)` rows — one column set per series — as
/// CSV with the given headers. Series are emitted in row-major order of
/// their own points (they need not share timestamps).
pub fn series_to_csv(header: &str, series: &TimeSeries) -> String {
    let mut out = String::with_capacity(series.len() * 16 + header.len() + 16);
    let _ = writeln!(out, "time_s,{header}");
    for &(t, v) in series.points() {
        let _ = writeln!(out, "{t:.3},{v:.3}");
    }
    out
}

/// Renders a cumulative counter as CSV steps.
pub fn cumulative_to_csv(header: &str, counter: &Cumulative) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "time_s,{header}");
    for &(t, v) in counter.steps() {
        let _ = writeln!(out, "{t:.3},{v}");
    }
    out
}

/// Downsamples a series to at most `n` evenly spaced points (for compact
/// terminal plots).
pub fn downsample(series: &TimeSeries, n: usize) -> Vec<(f64, f64)> {
    let pts = series.points();
    if pts.len() <= n || n == 0 {
        return pts.to_vec();
    }
    (0..n)
        .map(|i| pts[i * (pts.len() - 1) / (n - 1).max(1)])
        .collect()
}

/// A quick ASCII sparkline of a series (terminal-friendly figures).
pub fn sparkline(series: &TimeSeries, width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let pts = downsample(series, width);
    let max = pts.iter().map(|&(_, v)| v).fold(f64::MIN, f64::max);
    let min = pts.iter().map(|&(_, v)| v).fold(f64::MAX, f64::min);
    if pts.is_empty() || !max.is_finite() || !min.is_finite() {
        return String::new();
    }
    let span = (max - min).max(1e-12);
    pts.iter()
        .map(|&(_, v)| BARS[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn series_statistics() {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.push(t(i as f64), i as f64 * 2.0);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.last(), Some(18.0));
        assert_eq!(s.max(), Some(18.0));
        assert_eq!(s.min_in_window(2.0, 5.0), Some(4.0));
        assert_eq!(s.mean_in_window(0.0, 4.0), Some(4.0));
        assert_eq!(s.first_reach(10.0), Some(5.0));
        assert_eq!(s.first_reach(100.0), None);
    }

    #[test]
    fn empty_series_is_safe() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.last(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean_in_window(0.0, 1.0), None);
    }

    #[test]
    fn cumulative_steps_and_windows() {
        let mut c = Cumulative::new();
        c.add(t(1.0), 2);
        c.add(t(2.0), 0); // no-op
        c.add(t(5.0), 3);
        assert_eq!(c.total(), 5);
        assert_eq!(c.steps().len(), 2);
        assert_eq!(c.total_before(1.5), 2);
        assert_eq!(c.total_before(0.5), 0);
        assert_eq!(c.in_window(0.9, 6.0), 5);
        assert_eq!(c.in_window(1.5, 6.0), 3);
        // Half-open: the step at `from` counts, the one at `to` does not.
        assert_eq!(c.in_window(1.0, 5.0), 2);
        assert_eq!(c.in_window(5.0, 6.0), 3);
    }

    #[test]
    fn csv_round_trips_shape() {
        let mut s = TimeSeries::new();
        s.push(t(0.5), 1.0);
        let csv = series_to_csv("occupancy", &s);
        assert!(csv.starts_with("time_s,occupancy\n"));
        assert!(csv.contains("0.500,1.000"));
        let mut c = Cumulative::new();
        c.add(t(3.0), 7);
        let csv = cumulative_to_csv("skipped", &c);
        assert!(csv.contains("3.000,7"));
    }

    #[test]
    fn downsample_bounds() {
        let mut s = TimeSeries::new();
        for i in 0..100 {
            s.push(t(i as f64), i as f64);
        }
        let d = downsample(&s, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0].1, 0.0);
        assert_eq!(d[9].1, 99.0);
        let all = downsample(&s, 1000);
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn histogram_buckets_are_a_partition() {
        // Every µs value lands in exactly one bucket whose bounds contain it.
        for us in (0u64..4096).chain([1 << 20, (1 << 40) + 12345, u64::MAX / 2]) {
            let idx = hist_bucket_index(us);
            assert!(us <= hist_bucket_upper_us(idx), "us={us} idx={idx}");
            if idx > 0 {
                assert!(
                    hist_bucket_upper_us(idx - 1) < us,
                    "us={us} fits the previous bucket too"
                );
            }
        }
    }

    #[test]
    fn histogram_quantiles_track_the_distribution() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for ms in 1..=1000u32 {
            h.record(f64::from(ms) / 1000.0); // 1ms..1s uniform
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(0.001));
        assert_eq!(h.max(), Some(1.0));
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 0.5).abs() < 0.5 * 0.08, "p50={p50}");
        assert!((p99 - 0.99).abs() < 0.99 * 0.08, "p99={p99}");
        assert!(p50 <= p99);
        let mean = h.mean().unwrap();
        assert!((mean - 0.5005).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_combines_counts() {
        let mut a = Histogram::new();
        a.record(0.010);
        let mut b = Histogram::new();
        b.record(0.500);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(0.010));
        assert_eq!(a.max(), Some(2.0));
        assert_eq!(a.quantile(1.0), Some(2.0));
    }

    #[test]
    fn histogram_handles_degenerate_inputs() {
        let mut h = Histogram::new();
        h.record(-3.0); // clamps to zero
        h.record(f64::NAN); // ignored
        h.record(f64::INFINITY); // ignored
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), Some(0.0));
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 0.5), Some(51.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn percentile_validates_q() {
        let _ = percentile(&[1.0], 1.5);
    }

    #[test]
    fn sparkline_renders() {
        let mut s = TimeSeries::new();
        for i in 0..20 {
            s.push(t(i as f64), (i % 5) as f64);
        }
        let line = sparkline(&s, 10);
        assert_eq!(line.chars().count(), 10);
    }
}
