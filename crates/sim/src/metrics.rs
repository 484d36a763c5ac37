//! Measurement instruments for the evaluation harness.
//!
//! Three instruments cover everything the paper's figures need:
//! - [`RateSeries`]: events-per-second time series (throughput, abort rate
//!   panels in Figures 8, 9, 11, 14);
//! - [`TimeSeries`]: sampled gauge values over time (real-time cost,
//!   Figure 14b);
//! - [`Histogram`]: log-bucketed latency distribution with percentiles
//!   (Figure 10a, 14d).

use crate::time::{Nanos, SECOND};

/// Counts events into fixed-width time buckets, yielding a rate series.
#[derive(Clone, Debug)]
pub struct RateSeries {
    bucket_width: Nanos,
    counts: Vec<u64>,
}

impl RateSeries {
    /// Create a series with the given bucket width.
    #[must_use]
    pub fn new(bucket_width: Nanos) -> Self {
        assert!(bucket_width > 0);
        RateSeries {
            bucket_width,
            counts: Vec::new(),
        }
    }

    /// Record `n` events at time `t`.
    pub fn record_n(&mut self, t: Nanos, n: u64) {
        let idx = (t / self.bucket_width) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
    }

    /// Record one event at time `t`.
    pub fn record(&mut self, t: Nanos) {
        self.record_n(t, 1);
    }

    /// Total events recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Bucket width in nanoseconds.
    #[must_use]
    pub fn bucket_width(&self) -> Nanos {
        self.bucket_width
    }

    /// Iterate `(bucket_start_seconds, events_per_second)` pairs.
    pub fn per_second(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let w = self.bucket_width as f64 / SECOND as f64;
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as f64 * w, c as f64 / w))
    }

    /// Rate in the bucket containing time `t` (events per second).
    #[must_use]
    pub fn rate_at(&self, t: Nanos) -> f64 {
        let idx = (t / self.bucket_width) as usize;
        let c = self.counts.get(idx).copied().unwrap_or(0);
        c as f64 / (self.bucket_width as f64 / SECOND as f64)
    }

    /// The first time (bucket start) after `from` at which the bucket count
    /// is zero, i.e. when the measured activity stopped. Returns `None` if
    /// activity continues to the end of the recorded range.
    #[must_use]
    pub fn quiesced_after(&self, from: Nanos) -> Option<Nanos> {
        let start = (from / self.bucket_width) as usize;
        for (i, &c) in self.counts.iter().enumerate().skip(start) {
            if c == 0 {
                return Some(i as Nanos * self.bucket_width);
            }
        }
        None
    }
}

/// Sampled gauge: `(time, value)` points, e.g. cumulative dollars or node
/// counts over time.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(Nanos, f64)>,
}

impl TimeSeries {
    /// Create an empty series.
    #[must_use]
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append a sample. Samples must arrive in non-decreasing time order.
    pub fn push(&mut self, t: Nanos, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series samples must be time-ordered");
        }
        self.points.push((t, v));
    }

    /// All samples.
    #[must_use]
    pub fn points(&self) -> &[(Nanos, f64)] {
        &self.points
    }

    /// Last sampled value, if any.
    #[must_use]
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Value at time `t` (step interpolation: value of the latest sample at
    /// or before `t`).
    #[must_use]
    pub fn at(&self, t: Nanos) -> Option<f64> {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }
}

/// Latency histogram with logarithmic buckets (~7% relative error).
///
/// Buckets are `[lo, lo*2^(1/10))` sub-decade steps — compact, constant
/// memory, and accurate enough for the percentile claims in the paper.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: Nanos,
    min: Nanos,
}

const BUCKETS: usize = 640; // covers [1 ns, ~2^64) with 10 buckets per octave

fn bucket_of(v: Nanos) -> usize {
    let v = v.max(1);
    // 10 buckets per power of two: index = floor(log2(v) * 10).
    let exp = 63 - v.leading_zeros() as usize;
    // floor((v - 2^exp) * 10 / 2^exp) is a shift, and below 10 because
    // v < 2^(exp + 1).
    let within = ((u128::from(v - (1 << exp)) * 10) >> exp) as usize;
    (exp * 10 + within).min(BUCKETS - 1)
}

fn bucket_lower(idx: usize) -> Nanos {
    let exp = idx / 10;
    let within = idx % 10;
    let base = 1u64 << exp.min(63);
    base + base / 10 * within as u64
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
            min: Nanos::MAX,
        }
    }

    /// Record one latency observation.
    pub fn record(&mut self, v: Nanos) {
        self.record_n(v, 1);
    }

    /// Record `n` identical observations of `v` in one call.
    ///
    /// Arithmetic is exactly `n` repetitions of [`Histogram::record`] —
    /// the cohort client engine uses this to fold a whole batch of
    /// equal-latency commits into one update without changing any
    /// derived statistic.
    pub fn record_n(&mut self, v: Nanos, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(v)] += n;
        self.total += n;
        self.sum += u128::from(v) * u128::from(n);
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all observations (exact, not bucketed).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket lower bound).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_lower(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Exact maximum observation.
    #[must_use]
    pub fn max(&self) -> Nanos {
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// A compact summary (count/mean/p50/p99/max).
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.total,
            mean: self.mean(),
            p50: self.quantile(0.5),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// Compact latency summary produced by [`Histogram::summary`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: u64,
    pub mean: f64,
    pub p50: Nanos,
    pub p99: Nanos,
    pub max: Nanos,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rate_series_buckets_and_rates() {
        let mut r = RateSeries::new(SECOND);
        r.record(100);
        r.record(SECOND - 1);
        r.record(SECOND);
        r.record(3 * SECOND + 5);
        assert_eq!(r.total(), 4);
        let pts: Vec<_> = r.per_second().collect();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].1, 2.0);
        assert_eq!(pts[1].1, 1.0);
        assert_eq!(pts[2].1, 0.0);
        assert_eq!(pts[3].1, 1.0);
        assert_eq!(r.rate_at(500), 2.0);
    }

    #[test]
    fn quiesced_after_finds_first_empty_bucket() {
        let mut r = RateSeries::new(SECOND);
        for t in 0..5 {
            r.record(t * SECOND);
        }
        r.record(7 * SECOND); // gap at buckets 5 and 6
        assert_eq!(r.quiesced_after(0), Some(5 * SECOND));
        assert_eq!(r.quiesced_after(6 * SECOND), Some(6 * SECOND));
        assert_eq!(r.quiesced_after(7 * SECOND), None); // bucket 7 is last and non-empty
    }

    #[test]
    fn time_series_step_interpolation() {
        let mut s = TimeSeries::new();
        s.push(10, 1.0);
        s.push(20, 2.0);
        assert_eq!(s.at(5), None);
        assert_eq!(s.at(10), Some(1.0));
        assert_eq!(s.at(15), Some(1.0));
        assert_eq!(s.at(25), Some(2.0));
        assert_eq!(s.last(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn time_series_rejects_out_of_order() {
        let mut s = TimeSeries::new();
        s.push(10, 1.0);
        s.push(5, 2.0);
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 20.0).abs() < 1e-9);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1_000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max());
        // ~7% relative error tolerance for log buckets.
        assert!(
            (p50 as f64 - 5_000_000.0).abs() / 5_000_000.0 < 0.15,
            "p50 {p50}"
        );
        assert!(
            (p99 as f64 - 9_900_000.0).abs() / 9_900_000.0 < 0.15,
            "p99 {p99}"
        );
    }

    /// `bucket_of` as it was written before the division became a shift.
    fn bucket_of_by_division(v: Nanos) -> usize {
        let v = v.max(1);
        let exp = 63 - v.leading_zeros() as usize;
        let frac_base = 1u64 << exp;
        let within = (u128::from(v - frac_base) * 10 / u128::from(frac_base)) as usize;
        (exp * 10 + within.min(9)).min(BUCKETS - 1)
    }

    #[test]
    fn bucket_of_matches_the_division_formula_at_the_edges() {
        let mut edges = vec![0, 1, 2, 3, u64::MAX - 1, u64::MAX];
        for exp in 1..64 {
            let base = 1u64 << exp;
            // Each sub-bucket boundary of the octave, and its neighbours.
            for within in 0..10u64 {
                let at = base + base / 10 * within + (base % 10) * within / 10;
                edges.extend([at - 1, at, at + 1]);
            }
        }
        for v in edges {
            assert_eq!(bucket_of(v), bucket_of_by_division(v), "v = {v}");
        }
    }

    #[test]
    fn histogram_merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(200);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 300);
    }

    proptest! {
        /// Bucketing never loses observations and quantiles are monotone.
        #[test]
        fn histogram_is_total_and_monotone(values in proptest::collection::vec(1u64..u64::MAX / 2, 1..500)) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            let qs: Vec<_> = [0.0, 0.25, 0.5, 0.75, 0.99, 1.0]
                .iter()
                .map(|&q| h.quantile(q))
                .collect();
            for w in qs.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }

        /// The shift is the division it replaced, on any value.
        #[test]
        fn bucket_of_is_the_division_formula(v in any::<u64>()) {
            prop_assert_eq!(bucket_of(v), bucket_of_by_division(v));
        }

        /// bucket_lower(bucket_of(v)) <= v for all v (lower bound is sound).
        #[test]
        fn bucket_bounds_sound(v in 1u64..u64::MAX / 2) {
            let idx = bucket_of(v);
            prop_assert!(bucket_lower(idx) <= v);
            if idx + 1 < BUCKETS {
                prop_assert!(bucket_lower(idx + 1) > v || bucket_lower(idx + 1) == bucket_lower(idx));
            }
        }
    }
}
