//! Order statistics for timings, and `VmHWM` parsing.

/// What is printed for every timing: the median, the quartiles, the
/// highest percentile the sample supports, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p50: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it; `None` below 100 samples.
    pub tail: Option<(f64, f64)>,
}

/// Percentiles a tail may be reported at, ascending, each with the
/// samples per 10 000 that lie beyond it (integers, so that 100 samples
/// have exactly ten beyond p90).
const TAILS: [(f64, usize); 4] = [(90.0, 1_000), (99.0, 100), (99.9, 10), (99.99, 1)];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// the spreads `--stability` prints are the ones the driver computes.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile of an ascending slice.
fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest reportable percentile for `n` samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rfind(|(_, beyond)| n * beyond >= MIN_BEYOND * 10_000)
        .map(|(pct, _)| *pct)
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let [q1, _, q3] = quartiles(&sorted);
    Summary {
        n: sorted.len(),
        min: sorted[0],
        p50: median(&sorted),
        q1,
        q3,
        tail: tail_percentile(sorted.len()).map(|p| (p, percentile_sorted(&sorted, p))),
    }
}

/// A fixed percentile of unsorted samples (nearest rank).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, pct)
}

/// `VmHWM` of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Fixed-vector checks of the arithmetic above.
pub fn self_test() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
    assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
    // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
    assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
    assert_eq!(quartiles(&[7.0]), [7.0; 3]);

    // Ten samples beyond p90 need 100 samples, beyond p99 need 1000.
    assert_eq!(tail_percentile(99), None);
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(50_000), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    let s = summarize(&thousand);
    assert_eq!(
        (s.n, s.min, s.p50, s.tail),
        (1000, 1.0, 500.5, Some((99.0, 990.0)))
    );
    assert_eq!(percentile(&thousand, 50.0), 500.0);

    let status = "Name:\te2e\nVmPeak:\t  9000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
    assert_eq!(parse_vm_hwm(status), Some(20_480));
    assert_eq!(parse_vm_hwm("VmRSS:\t 100 kB\n"), None);
}
