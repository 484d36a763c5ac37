//! Property tests for the deterministic granule-heat sketch
//! (`marlin::sim::sketch`), via the offline proptest shim.
//!
//! Four promises the cohort scale engine rests on:
//!
//! 1. **Determinism per seed** — the same `DetRng` seed and access
//!    stream always produce the same estimates and the same hottest-`k`
//!    shortlist; the simulator's digest stability depends on it.
//! 2. **Error envelope** — estimates never undercount, and overcount by
//!    at most `8 * total / width` (4 independent rows make the expected
//!    excess `total / width`; the factor-8 envelope makes the property
//!    deterministic rather than probabilistic).
//! 3. **Monotone under merge** — folding one sketch into another never
//!    lowers any estimate, and the merged estimate still upper-bounds
//!    the summed true counts.
//! 4. **Exact-mode equivalence** — below the `sketch_min` threshold a
//!    sketch-requested tracker is *bit-identical* to the exact vector
//!    (what a cohort run on a small table counts heat with).
//! 5. **Same head on skew** — on a Zipfian stream the sketched tracker
//!    ranks the hottest keys exactly as the exact vector does, which is
//!    what the rebalance planner reads.

use marlin::sim::sketch::SKETCH_MIN_KEYS;
use marlin::sim::{CountMinSketch, DetRng, HeatTracker};
use marlin::workload::ZipfSampler;
use proptest::prelude::*;

/// A weighted access stream: `(key, weight)` pairs over a small keyspace
/// so collisions and repeats are common.
fn stream(keys: u64) -> impl Strategy<Value = Vec<(u64, u32)>> {
    proptest::collection::vec((0..keys, 1..64u32), 0..400)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Promise 1: seed + stream is a pure function of the sketch state.
    #[test]
    fn same_seed_and_stream_reproduce_the_sketch(
        seed in 0..u64::MAX,
        ops in stream(512),
    ) {
        let build = || {
            let mut rng = DetRng::seed(seed);
            let mut t = HeatTracker::new(100_000, true, 1, &mut rng);
            for &(k, w) in &ops {
                t.record(k as usize, w);
            }
            t
        };
        let (a, b) = (build(), build());
        prop_assert!(a.is_sketched());
        for k in 0..512usize {
            prop_assert_eq!(a.estimate(k), b.estimate(k), "key {}", k);
        }
        prop_assert_eq!(a.hottest(64), b.hottest(64));
    }

    /// Promise 2: `true <= estimate <= true + 8 * total / width` for
    /// every touched key, against an exact shadow count.
    #[test]
    fn estimates_respect_the_error_envelope(
        seed in 0..u64::MAX,
        ops in stream(2_048),
    ) {
        let mut rng = DetRng::seed(seed);
        let mut s = CountMinSketch::new(256, &mut rng);
        let mut shadow = std::collections::BTreeMap::new();
        for &(k, w) in &ops {
            s.record(k, w);
            *shadow.entry(k).or_insert(0u64) += u64::from(w);
        }
        let slack = 8 * s.total() / s.width() as u64;
        for (&k, &true_count) in &shadow {
            let est = u64::from(s.estimate(k));
            prop_assert!(est >= true_count, "undercount on key {}: {} < {}", k, est, true_count);
            prop_assert!(
                est <= true_count + slack,
                "key {}: estimate {} exceeds true {} + slack {}",
                k, est, true_count, slack
            );
        }
    }

    /// Promise 3: merging adds tables, so no estimate ever drops, and
    /// the merged sketch still upper-bounds the combined true counts.
    #[test]
    fn merge_is_monotone_and_never_undercounts(
        seed in 0..u64::MAX,
        left in stream(512),
        right in stream(512),
    ) {
        let mut a = CountMinSketch::new(64, &mut DetRng::seed(seed));
        let mut b = CountMinSketch::new(64, &mut DetRng::seed(seed));
        let mut shadow = std::collections::BTreeMap::new();
        for &(k, w) in &left {
            a.record(k, w);
            *shadow.entry(k).or_insert(0u64) += u64::from(w);
        }
        for &(k, w) in &right {
            b.record(k, w);
            *shadow.entry(k).or_insert(0u64) += u64::from(w);
        }
        let before: Vec<u32> = (0..512).map(|k| a.estimate(k)).collect();
        a.merge(&b);
        prop_assert_eq!(a.total(), shadow.values().sum::<u64>());
        for k in 0..512u64 {
            prop_assert!(
                a.estimate(k) >= before[k as usize],
                "merge lowered key {}: {} -> {}", k, before[k as usize], a.estimate(k)
            );
        }
        for (&k, &true_count) in &shadow {
            prop_assert!(
                u64::from(a.estimate(k)) >= true_count,
                "merged sketch undercounts key {}", k
            );
        }
    }

    /// Promise 4: below the threshold, a sketch-requested tracker *is*
    /// the exact vector — same estimates, same shortlist, same reset.
    #[test]
    fn below_threshold_sketch_mode_equals_exact_mode(
        seed in 0..u64::MAX,
        ops in stream(256),
    ) {
        let mut sketchy = HeatTracker::new(256, true, 4_096, &mut DetRng::seed(seed));
        let mut exact = HeatTracker::new(256, false, 4_096, &mut DetRng::seed(seed));
        prop_assert!(!sketchy.is_sketched(), "256 keys sit below sketch_min");
        for &(k, w) in &ops {
            sketchy.record(k as usize, w);
            exact.record(k as usize, w);
        }
        for k in 0..256usize {
            prop_assert_eq!(sketchy.estimate(k), exact.estimate(k));
        }
        prop_assert_eq!(sketchy.hottest(64), exact.hottest(64));
        sketchy.reset();
        exact.reset();
        prop_assert_eq!(sketchy.hottest(64), exact.hottest(64));
    }
}

/// Promise 5: Zipf(0.9) separates the head keys' counts by more than
/// the sketch overcounts them, so window after window the sketched
/// tracker's hottest keys are the exact tracker's, in the same order.
/// (Past the top 8 neighbours' counts come within the overcount, and
/// the two may swap them.)
#[test]
fn sketched_heat_ranks_the_zipf_head_like_the_exact_vector() {
    const KEYS: usize = 20_000;
    const HEAD: usize = 8;
    let zipf = ZipfSampler::new(KEYS as u64, 0.9);
    let mut rng = DetRng::seed(7);
    let mut sketched = HeatTracker::new(KEYS, true, SKETCH_MIN_KEYS, &mut DetRng::seed(1));
    let mut exact = HeatTracker::new(KEYS, false, SKETCH_MIN_KEYS, &mut DetRng::seed(1));
    assert!(sketched.is_sketched() && !exact.is_sketched());
    let head =
        |t: &HeatTracker| -> Vec<usize> { t.hottest(HEAD).iter().map(|&(k, _)| k).collect() };
    for window in 0..4 {
        for _ in 0..100_000 {
            let key = zipf.next_rank(&mut rng) as usize;
            sketched.record(key, 1);
            exact.record(key, 1);
        }
        assert_eq!(head(&sketched), head(&exact), "window {window}");
        sketched.reset();
        exact.reset();
    }
}
