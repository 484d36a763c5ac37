//! Deterministic granule-heat accounting: an exact counter vector and a
//! count-min sketch behind one [`HeatTracker`] facade.
//!
//! The cluster simulator records one heat increment per granule touch to
//! drive the autoscaler's hot-granule rebalance planner. At paper scale
//! (a few hundred thousand granules) an exact `Vec<u32>` is cheap; at
//! `million_clients` scale the observation path wants sublinear space
//! and a bounded heavy-hitter shortlist. Either way a window costs what
//! it touched, never a scan of every granule. [`HeatTracker`] picks the
//! representation once at construction:
//!
//! - **Exact** — a plain per-granule vector, bit-identical to the
//!   historical `granule_hits` accounting, plus the list of keys touched
//!   this window (ranking and clearing are O(touched)). Used when the
//!   sketch is disabled *or* the granule count is below the configured
//!   threshold (where the sketch would cost more than the vector).
//! - **Sketched** — a [`CountMinSketch`] plus a bounded heavy-hitter
//!   candidate list. Estimates never undercount; the expected
//!   overcount per row is `total / width`, and the documented test
//!   envelope is `8 * total / width` (see the property suite).
//!
//! Determinism: row seeds come from a caller-provided [`DetRng`]
//! (forked, never the simulator's main stream), hashing is a fixed
//! multiply-xor mix, and the candidate list is maintained with fully
//! ordered tie-breaks — the same access stream always yields the same
//! shortlist, which is what lets the engine-parity suite pin
//! sketch-vs-exact rebalance plans against each other.

use crate::rng::DetRng;

/// Rows in the count-min sketch (independent hash functions).
const ROWS: usize = 4;

/// Maximum heavy-hitter candidates retained by a sketched tracker. Must
/// comfortably exceed the observation surface's shortlist (64) so the
/// top of the candidate list matches what an exact scan would return on
/// skewed workloads.
const CANDIDATES: usize = 256;

/// A deterministic count-min sketch over `u64` keys.
///
/// Estimates are upper bounds: `estimate(k) >= true_count(k)` always,
/// with expected per-row excess `total() / width`. Merging two sketches
/// of identical shape and seeds adds their tables, so estimates are
/// monotone under [`CountMinSketch::merge`].
#[derive(Clone, Debug)]
pub struct CountMinSketch {
    /// Row-major `ROWS x width` counter table.
    counts: Vec<u32>,
    /// Power-of-two row width.
    width: usize,
    /// Per-row hash seeds, drawn from the constructor's `DetRng`.
    seeds: [u64; ROWS],
    /// Total weight recorded (sum of all `record` increments).
    total: u64,
}

impl CountMinSketch {
    /// Build a sketch with `width` counters per row (rounded up to a
    /// power of two, minimum 16), seeding the row hashes from `rng`.
    #[must_use]
    pub fn new(width: usize, rng: &mut DetRng) -> Self {
        let width = width.max(16).next_power_of_two();
        let mut seeds = [0u64; ROWS];
        for s in &mut seeds {
            // Ensure seeds are odd so the multiply below never fixes 0.
            *s = rng.next_u64() | 1;
        }
        CountMinSketch {
            counts: vec![0; ROWS * width],
            width,
            seeds,
            total: 0,
        }
    }

    /// Row-local bucket of `key` under this row's seed.
    fn bucket(&self, row: usize, key: u64) -> usize {
        // SplitMix64-style finalizer keyed by the row seed: deterministic,
        // well-mixed, and cheap enough for the per-touch hot path.
        let mut h = key ^ self.seeds[row];
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h as usize) & (self.width - 1)
    }

    /// Add `weight` to `key`'s counters.
    pub fn record(&mut self, key: u64, weight: u32) {
        for row in 0..ROWS {
            let b = self.bucket(row, key);
            let slot = &mut self.counts[row * self.width + b];
            *slot = slot.saturating_add(weight);
        }
        self.total += u64::from(weight);
    }

    /// Upper-bound estimate of `key`'s recorded weight (min over rows).
    #[must_use]
    pub fn estimate(&self, key: u64) -> u32 {
        (0..ROWS)
            .map(|row| self.counts[row * self.width + self.bucket(row, key)])
            .min()
            .unwrap_or(0)
    }

    /// Counters per row.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total weight recorded since construction or the last [`reset`].
    ///
    /// [`reset`]: CountMinSketch::reset
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Zero every counter, keeping shape and seeds.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Fold another sketch of identical shape and seeds into this one.
    ///
    /// # Panics
    /// Panics if widths or seeds differ (merging differently-hashed
    /// tables would produce meaningless estimates).
    pub fn merge(&mut self, other: &CountMinSketch) {
        assert_eq!(self.width, other.width, "sketch widths differ");
        assert_eq!(self.seeds, other.seeds, "sketch seeds differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.total += other.total;
    }
}

/// Representation behind a [`HeatTracker`].
#[derive(Clone, Debug)]
enum Heat {
    /// Exact per-key counter vector (historical behavior).
    Exact {
        /// One counter per key.
        counts: Vec<u32>,
        /// Keys whose counter left 0 this window, each once.
        touched: Vec<usize>,
    },
    /// Count-min sketch plus a bounded heavy-hitter candidate list of
    /// `(key, estimate)` pairs.
    Sketched {
        /// The error-bounded counter table.
        sketch: CountMinSketch,
        /// Current heavy-hitter candidates, unordered; pruned to the
        /// lowest estimate when full.
        candidates: Vec<(u64, u32)>,
    },
}

/// Granule-heat tracker: exact below a size threshold, sketched above.
///
/// The facade exposes exactly the operations the simulator's
/// observation path needs — weighted increments, a hottest-`k`
/// shortlist sorted like the historical exact scan, and a window reset
/// — so swapping representations cannot change the observation surface.
#[derive(Clone, Debug)]
pub struct HeatTracker {
    /// Number of distinct keys (granules) tracked.
    keys: usize,
    /// The active representation, fixed at construction.
    heat: Heat,
}

impl HeatTracker {
    /// Build a tracker over `keys` distinct keys.
    ///
    /// Uses the exact vector unless `sketch` is requested *and* `keys >=
    /// sketch_min`; `rng` seeds the sketch rows (pass a forked stream,
    /// not the simulation's main RNG). The sketch width is sized to
    /// `keys / 8` (clamped to `[1024, 65536]`) so space stays sublinear
    /// while the expected excess `total/width` remains small relative to
    /// per-window hot-granule counts.
    #[must_use]
    pub fn new(keys: usize, sketch: bool, sketch_min: usize, rng: &mut DetRng) -> Self {
        let heat = if sketch && keys >= sketch_min {
            let width = (keys / 8).clamp(1_024, 65_536);
            Heat::Sketched {
                sketch: CountMinSketch::new(width, rng),
                candidates: Vec::with_capacity(CANDIDATES),
            }
        } else {
            Heat::Exact {
                counts: vec![0; keys],
                touched: Vec::new(),
            }
        };
        HeatTracker { keys, heat }
    }

    /// Whether this tracker is running on the sketched representation.
    #[must_use]
    pub fn is_sketched(&self) -> bool {
        matches!(self.heat, Heat::Sketched { .. })
    }

    /// Add `weight` touches to `key`.
    pub fn record(&mut self, key: usize, weight: u32) {
        match &mut self.heat {
            Heat::Exact { counts, touched } => {
                if counts[key] == 0 && weight > 0 {
                    touched.push(key);
                }
                counts[key] = counts[key].saturating_add(weight);
            }
            Heat::Sketched { sketch, candidates } => {
                let k = key as u64;
                sketch.record(k, weight);
                let est = sketch.estimate(k);
                if let Some(c) = candidates.iter_mut().find(|(ck, _)| *ck == k) {
                    c.1 = est;
                } else if candidates.len() < CANDIDATES {
                    candidates.push((k, est));
                } else if let Some((i, &(_, min_est))) = candidates
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (ck, e))| (*e, *ck))
                {
                    // Evict the coldest candidate (ties: lowest key) if
                    // the newcomer's estimate beats it — a deterministic
                    // space-saving style admission rule.
                    if est > min_est {
                        candidates[i] = (k, est);
                    }
                }
            }
        }
    }

    /// Estimated touches for `key` in the current window (exact in
    /// exact mode; an upper bound in sketched mode).
    #[must_use]
    pub fn estimate(&self, key: usize) -> u32 {
        match &self.heat {
            Heat::Exact { counts, .. } => counts[key],
            Heat::Sketched { sketch, .. } => sketch.estimate(key as u64),
        }
    }

    /// The hottest `k` keys, sorted by `(count, key)` descending — the
    /// exact order the historical `granule_hits` scan produced. Keys
    /// with zero heat never appear. Only the keys touched this window
    /// (exact) or the candidates (sketched) are ranked; selecting the top
    /// `k` before sorting them is exact because the order is total.
    #[must_use]
    pub fn hottest(&self, k: usize) -> Vec<(usize, u32)> {
        let mut hot: Vec<(u32, usize)> = match &self.heat {
            Heat::Exact { counts, touched } => touched.iter().map(|&g| (counts[g], g)).collect(),
            Heat::Sketched { candidates, .. } => candidates
                .iter()
                .filter(|(_, e)| *e > 0)
                .map(|(ck, e)| (*e, *ck as usize))
                .collect(),
        };
        if k < hot.len() {
            hot.select_nth_unstable_by(k, |a, b| b.cmp(a));
            hot.truncate(k);
        }
        hot.sort_unstable_by(|a, b| b.cmp(a));
        hot.into_iter().map(|(h, g)| (g, h)).collect()
    }

    /// Keys `hottest` would rank now: touched this window, or candidates.
    #[must_use]
    pub fn touched(&self) -> usize {
        match &self.heat {
            Heat::Exact { touched, .. } => touched.len(),
            Heat::Sketched { candidates, .. } => candidates.len(),
        }
    }

    /// Clear the window: zero the touched counters, drop sketch candidates.
    pub fn reset(&mut self) {
        match &mut self.heat {
            Heat::Exact { counts, touched } => touched.drain(..).for_each(|g| counts[g] = 0),
            Heat::Sketched { sketch, candidates } => {
                sketch.reset();
                candidates.clear();
            }
        }
    }

    /// Number of distinct keys this tracker covers.
    #[must_use]
    pub fn keys(&self) -> usize {
        self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng() -> DetRng {
        DetRng::seed(0xC0FFEE)
    }

    #[test]
    fn sketch_never_undercounts() {
        let mut s = CountMinSketch::new(64, &mut rng());
        for k in 0..1_000u64 {
            s.record(k % 97, 1);
        }
        for k in 0..97u64 {
            assert!(u64::from(s.estimate(k)) >= 1_000 / 97);
        }
        assert_eq!(s.total(), 1_000);
    }

    #[test]
    fn exact_tracker_matches_plain_vector() {
        let mut t = HeatTracker::new(100, false, 4, &mut rng());
        assert!(!t.is_sketched());
        t.record(3, 2);
        t.record(7, 1);
        t.record(3, 1);
        assert_eq!(t.estimate(3), 3);
        assert_eq!(t.estimate(7), 1);
        assert_eq!(t.hottest(10), vec![(3, 3), (7, 1)]);
        t.reset();
        assert_eq!(t.hottest(10), vec![]);
    }

    #[test]
    fn hottest_breaks_ties_toward_higher_key_like_the_exact_scan() {
        let mut t = HeatTracker::new(10, false, 1_000_000, &mut rng());
        t.record(2, 5);
        t.record(8, 5);
        t.record(5, 9);
        assert_eq!(t.hottest(3), vec![(5, 9), (8, 5), (2, 5)]);
    }

    #[test]
    fn sketched_tracker_finds_heavy_hitters() {
        let mut t = HeatTracker::new(100_000, true, 4_096, &mut rng());
        assert!(t.is_sketched());
        // One heavy key among light background traffic.
        for i in 0..5_000usize {
            t.record(i % 1_000, 1);
        }
        t.record(42_424, 10_000);
        let hot = t.hottest(1);
        assert_eq!(hot[0].0, 42_424);
        assert!(hot[0].1 >= 10_000);
    }

    /// Reference implementation: the historical exact tracker, which
    /// ranked by scanning and fully sorting every counter and cleared a
    /// window with `fill(0)`.
    struct RefHeat(Vec<u32>);

    impl RefHeat {
        fn record(&mut self, key: usize, weight: u32) {
            self.0[key] = self.0[key].saturating_add(weight);
        }
        fn hottest(&self, k: usize) -> Vec<(usize, u32)> {
            let mut hot: Vec<(u32, usize)> = self
                .0
                .iter()
                .enumerate()
                .filter(|(_, h)| **h > 0)
                .map(|(g, h)| (*h, g))
                .collect();
            hot.sort_unstable_by(|a, b| b.cmp(a));
            hot.truncate(k);
            hot.into_iter().map(|(h, g)| (g, h)).collect()
        }
        fn reset(&mut self) {
            self.0.fill(0);
        }
    }

    /// The touched list of an exact tracker.
    fn touched(t: &HeatTracker) -> &[usize] {
        match &t.heat {
            Heat::Exact { touched, .. } => touched,
            Heat::Sketched { .. } => panic!("exact tracker expected"),
        }
    }

    #[test]
    fn touched_list_holds_each_nonzero_key_once_and_empties_on_reset() {
        let mut t = HeatTracker::new(8, false, 0, &mut rng());
        t.record(3, 0);
        assert!(touched(&t).is_empty(), "weight 0 touches nothing");
        assert_eq!(t.hottest(8), vec![]);
        t.record(3, u32::MAX - 1);
        t.record(3, 5);
        t.record(5, 1);
        t.record(5, 0);
        assert_eq!(touched(&t), [3, 5]);
        assert_eq!(t.hottest(8), vec![(3, u32::MAX), (5, 1)], "saturates");
        t.reset();
        assert!(touched(&t).is_empty());
        assert_eq!((t.estimate(3), t.estimate(5)), (0, 0));
        t.record(5, 2);
        assert_eq!(touched(&t), [5], "re-touched after the reset");
        assert_eq!(t.hottest(1), vec![(5, 2)]);
    }

    proptest! {
        /// The touched-list tracker returns what the full scan returned,
        /// for every `k`, under scripts of `record` / `hottest` / `reset`
        /// over few keys (ties on count are common) with weights that
        /// include 0 and values that saturate the counter.
        #[test]
        fn exact_tracker_matches_the_full_scan_reference(
            ops in proptest::collection::vec((0u8..16, 0usize..24, 0u8..8), 1..300),
        ) {
            const KEYS: usize = 24;
            let mut t = HeatTracker::new(KEYS, true, KEYS + 1, &mut rng());
            let mut r = RefHeat(vec![0; KEYS]);
            prop_assert!(!t.is_sketched());
            for (kind, key, w) in ops {
                match kind {
                    0 => {
                        t.reset();
                        r.reset();
                    }
                    1..=3 => {
                        for k in [0, 1, 64, KEYS + 5, key] {
                            prop_assert_eq!(t.hottest(k), r.hottest(k), "k = {}", k);
                        }
                    }
                    _ => {
                        let weight = match w {
                            0 => 0,
                            1 => u32::MAX,
                            2 => u32::MAX / 2,
                            _ => u32::from(w) - 2,
                        };
                        t.record(key, weight);
                        r.record(key, weight);
                    }
                }
                let mut listed = touched(&t).to_vec();
                listed.sort_unstable();
                let nonzero: Vec<usize> = (0..KEYS).filter(|&g| r.0[g] > 0).collect();
                prop_assert_eq!(listed, nonzero);
                for g in 0..KEYS {
                    prop_assert_eq!(t.estimate(g), r.0[g]);
                }
            }
        }

        /// Selecting the top `k` candidates before sorting them returns
        /// what sorting the whole candidate list returned.
        #[test]
        fn sketched_hottest_is_a_prefix_of_the_full_ranking(
            ops in proptest::collection::vec((0usize..2_000, 1u32..50), 1..600),
        ) {
            let mut t = HeatTracker::new(100_000, true, 4_096, &mut rng());
            for (key, weight) in ops {
                t.record(key, weight);
            }
            let all = t.hottest(CANDIDATES);
            prop_assert!(all.windows(2).all(|p| (p[0].1, p[0].0) > (p[1].1, p[1].0)));
            for k in [0, 1, 64, CANDIDATES - 1] {
                prop_assert_eq!(&t.hottest(k)[..], &all[..k.min(all.len())]);
            }
        }
    }

    #[test]
    fn threshold_falls_back_to_exact() {
        let t = HeatTracker::new(100, true, 4_096, &mut rng());
        assert!(!t.is_sketched());
        let t = HeatTracker::new(100_000, true, 4_096, &mut rng());
        assert!(t.is_sketched());
    }
}
