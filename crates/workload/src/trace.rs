//! Load traces: client counts as a function of virtual time.
//!
//! The scripted scenarios hard-code one burst (§6.6); the closed-loop
//! autoscaling scenarios need richer exogenous demand. A [`LoadTrace`] is
//! a step function of active client counts that the cluster runners
//! translate into client activations, and that controllers *react to*
//! (they never see the trace, only its effect on measured load).

use marlin_sim::{Nanos, SECOND};

/// A piecewise-constant count of active clients over time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadTrace {
    /// `(from, clients)` steps sorted by time; the first entry is at 0.
    points: Vec<(Nanos, u32)>,
}

impl LoadTrace {
    /// A trace from explicit steps. Entries are sorted by time; a missing
    /// step at time 0 starts the trace at the first entry's count.
    #[must_use]
    pub fn steps(mut points: Vec<(Nanos, u32)>) -> Self {
        assert!(!points.is_empty(), "a trace needs at least one step");
        points.sort_by_key(|&(t, _)| t);
        if points[0].0 != 0 {
            let first = points[0].1;
            points.insert(0, (0, first));
        }
        points.dedup_by_key(|&mut (t, _)| t);
        LoadTrace { points }
    }

    /// A constant load.
    #[must_use]
    pub fn constant(clients: u32) -> Self {
        LoadTrace::steps(vec![(0, clients)])
    }

    /// The §6.6 shape: `base` clients, a spike to `peak` during
    /// `[spike_at, calm_at)`, then back to `base`.
    #[must_use]
    pub fn spike(base: u32, peak: u32, spike_at: Nanos, calm_at: Nanos) -> Self {
        assert!(spike_at < calm_at, "spike must end after it starts");
        LoadTrace::steps(vec![(0, base), (spike_at, peak), (calm_at, base)])
    }

    /// A diurnal curve: sinusoidal demand between `trough` and `peak`
    /// with the given `period`, sampled into `steps_per_period` levels
    /// over `horizon`. Demand starts at the trough (03:00, as it were).
    #[must_use]
    pub fn diurnal(
        trough: u32,
        peak: u32,
        period: Nanos,
        horizon: Nanos,
        steps_per_period: u32,
    ) -> Self {
        assert!(trough <= peak, "trough must not exceed peak");
        assert!(period > 0 && steps_per_period > 0);
        let step = (period / u64::from(steps_per_period)).max(1);
        let mut points = Vec::new();
        let mut t = 0;
        while t <= horizon {
            let phase = (t % period) as f64 / period as f64;
            let level = (1.0 - (2.0 * std::f64::consts::PI * phase).cos()) / 2.0;
            let clients = trough + ((f64::from(peak - trough)) * level).round() as u32;
            points.push((t, clients));
            t += step;
        }
        LoadTrace::steps(points)
    }

    /// The §6.6 burst shape at paper scale: 400 clients, spiking to 800
    /// during `[20 s, 80 s)`. One source of truth for every preset built
    /// on the burst (`dynamic_burst`, `autoscale_spike`, and the CPU
    /// model comparison derived from it) — the shapes stay comparable
    /// because they are literally the same trace.
    #[must_use]
    pub fn paper_burst() -> Self {
        LoadTrace::spike(400, 800, 20 * SECOND, 80 * SECOND)
    }

    /// The two-cycle diurnal curve the closed-loop presets ride: demand
    /// between 100 and 600 clients over a 120 s period, sampled into 12
    /// levels, two full cycles. Shared by `autoscale_diurnal` and the
    /// predictive presets so the forecaster is validated against the
    /// exact curve the reactive baseline ran.
    #[must_use]
    pub fn paper_diurnal() -> Self {
        let period = 120 * SECOND;
        LoadTrace::diurnal(100, 600, period, 2 * period, 12)
    }

    /// A staircase ramp: `from` clients until `start`, then `steps`
    /// equal increments reaching `to` at `end`, holding `to` afterwards.
    /// Unlike [`LoadTrace::spike`]'s instantaneous edge, a ramp carries
    /// advance warning in its slope — the shape trend forecasters can
    /// anticipate (cloud demand grows over minutes; it rarely teleports).
    #[must_use]
    pub fn ramp(from: u32, to: u32, start: Nanos, end: Nanos, steps: u32) -> Self {
        assert!(start < end, "the ramp must take time");
        assert!(steps > 0, "a ramp needs at least one step");
        let mut points = vec![(0, from)];
        for i in 1..=u64::from(steps) {
            let t = start + (end - start) * i / u64::from(steps);
            let c = (i64::from(from)
                + (i64::from(to) - i64::from(from)) * i as i64 / i64::from(steps))
                as u32;
            points.push((t, c));
        }
        LoadTrace::steps(points)
    }

    /// Active clients at time `t` — the *single* step-lookup the
    /// runners' client activation uses.
    #[must_use]
    pub fn clients_at(&self, t: Nanos) -> u32 {
        match self.points.binary_search_by_key(&t, |&(at, _)| at) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// The trace as `(from, until, clients)` segments over `[0, horizon)`
    /// — the step intervals behind [`LoadTrace::clients_at`], for
    /// integrators that need dwell times rather than point samples.
    #[must_use]
    pub fn segments(&self, horizon: Nanos) -> Vec<(Nanos, Nanos, u32)> {
        let mut out = Vec::new();
        for (i, &(t, c)) in self.points.iter().enumerate() {
            if t >= horizon {
                break;
            }
            let end = self
                .points
                .get(i + 1)
                .map_or(horizon, |&(next, _)| next.min(horizon));
            out.push((t, end, c));
        }
        out
    }

    /// The maximum client count anywhere on the trace (runners provision
    /// generators for the peak).
    #[must_use]
    pub fn peak(&self) -> u32 {
        self.points.iter().map(|&(_, c)| c).max().unwrap_or(0)
    }

    /// All steps, for schedulers that pre-install the changes.
    #[must_use]
    pub fn changes(&self) -> &[(Nanos, u32)] {
        &self.points
    }

    /// Total seconds the trace spends at or above `threshold` clients,
    /// evaluated over `[0, horizon)`.
    #[must_use]
    pub fn seconds_at_or_above(&self, threshold: u32, horizon: Nanos) -> f64 {
        let total: u64 = self
            .segments(horizon)
            .iter()
            .filter(|&&(_, _, c)| c >= threshold)
            .map(|&(from, until, _)| until - from)
            .sum();
        total as f64 / SECOND as f64
    }
}

/// How many of the first `count` round-robin-assigned clients land in
/// group `group` out of `groups`.
///
/// The cluster runners deal clients to regions by `client % regions`
/// and activate the first `count` of them; this is the closed form of
/// that interleaving, used by the cohort client engine to size each
/// region's cohort without materializing per-client state. For any
/// `count`, summing over all groups returns exactly `count`.
#[must_use]
pub fn interleaved_share(count: u32, groups: u32, group: u32) -> u32 {
    assert!(group < groups, "group index out of range");
    count / groups + u32::from(count % groups > group)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_share_partitions_exactly() {
        for groups in 1..6u32 {
            for count in 0..50u32 {
                let total: u32 = (0..groups)
                    .map(|g| interleaved_share(count, groups, g))
                    .sum();
                assert_eq!(total, count);
                // The closed form matches the definitional count.
                for g in 0..groups {
                    let direct = (0..count).filter(|c| c % groups == g).count() as u32;
                    assert_eq!(interleaved_share(count, groups, g), direct);
                }
            }
        }
    }

    #[test]
    fn spike_steps_up_and_down() {
        let t = LoadTrace::spike(100, 200, 10 * SECOND, 40 * SECOND);
        assert_eq!(t.clients_at(0), 100);
        assert_eq!(t.clients_at(10 * SECOND), 200);
        assert_eq!(t.clients_at(39 * SECOND), 200);
        assert_eq!(t.clients_at(40 * SECOND), 100);
        assert_eq!(t.peak(), 200);
    }

    #[test]
    fn diurnal_touches_trough_and_peak() {
        let period = 60 * SECOND;
        let t = LoadTrace::diurnal(50, 150, period, 2 * period, 12);
        let counts: Vec<u32> = t.changes().iter().map(|&(_, c)| c).collect();
        assert_eq!(*counts.iter().min().unwrap(), 50);
        assert_eq!(*counts.iter().max().unwrap(), 150);
        assert_eq!(t.clients_at(0), 50, "diurnal starts at the trough");
        // Mid-period is the peak.
        assert_eq!(t.clients_at(period / 2), 150);
        // The curve is periodic.
        assert_eq!(t.clients_at(period / 4), t.clients_at(period + period / 4));
    }

    #[test]
    fn steps_sort_and_backfill_time_zero() {
        let t = LoadTrace::steps(vec![(20 * SECOND, 10), (5 * SECOND, 30)]);
        assert_eq!(t.clients_at(0), 30);
        assert_eq!(t.clients_at(6 * SECOND), 30);
        assert_eq!(t.clients_at(25 * SECOND), 10);
    }

    #[test]
    fn time_above_threshold_integrates_steps() {
        let t = LoadTrace::spike(100, 200, 10 * SECOND, 40 * SECOND);
        let above = t.seconds_at_or_above(150, 60 * SECOND);
        assert!((above - 30.0).abs() < 1e-9);
    }

    #[test]
    fn segments_tile_the_horizon_and_agree_with_point_lookups() {
        let t = LoadTrace::spike(100, 200, 10 * SECOND, 40 * SECOND);
        let segs = t.segments(60 * SECOND);
        assert_eq!(segs.first().map(|&(from, _, _)| from), Some(0));
        assert_eq!(segs.last().map(|&(_, until, _)| until), Some(60 * SECOND));
        for w in segs.windows(2) {
            assert_eq!(w[0].1, w[1].0, "segments tile with no gaps");
        }
        for &(from, until, c) in &segs {
            assert_eq!(t.clients_at(from), c);
            assert_eq!(t.clients_at(until - 1), c, "constant within the segment");
        }
    }

    #[test]
    fn ramp_climbs_in_equal_steps_and_holds() {
        let t = LoadTrace::ramp(100, 200, 20 * SECOND, 70 * SECOND, 10);
        assert_eq!(t.clients_at(0), 100);
        assert_eq!(t.clients_at(20 * SECOND), 100, "first step lands later");
        assert_eq!(t.clients_at(25 * SECOND), 110);
        assert_eq!(t.clients_at(70 * SECOND), 200);
        assert_eq!(t.clients_at(100 * SECOND), 200, "holds the top");
        let counts: Vec<u32> = t.changes().iter().map(|&(_, c)| c).collect();
        assert!(counts.windows(2).all(|w| w[1] >= w[0]), "monotone ramp");
    }

    #[test]
    fn paper_shapes_are_the_preset_curves() {
        let burst = LoadTrace::paper_burst();
        assert_eq!(burst.clients_at(0), 400);
        assert_eq!(burst.clients_at(20 * SECOND), 800);
        assert_eq!(burst.clients_at(80 * SECOND), 400);
        let diurnal = LoadTrace::paper_diurnal();
        assert_eq!(diurnal.clients_at(0), 100, "starts at the trough");
        assert_eq!(diurnal.peak(), 600);
        // Periodic over the 120 s cycle.
        assert_eq!(
            diurnal.clients_at(30 * SECOND),
            diurnal.clients_at(150 * SECOND)
        );
    }
}
