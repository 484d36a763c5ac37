//! The sim self-profiler: wall-clock time per subsystem phase, event-queue
//! depth stats, and virtual-seconds-per-wall-second.

use std::time::Instant;

/// Accumulated wall time for one named phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name ("event:client_txn", "observe", "plan:build", ...).
    pub name: &'static str,
    /// Total wall-clock nanoseconds spent in the phase.
    pub wall_nanos: u64,
    /// Times the phase ran.
    pub calls: u64,
}

/// The profiler's end-of-run numbers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileSummary {
    /// Per-phase wall time, sorted by name for a stable rendering.
    pub phases: Vec<PhaseStat>,
    /// Total wall nanoseconds across top-level measured sections (phases
    /// can nest, so this is tracked separately and is not their sum).
    pub total_wall_nanos: u64,
    /// Events dispatched while profiling.
    pub events: u64,
    /// Mean event-queue depth over the 1 Hz samples.
    pub queue_depth_mean: f64,
    /// Maximum sampled event-queue depth.
    pub queue_depth_max: u64,
}

impl ProfileSummary {
    /// The stat recorded under `name`, if that phase ever ran — e.g.
    /// `"event:cohort_step"` to see what the cohort scale engine cost.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// Wall-clock profiler. Disabled profilers never call `Instant::now`,
/// so the hot path pays one branch per instrumentation point.
#[derive(Debug)]
pub struct Profiler {
    enabled: bool,
    phases: Vec<(u64, u64)>,
    names: Vec<&'static str>,
    total_wall: u64,
    events: u64,
    depth_sum: u128,
    depth_max: u64,
    depth_samples: u64,
}

impl Profiler {
    /// A profiler that measures nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Profiler {
            enabled: false,
            phases: Vec::new(),
            names: Vec::new(),
            total_wall: 0,
            events: 0,
            depth_sum: 0,
            depth_max: 0,
            depth_samples: 0,
        }
    }

    /// A live profiler.
    #[must_use]
    pub fn enabled() -> Self {
        Profiler {
            enabled: true,
            ..Profiler::disabled()
        }
    }

    /// Enabled iff `MARLIN_BENCH_JSON` is set (the bench perf-trajectory
    /// artifacts are the consumer of the profile numbers).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("MARLIN_BENCH_JSON") {
            Ok(d) if !d.is_empty() => Profiler::enabled(),
            _ => Profiler::disabled(),
        }
    }

    /// Is the profiler measuring?
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start timing a section; `None` when disabled. Pair with
    /// [`Profiler::record`] or [`Profiler::record_total`].
    #[inline]
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Book the elapsed time since `started` under `name`. No-op when
    /// `started` is `None`.
    #[inline]
    pub fn record(&mut self, name: &'static str, started: Option<Instant>) {
        let Some(t0) = started else { return };
        self.book(name, t0.elapsed().as_nanos() as u64);
    }

    /// Add one call of `dt` nanoseconds to phase `name`.
    fn book(&mut self, name: &'static str, dt: u64) {
        match self.names.iter().position(|&n| n == name) {
            Some(i) => {
                self.phases[i].0 += dt;
                self.phases[i].1 += 1;
            }
            None => {
                self.names.push(name);
                self.phases.push((dt, 1));
            }
        }
    }

    /// Book the time since `*lap` under `name` and restart `*lap` at the
    /// same instant, so consecutive laps split an enclosing section
    /// without gaps or overlap and sum to at most its own reading. No-op
    /// when `*lap` is `None`.
    #[inline]
    pub fn lap(&mut self, name: &'static str, lap: &mut Option<Instant>) {
        let Some(t0) = *lap else { return };
        let now = Instant::now();
        self.book(name, now.duration_since(t0).as_nanos() as u64);
        *lap = Some(now);
    }

    /// Book the elapsed time since `started` into the top-level total
    /// only (for outer sections whose interior is already phase-timed).
    #[inline]
    pub fn record_total(&mut self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.total_wall += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Count one dispatched event.
    #[inline]
    pub fn count_event(&mut self) {
        if self.enabled {
            self.events += 1;
        }
    }

    /// Record one event-queue depth sample.
    #[inline]
    pub fn sample_depth(&mut self, depth: u64) {
        if !self.enabled {
            return;
        }
        self.depth_sum += u128::from(depth);
        self.depth_max = self.depth_max.max(depth);
        self.depth_samples += 1;
    }

    /// Snapshot the accumulated numbers.
    #[must_use]
    pub fn summary(&self) -> ProfileSummary {
        let mut phases: Vec<PhaseStat> = self
            .names
            .iter()
            .zip(&self.phases)
            .map(|(&name, &(wall_nanos, calls))| PhaseStat {
                name,
                wall_nanos,
                calls,
            })
            .collect();
        phases.sort_by_key(|p| p.name);
        ProfileSummary {
            phases,
            total_wall_nanos: self.total_wall,
            events: self.events,
            queue_depth_mean: if self.depth_samples == 0 {
                0.0
            } else {
                self.depth_sum as f64 / self.depth_samples as f64
            },
            queue_depth_max: self.depth_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_measures_nothing() {
        let mut p = Profiler::disabled();
        assert!(p.start().is_none());
        p.record("x", p.start());
        let mut lap = p.start();
        p.lap("y", &mut lap);
        assert!(lap.is_none());
        p.sample_depth(10);
        let s = p.summary();
        assert!(s.phases.is_empty());
        assert_eq!(s.events, 0);
        assert_eq!(s.queue_depth_max, 0);
    }

    #[test]
    fn phases_accumulate_and_sort_by_name() {
        let mut p = Profiler::enabled();
        for _ in 0..3 {
            let t = p.start();
            p.record("b_phase", t);
            p.count_event();
        }
        let t = p.start();
        p.record("a_phase", t);
        p.count_event();
        p.record_total(p.start());
        p.sample_depth(4);
        p.sample_depth(8);
        let s = p.summary();
        assert_eq!(s.events, 4);
        assert_eq!(
            s.phases
                .iter()
                .map(|p| (p.name, p.calls))
                .collect::<Vec<_>>(),
            vec![("a_phase", 1), ("b_phase", 3)]
        );
        assert!((s.queue_depth_mean - 6.0).abs() < 1e-9);
        assert_eq!(s.queue_depth_max, 8);
        assert_eq!(s.phase("b_phase").map(|p| p.calls), Some(3));
        assert!(s.phase("missing").is_none());
    }

    #[test]
    fn laps_split_a_section_without_overlap() {
        let mut p = Profiler::enabled();
        let outer = p.start();
        let mut lap = outer;
        for name in ["first", "second", "first"] {
            std::hint::black_box((0..1_000u64).sum::<u64>());
            p.lap(name, &mut lap);
        }
        p.record("outer", outer);
        let s = p.summary();
        let wall = |name| s.phase(name).map_or(0, |p| p.wall_nanos);
        assert_eq!(s.phase("first").map(|p| p.calls), Some(2));
        assert!(wall("first") + wall("second") <= wall("outer"));
        assert!(lap > outer, "each lap restarts the clock");
    }
}
