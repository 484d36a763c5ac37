//! What every workload shares: the iteration schedule, the result shape,
//! and the three metrics every workload reports.

use crate::catalogue::MetricSet;
use crate::span::Recorder;
use crate::stats::{self, Summary};
use marlin::autoscaler::Observation;
use std::time::Instant;

/// What one workload run was asked to do.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// How long to measure, warm-up excluded.
    pub seconds: f64,
    /// Whether traced iterations alternate with the untraced ones.
    pub trace: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Iteration 0: run like an untraced one, then discarded.
    WarmUp,
    Untraced,
    Traced,
}

/// Decides which pass runs next: one warm-up, then untraced iterations
/// (each followed by a traced one when tracing) until the measuring time
/// is used up. Iterations are whole, so a run stops once the next one
/// would overshoot `seconds` by more than half an iteration.
pub struct Schedule {
    seconds: f64,
    trace: bool,
    started: Option<Instant>,
    last_round_started: f64,
    rounds: u32,
    pending_traced: bool,
}

/// Iterations kept in memory at most; a guard, not a tuning knob.
const MAX_ROUNDS: u32 = 256;

impl Schedule {
    pub fn new(ctx: &Ctx) -> Self {
        Schedule {
            seconds: ctx.seconds,
            trace: ctx.trace,
            started: None,
            last_round_started: 0.0,
            rounds: 0,
            pending_traced: false,
        }
    }

    pub fn next(&mut self) -> Option<Pass> {
        let Some(started) = self.started else {
            self.started = Some(Instant::now());
            return Some(Pass::WarmUp);
        };
        if self.pending_traced {
            self.pending_traced = false;
            return Some(Pass::Traced);
        }
        let elapsed = started.elapsed().as_secs_f64();
        if self.rounds == 0 {
            // The clock starts after the warm-up.
            self.started = Some(Instant::now());
        } else {
            let round = elapsed - self.last_round_started;
            if elapsed + round / 2.0 >= self.seconds || self.rounds >= MAX_ROUNDS {
                return None;
            }
            self.last_round_started = elapsed;
        }
        self.rounds += 1;
        self.pending_traced = self.trace;
        Some(Pass::Untraced)
    }
}

/// One printed timing.
pub struct Timing {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Timing {
    pub fn new(name: impl Into<String>, unit: &'static str, values: &[f64]) -> Self {
        Timing {
            name: name.into(),
            unit,
            summary: stats::summarize(values),
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued in one iteration.
    pub attempted: u64,
    /// Operations whose result was wrong or an unexpected error.
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub failures: Vec<String>,
    pub values: MetricSet,
    pub timings: Vec<Timing>,
    /// Lines for the run's human-readable report.
    pub notes: Vec<String>,
    /// Chrome trace of the last traced iteration.
    pub chrome_trace: Option<String>,
    /// The newest observation a traced iteration saw, for the planner probe.
    pub last_observation: Option<Observation>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failed check once, however many iterations repeat it.
    pub fn fail(&mut self, what: String) {
        if !self.failures.contains(&what) {
            self.failures.push(what);
        }
    }
}

/// Host times of the measured iterations.
#[derive(Default)]
pub struct IterTimes {
    pub setup_s: Vec<f64>,
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
}

/// Set-ups a run times at least and at most, so `setup_s` is a median of
/// several, and the time all of them may take together.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 1_000;
const SETUPS_BUDGET_S: f64 = 1.0;

impl IterTimes {
    pub fn record(&mut self, pass: Pass, setup_s: f64, wall_s: f64) {
        match pass {
            Pass::WarmUp => {}
            Pass::Untraced => {
                self.setup_s.push(setup_s);
                self.untraced_s.push(wall_s);
            }
            Pass::Traced => {
                self.setup_s.push(setup_s);
                self.traced_s.push(wall_s);
            }
        }
    }

    /// Repeat `setup` (which returns its own duration) until enough
    /// set-ups were timed: a second's worth. Set-ups here take 0.1 to 5 ms,
    /// and the median of 40 of them moved by a quarter from run to run
    /// (`sim_scaleout_exact`: 1.7 to 2.7 ms); the median of some hundreds
    /// stays within a tenth.
    pub fn top_up_setups(&mut self, mut setup: impl FnMut() -> f64) {
        let one = stats::median(&self.setup_s).max(1e-9);
        let want = ((SETUPS_BUDGET_S / one) as usize).clamp(MIN_SETUPS, MAX_SETUPS);
        while self.setup_s.len() < want {
            self.setup_s.push(setup());
        }
    }

    /// Fill in the metrics every workload reports, from `ops` operations
    /// per iteration.
    pub fn finish(&self, ops: u64, out: &mut Outcome) {
        out.attempted = ops;
        out.notes.push(format!(
            "iterations: 1 warm-up, {} untraced, {} traced; {} set-ups timed",
            self.untraced_s.len(),
            self.traced_s.len(),
            self.setup_s.len()
        ));
        let wall = stats::median(&self.untraced_s);
        out.values.set("setup_s", stats::median(&self.setup_s));
        out.values.set("ops_per_s", ops as f64 / wall);
        out.values.set("peak_rss_mb", stats::peak_rss_mb());
        out.timings.push(Timing::new("setup", "s", &self.setup_s));
        out.timings
            .push(Timing::new("iteration (untraced)", "s", &self.untraced_s));
        if !self.traced_s.is_empty() {
            let traced = stats::median(&self.traced_s);
            out.values
                .set("trace.overhead_pct", (traced / wall - 1.0) * 100.0);
            out.timings
                .push(Timing::new("iteration (traced)", "s", &self.traced_s));
        }
    }
}

/// What one iteration hands back to [`Passes`].
pub struct Iteration<R> {
    pub setup_s: f64,
    pub wall_s: f64,
    /// What must be the same on every iteration of one seed; `None` when
    /// the iteration ran only part of the workload.
    pub repeats: Option<R>,
    /// Per-layer metrics and spans; traced iterations only.
    pub layers: Option<MetricSet>,
    pub recorder: Option<Recorder>,
    /// The newest observation the iteration saw, for the planner probe.
    pub last_observation: Option<Observation>,
}

/// Collects a run's iterations: their times, the check that each one
/// repeats the first, and the traced ones' per-layer metrics.
pub struct Passes<R> {
    pub times: IterTimes,
    reference: Option<R>,
    layer_sets: Vec<MetricSet>,
    last_recorder: Option<Recorder>,
    last_observation: Option<Observation>,
}

impl<R: PartialEq + std::fmt::Debug> Passes<R> {
    pub fn new() -> Self {
        Passes {
            times: IterTimes::default(),
            reference: None,
            layer_sets: Vec::new(),
            last_recorder: None,
            last_observation: None,
        }
    }

    /// Traced iterations recorded so far.
    pub fn traced(&self) -> u64 {
        self.layer_sets.len() as u64
    }

    pub fn record(&mut self, pass: Pass, it: Iteration<R>, out: &mut Outcome) {
        self.times.record(pass, it.setup_s, it.wall_s);
        match (&self.reference, it.repeats) {
            (Some(first), Some(now)) => out.check(*first == now, || {
                format!(
                    "{pass:?} iteration is not the first one repeated:\n  first {first:?}\n  now   {now:?}"
                )
            }),
            (None, now) => self.reference = now,
            (Some(_), None) => {}
        }
        if let Some(Err(e)) = it.recorder.as_ref().map(Recorder::check_nesting) {
            out.fail(e);
        }
        self.layer_sets.extend(it.layers);
        self.last_recorder = it.recorder.or(self.last_recorder.take());
        self.last_observation = it.last_observation.or(self.last_observation.take());
    }

    /// Fill in what every workload reports from `ops(reference)` operations
    /// per iteration, and hand the reference back.
    pub fn finish(self, ctx: &Ctx, ops: impl FnOnce(&R) -> u64, out: &mut Outcome) -> R {
        let reference = self.reference.expect("one full iteration ran");
        self.times.finish(ops(&reference), out);
        if ctx.trace {
            for (name, value) in median_of_sets(&self.layer_sets).iter() {
                out.values.set(name, value);
            }
            out.chrome_trace = self.last_recorder.map(|r| r.to_chrome_json());
            out.last_observation = self.last_observation;
        }
        reference
    }
}

/// Per-name median over the traced iterations' metric sets.
fn median_of_sets(sets: &[MetricSet]) -> MetricSet {
    let mut out = MetricSet::default();
    let Some(first) = sets.first() else {
        return out;
    };
    for (name, _) in first.iter() {
        let values: Vec<f64> = sets.iter().map(|s| s.get(name)).collect();
        out.set(name, stats::median(&values));
    }
    out
}
