//! The one experiment loop: `run(scenario, runner) -> RunReport`.
//!
//! The driver merges the scenario's scripted actions and faults with the
//! control-tick grid, advances the runner milestone by milestone, and at
//! every control tick observes the cluster and — if the scenario carries
//! a policy — decides with [`tick_decision`] and actuates the result
//! through the runner. Every tick and scripted event lands in the
//! report's decision log with an observation digest and the measured
//! actuation latency, so each run's figure data and its decision trace
//! come from the same place, on either runner.

use crate::harness::report::{
    DecisionRecord, DecisionSource, ForecastAccuracy, ObservationDigest, RunReport,
};
use crate::harness::runner::{Fault, Runner};
use crate::harness::scenario::Scenario;
use marlin_autoscaler::{tick_decision, RebalancePlanner, ScaleAction};
use marlin_sim::Nanos;
use marlin_telemetry::MetricsSeries;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Completed-run counter for this process: suffixes the per-run
/// `MARLIN_TRACE` / `MARLIN_METRICS` artifacts so a multi-run bench
/// keeps every run's file instead of only the survivor of last-wins.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

enum Milestone {
    Script(ScaleAction),
    Fault(Fault),
    Tick(u64),
}

/// Execute `scenario` on `runner` to the horizon and assemble the
/// unified report. This is the single entry point every example, bench,
/// and integration test drives — §6.1.3's four scenario families are
/// [`Scenario`] presets, not separate driver functions.
///
/// Artifact export is environment-driven: `MARLIN_TRACE` writes the
/// Chrome trace and `MARLIN_METRICS` the per-tick metrics timeline (see
/// [`run_with_series`] for tests that want the timeline in-process).
pub fn run(scenario: Scenario, runner: &mut dyn Runner) -> RunReport {
    let mut series = MetricsSeries::from_env();
    let report = run_with_series(scenario, runner, &mut series);
    // Per-run suffixed artifacts plus the bare path (= the final run):
    // a multi-run bench keeps every run's file and the bare path stays
    // self-consistent instead of interleaving virtual clocks.
    let run_index = RUN_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    maybe_write_trace(runner, run_index);
    maybe_write_metrics(&series, run_index);
    report
}

/// [`run`], recording the per-tick metrics timeline into a
/// caller-supplied [`MetricsSeries`] instead of the `MARLIN_METRICS`
/// environment knob (and writing no artifacts). Once per control tick
/// the driver opens a row, emits the observation digest's vitals, lets
/// the runner append its own counters, and — when the scenario's policy
/// is armed with a p99 ceiling — appends the SLO error-budget and
/// burn-rate series derived from it.
pub fn run_with_series(
    scenario: Scenario,
    runner: &mut dyn Runner,
    series: &mut MetricsSeries,
) -> RunReport {
    let Scenario {
        name,
        backend,
        control_interval,
        observe_window,
        horizon,
        mut policy,
        planner,
        script,
        faults,
        params,
        ..
    } = scenario;

    let planner = planner.map(RebalancePlanner::new);
    let policy_name = policy.as_ref().map(|p| p.name().to_string());
    // The SLO the timeline's error-budget/burn-rate series derive from:
    // the policy's armed p99 ceiling, delegated through decorators.
    let slo_ceiling = policy.as_ref().and_then(|p| p.p99_ceiling());
    let mut slo_breach_ticks = 0u64;

    // Timeline: scripted events and control ticks, time-ordered; events
    // sort before the tick sharing their timestamp (a scripted scale-out
    // is visible to the observation taken at the same instant). Events
    // scheduled past the horizon never fire — the run ends first.
    let mut milestones: Vec<(Nanos, u8, Milestone)> = Vec::new();
    for (at, action) in script {
        if at <= horizon {
            milestones.push((at, 0, Milestone::Script(action)));
        }
    }
    for (at, fault) in faults {
        if at <= horizon {
            milestones.push((at, 0, Milestone::Fault(fault)));
        }
    }
    let mut tick = 0u64;
    let mut at = control_interval;
    while at <= horizon {
        tick += 1;
        milestones.push((at, 1, Milestone::Tick(tick)));
        at += control_interval;
    }
    milestones.sort_by_key(|&(at, pri, _)| (at, pri));

    let mut log: Vec<DecisionRecord> = Vec::with_capacity(milestones.len());
    for (at, _, milestone) in milestones {
        // The timeline is sorted above and `Scenario::action` keeps the
        // script time-ordered, so milestones can never fall behind the
        // runner's clock — a violation would silently fire the event late
        // at "now" through the saturating subtraction below.
        debug_assert!(
            at >= runner.now(),
            "milestone at {at} is behind the runner clock {}",
            runner.now()
        );
        runner.advance(at.saturating_sub(runner.now()));
        match milestone {
            Milestone::Script(action) => {
                let digest = ObservationDigest::from(&runner.observe(observe_window));
                let start = Instant::now();
                runner.actuate(&action);
                log.push(DecisionRecord {
                    tick: 0,
                    at,
                    source: DecisionSource::Script,
                    observation: digest,
                    action: Some(action),
                    forecasts: Vec::new(),
                    actuation_micros: start.elapsed().as_micros() as u64,
                });
            }
            Milestone::Fault(fault) => {
                let digest = ObservationDigest::from(&runner.observe(observe_window));
                let start = Instant::now();
                runner.inject(&fault);
                log.push(DecisionRecord {
                    tick: 0,
                    at,
                    source: DecisionSource::Fault,
                    observation: digest,
                    action: None,
                    forecasts: Vec::new(),
                    actuation_micros: start.elapsed().as_micros() as u64,
                });
            }
            Milestone::Tick(tick) => {
                let obs = runner.observe(observe_window);
                let digest = ObservationDigest::from(&obs);
                if series.is_enabled() {
                    series.tick(at);
                    series.gauge("throughput_tps", obs.throughput_tps);
                    series.counter("p99_latency_ns", obs.p99_latency);
                    series.gauge("mean_utilization", obs.mean_utilization);
                    series.gauge("queue_depth", obs.queue_depth);
                    series.gauge("dollars_per_hour", obs.dollars_per_hour);
                    for r in &obs.region_loads {
                        series.counter_region("p99_latency_ns", r.region.0, r.p99_latency);
                        series.gauge_region("throughput_tps", r.region.0, r.throughput_tps);
                    }
                    runner.metrics_tick(at, series);
                    if let Some(ceiling) = slo_ceiling {
                        if obs.p99_latency > ceiling {
                            slo_breach_ticks += 1;
                        }
                        // Burn rate: how hard the tick spends the SLO
                        // (1.0 = exactly at the ceiling). Error budget:
                        // the fraction of ticks so far that stayed under.
                        series.gauge("slo_burn_rate", obs.p99_latency as f64 / ceiling as f64);
                        series.gauge(
                            "slo_error_budget",
                            1.0 - slo_breach_ticks as f64 / tick as f64,
                        );
                    }
                }
                let (source, action, forecasts, actuation_micros) = match &mut policy {
                    Some(p) => {
                        let action = tick_decision(p.as_mut(), planner.as_ref(), &obs);
                        let mut micros = 0;
                        if let Some(action) = &action {
                            let start = Instant::now();
                            runner.actuate(action);
                            micros = start.elapsed().as_micros() as u64;
                        }
                        // A forecasting policy's snapshot of this tick —
                        // what it believed demand would be `lead` ahead —
                        // rides in the record next to what happened.
                        (DecisionSource::Policy, action, p.forecasts(), micros)
                    }
                    // No policy, no planner either: the tick only samples.
                    None => (DecisionSource::Sample, None, Vec::new(), 0),
                };
                log.push(DecisionRecord {
                    tick,
                    at,
                    source,
                    observation: digest,
                    action,
                    forecasts,
                    actuation_micros,
                });
            }
        }
    }
    runner.advance(horizon.saturating_sub(runner.now()));
    runner.finish();

    let forecast = ForecastAccuracy::from_log(&log);
    RunReport {
        scenario: name,
        backend: backend.name().to_string(),
        runner: runner.name().to_string(),
        policy: policy_name,
        cpu_model: params.cpu_model.name().to_string(),
        seed: params.seed,
        horizon,
        log,
        forecast,
        metrics: runner.metrics(),
        telemetry: runner.telemetry(),
    }
}

/// `<stem>.run<N>.<ext>` next to `path` (or `<path>.run<N>` when there
/// is no extension): the per-run artifact name for run number `n`.
fn run_suffixed(path: &str, n: u64) -> String {
    match path.rsplit_once('.') {
        // Only treat the final dot as an extension separator when it is
        // inside the file name, not a parent directory component.
        Some((stem, ext)) if !ext.contains('/') && !stem.ends_with('/') && !stem.is_empty() => {
            format!("{stem}.run{n}.{ext}")
        }
        _ => format!("{path}.run{n}"),
    }
}

/// If `MARLIN_TRACE` is set and the runner traced the run, write the
/// Chrome trace-event JSON there (load it at `ui.perfetto.dev` or
/// `chrome://tracing`). Each finished run writes a `.run<N>`-suffixed
/// file *and* overwrites the bare path, so a multi-run bench keeps
/// every run's trace while the bare path holds the final run — one
/// self-consistent virtual clock, never an interleaving.
fn maybe_write_trace(runner: &dyn Runner, run_index: u64) {
    let Ok(path) = std::env::var("MARLIN_TRACE") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let Some(json) = runner.trace_json() else {
        return;
    };
    let per_run = run_suffixed(&path, run_index);
    if let Err(e) = std::fs::write(&per_run, &json) {
        eprintln!("MARLIN_TRACE: cannot write {per_run}: {e}");
    }
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote trace to {path}"),
        Err(e) => eprintln!("MARLIN_TRACE: cannot write {path}: {e}"),
    }
}

/// If `MARLIN_METRICS` is set and the run recorded a timeline, write it
/// there — same per-run + bare-path discipline as the trace artifact.
fn maybe_write_metrics(series: &MetricsSeries, run_index: u64) {
    if !series.is_enabled() {
        return;
    }
    let Ok(path) = std::env::var("MARLIN_METRICS") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let json = series.to_json();
    let per_run = run_suffixed(&path, run_index);
    if let Err(e) = std::fs::write(&per_run, &json) {
        eprintln!("MARLIN_METRICS: cannot write {per_run}: {e}");
    }
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote metrics timeline to {path}"),
        Err(e) => eprintln!("MARLIN_METRICS: cannot write {path}: {e}"),
    }
}
