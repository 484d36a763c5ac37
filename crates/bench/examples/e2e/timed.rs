//! Decorators that time calls through the harness's two public traits.

use crate::catalogue::MetricSet;
use crate::span::Recorder;
use marlin::autoscaler::{ForecastSample, Observation, ScaleAction, ScalingPolicy};
use marlin::cluster::harness::{Fault, MetricsSnapshot, Runner, TelemetrySection};
use marlin::sim::Nanos;
use marlin::telemetry::MetricsSeries;
use std::cell::RefCell;
use std::rc::Rc;

/// The recorder is shared by a [`TimedRunner`] and a [`TimedPolicy`] that
/// are alive at once; a scenario's policy must be `'static`, hence `Rc`.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

/// A [`Runner`] that records a span around every call the driver makes.
pub struct TimedRunner<'a> {
    inner: &'a mut dyn Runner,
    rec: SharedRecorder,
    /// The newest observation, for the planner probe.
    pub last_observation: Option<Observation>,
}

impl<'a> TimedRunner<'a> {
    pub fn new(inner: &'a mut dyn Runner, rec: SharedRecorder) -> Self {
        TimedRunner {
            inner,
            rec,
            last_observation: None,
        }
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn Runner) -> T) -> T {
        self.rec.borrow_mut().enter(name, true);
        let out = f(self.inner);
        self.rec.borrow_mut().exit();
        out
    }
}

impl Runner for TimedRunner<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn now(&self) -> Nanos {
        self.inner.now()
    }

    fn advance(&mut self, dt: Nanos) {
        self.timed("cluster.harness.advance", |r| r.advance(dt));
    }

    fn observe(&mut self, window: Nanos) -> Observation {
        let obs = self.timed("cluster.harness.observe", |r| r.observe(window));
        self.last_observation = Some(obs.clone());
        obs
    }

    fn actuate(&mut self, action: &ScaleAction) {
        self.timed("cluster.harness.actuate", |r| r.actuate(action));
    }

    fn inject(&mut self, fault: &Fault) {
        self.timed("cluster.harness.inject", |r| r.inject(fault));
    }

    fn finish(&mut self) {
        self.timed("cluster.harness.finish", |r| r.finish());
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.rec.borrow_mut().enter("cluster.harness.metrics", true);
        let out = self.inner.metrics();
        self.rec.borrow_mut().exit();
        out
    }

    fn metrics_tick(&mut self, at: Nanos, series: &mut MetricsSeries) {
        self.inner.metrics_tick(at, series);
    }

    fn telemetry(&self) -> Option<TelemetrySection> {
        self.inner.telemetry()
    }

    fn trace_json(&self) -> Option<String> {
        self.inner.trace_json()
    }
}

/// A [`ScalingPolicy`] that records a span around `decide`.
pub struct TimedPolicy {
    inner: Box<dyn ScalingPolicy>,
    rec: SharedRecorder,
}

impl TimedPolicy {
    pub fn wrap(inner: Box<dyn ScalingPolicy>, rec: SharedRecorder) -> Box<dyn ScalingPolicy> {
        Box::new(TimedPolicy { inner, rec })
    }
}

impl ScalingPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &Observation) -> Option<ScaleAction> {
        self.rec
            .borrow_mut()
            .enter("autoscaler.policy.decide", true);
        let out = self.inner.decide(obs);
        self.rec.borrow_mut().exit();
        out
    }

    fn observe_only(&mut self, obs: &Observation) {
        self.inner.observe_only(obs);
    }

    fn forecasts(&self) -> Vec<ForecastSample> {
        self.inner.forecasts()
    }

    fn p99_ceiling(&self) -> Option<Nanos> {
        self.inner.p99_ceiling()
    }
}

/// The harness-level metrics of one traced iteration, from the spans the
/// two decorators and the caller recorded.
pub fn harness_metrics(rec: &Recorder, set: &mut MetricSet) {
    for call in ["advance", "observe", "actuate", "inject"] {
        let t = rec.totals(&format!("cluster.harness.{call}"));
        set.set(&format!("cluster.harness.{call}_s"), t.busy_ns as f64 / 1e9);
        set.set(&format!("cluster.harness.{call}_calls"), t.calls as f64);
    }
    let run = rec.totals("cluster.harness.run");
    set.set("cluster.harness.driver_self_s", run.self_ns as f64 / 1e9);
    set.set(
        "cluster.report.to_json_digest_s",
        rec.totals("cluster.report.to_json_digest").busy_ns as f64 / 1e9,
    );
    let decide = rec.totals("autoscaler.policy.decide");
    set.set("autoscaler.policy.decide_s", decide.busy_ns as f64 / 1e9);
    set.set("autoscaler.policy.decide_calls", decide.calls as f64);
}
