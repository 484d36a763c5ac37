//! [`PredictivePolicy`]: size the cluster for demand `lead_time` ahead.
//!
//! The policy is the control-loop counterpart of the simulator's
//! provisioning lead time: when `AddNodes` takes real wall-clock time to
//! land, reacting to the current observation is structurally too late —
//! the queue builds for the whole lead. `PredictivePolicy` instead
//! forecasts the demand signal `lead_time` ahead and sizes the cluster
//! for *that*, ordering capacity before the breach.
//!
//! Trust is explicit: the policy tracks its own rolling forecast error
//! (MAPE over matured predictions) and falls back to its inner reactive
//! policy whenever the model is cold or the error exceeds a guard
//! threshold — a mis-modeled workload degrades to reactive scaling, not
//! to confidently wrong scaling. Every tick's forecast, actual, error,
//! and fallback state is exposed through [`ScalingPolicy::forecasts`]
//! and lands in the harness decision log.
//!
//! Composed inside a [`RegionalPolicy`](crate::regional::RegionalPolicy)
//! (one instance per region), each region gets an independent forecaster
//! over its own demand signal and region-targeted proactive adds.
//!
//! [`ScalingPolicy::forecasts`]: crate::policy::ScalingPolicy::forecasts

use crate::forecast::{ErrorTracker, ForecastSample, LinearTrendForecaster};
use crate::observe::Observation;
use crate::policy::{ScaleAction, ScalingPolicy, SizeBounds};
use marlin_common::NodeId;
use marlin_sim::Nanos;

/// Configuration of [`PredictivePolicy`].
#[derive(Clone, Debug)]
pub struct PredictiveConfig {
    /// How far ahead to size for — at least the actuation path's
    /// provisioning lead time, typically plus one control interval so
    /// capacity is *ready* (not merely ordered) when the demand lands.
    pub lead_time: Nanos,
    /// The utilization the forecast demand is sized against: the target
    /// cluster is `ceil(forecast / target_utilization)` nodes.
    pub target_utilization: f64,
    /// Fall back to the inner policy while the rolling MAPE exceeds this
    /// (e.g. `0.35` = fall back beyond 35% mean error).
    pub mape_guard: f64,
    /// Matured predictions required before the forecast is trusted at
    /// all (a model is not judged on its first guess).
    pub min_resolved: usize,
    /// Fall back to the inner policy whenever the measured backlog
    /// exceeds this many waiting requests per worker. Under saturation a
    /// closed-loop workload *gates* arrivals, so the demand signal reads
    /// artificially low exactly when the cluster is drowning — a
    /// forecaster fed that signal confidently holds the undersized
    /// cluster forever. A deep queue means the signal cannot be trusted;
    /// the reactive fallback's latency escape hatch sees the breach
    /// directly.
    pub distress_queue: f64,
    /// Matured predictions kept in the rolling error window.
    pub error_window: usize,
    /// Consecutive decide ticks the desired size must sit *below* the
    /// live size before a scale-in is issued. Scale-outs act on the
    /// first tick (capacity late is an SLO violation; capacity early is
    /// pennies), but scale-ins follow the forecast only once it has
    /// stopped wobbling — a trend model dips briefly on every dwell of
    /// a staircase ramp, and draining on each dip buys a migration storm
    /// in the middle of the climb.
    pub scale_in_ticks: u32,
    /// Cluster size bounds.
    pub bounds: SizeBounds,
    /// Minimum virtual time between two actions.
    pub cooldown: Nanos,
}

impl PredictiveConfig {
    /// Conservative defaults: size for 60% utilization at the forecast
    /// horizon, trust the model after 3 matured predictions, fall back
    /// beyond 35% rolling MAPE (window 16), 5 s cooldown.
    #[must_use]
    pub fn paper_default(lead_time: Nanos, min_nodes: u32, max_nodes: u32) -> Self {
        PredictiveConfig {
            lead_time,
            target_utilization: 0.60,
            mape_guard: 0.35,
            min_resolved: 3,
            distress_queue: 1.0,
            error_window: 16,
            scale_in_ticks: 3,
            bounds: SizeBounds {
                min_nodes,
                max_nodes,
            },
            cooldown: 5 * marlin_sim::SECOND,
        }
    }
}

/// A proactive sizing policy: forecast demand at `now + lead_time`, hold
/// the cluster at the size that serves it at the target utilization, and
/// fall back to the wrapped reactive policy when the forecast cannot be
/// trusted.
pub struct PredictivePolicy {
    cfg: PredictiveConfig,
    forecaster: LinearTrendForecaster,
    inner: Box<dyn ScalingPolicy>,
    tracker: ErrorTracker,
    /// Consecutive decide ticks with `desired < live` (scale-in gate).
    below_streak: u32,
    last_action_at: Option<Nanos>,
    /// Guard against double ingestion when `observe_only` and `decide`
    /// both run on one tick (regional composition).
    last_ingested_at: Option<Nanos>,
    last_sample: Option<ForecastSample>,
}

impl PredictivePolicy {
    /// A predictive policy over `forecaster`, falling back to `inner`.
    #[must_use]
    pub fn new(
        cfg: PredictiveConfig,
        forecaster: LinearTrendForecaster,
        inner: Box<dyn ScalingPolicy>,
    ) -> Self {
        assert!(cfg.target_utilization > 0.0 && cfg.target_utilization < 1.0);
        assert!(cfg.mape_guard > 0.0, "the guard must tolerate some error");
        let tracker = ErrorTracker::new(cfg.error_window);
        PredictivePolicy {
            cfg,
            forecaster,
            inner,
            tracker,
            below_streak: 0,
            last_action_at: None,
            last_ingested_at: None,
            last_sample: None,
        }
    }

    /// Feed the demand sample into the forecaster and error tracker, and
    /// refresh `last_sample`. Idempotent per observation timestamp.
    ///
    /// The signal is [`Observation::demand_signal`] — the raw
    /// utilization sum, with no backlog term: backlog spikes are
    /// consequences of sizing mistakes, and a forecaster fed its own
    /// policy's mistakes amplifies them instead of predicting demand.
    fn ingest(&mut self, obs: &Observation) -> (f64, Option<f64>, bool) {
        let demand = obs.demand_signal();
        if self.last_ingested_at == Some(obs.at) {
            let predicted = self
                .last_sample
                .as_ref()
                .map(|s| s.predicted)
                .filter(|p| p.is_finite());
            let fallback = self.last_sample.as_ref().is_some_and(|s| s.fallback);
            return (demand, predicted, fallback);
        }
        self.last_ingested_at = Some(obs.at);
        // Distress freeze: with a deep backlog the closed loop gates
        // arrivals and the measured demand is artificially low. Feeding
        // those samples into the model (or scoring predictions against
        // them) would teach the forecaster that a drowning cluster is a
        // quiet one — freeze the model and hand the tick to the inner
        // policy instead.
        let distressed = obs.queue_depth > self.cfg.distress_queue;
        let predicted = if distressed {
            None
        } else {
            self.tracker.resolve(obs.at, demand);
            self.forecaster.observe(obs.at, demand);
            let predicted = self.forecaster.forecast(self.cfg.lead_time);
            if let Some(p) = predicted {
                self.tracker.expect(obs.at + self.cfg.lead_time, p);
            }
            predicted
        };
        let mape = self.tracker.mape();
        let fallback = predicted.is_none()
            || self.tracker.resolved() < self.cfg.min_resolved
            || mape.is_some_and(|m| m > self.cfg.mape_guard);
        self.last_sample = Some(ForecastSample {
            region: None,
            at: obs.at,
            demand,
            predicted: predicted.unwrap_or(f64::NAN),
            lead: self.cfg.lead_time,
            rolling_mape: mape.unwrap_or(f64::NAN),
            bias: self.tracker.bias().unwrap_or(f64::NAN),
            fallback,
            distressed,
        });
        (demand, predicted, fallback)
    }
}

impl ScalingPolicy for PredictivePolicy {
    fn name(&self) -> &'static str {
        "predictive"
    }

    fn decide(&mut self, obs: &Observation) -> Option<ScaleAction> {
        let (demand, predicted, fallback) = self.ingest(obs);
        if fallback {
            let action = self.inner.decide(obs);
            if action.is_some() {
                // A fallback action is still this policy's action: it
                // starts the cooldown and resets the scale-in streak, or
                // a one-tick trust flip around a fallback add could
                // drain the very nodes the add just bought.
                self.last_action_at = Some(obs.at);
                self.below_streak = 0;
            }
            return action;
        }
        let predicted = predicted.expect("fallback covers the cold model");
        // The inner policy still sees every observation so its own state
        // (cooldowns, EMA-free thresholds) stays current for the next
        // fallback stretch.
        self.inner.observe_only(obs);

        // Size for the worse of now and the forecast: prediction is for
        // buying capacity *early*, never for dropping below what the
        // current demand already needs (a trend dipping under a noisy
        // sample must not drain a cluster that is busy right now).
        let sized_for = demand.max(predicted);
        let desired = self
            .cfg
            .bounds
            .clamp((sized_for / self.cfg.target_utilization).ceil().max(0.0) as u32);
        let in_cooldown = self
            .last_action_at
            .is_some_and(|t| obs.at.saturating_sub(t) < self.cfg.cooldown);
        // Capacity already ordered counts: re-buying the shortfall every
        // tick of the provisioning lead would overshoot the bounds.
        let provisioned = obs.live_nodes + obs.pending_nodes();
        if desired > provisioned {
            self.below_streak = 0;
            if in_cooldown {
                return None;
            }
            self.last_action_at = Some(obs.at);
            return Some(ScaleAction::add(desired - provisioned));
        }
        if desired < obs.live_nodes && obs.pending_nodes() == 0 {
            self.below_streak += 1;
            if in_cooldown || self.below_streak < self.cfg.scale_in_ticks {
                return None;
            }
            let shed = (obs.live_nodes - desired) as usize;
            let victims: Vec<NodeId> = obs.coolest_live_nodes().into_iter().take(shed).collect();
            if victims.is_empty() {
                return None;
            }
            self.below_streak = 0;
            self.last_action_at = Some(obs.at);
            return Some(ScaleAction::RemoveNodes { victims });
        }
        self.below_streak = 0;
        None
    }

    fn observe_only(&mut self, obs: &Observation) {
        self.ingest(obs);
        self.inner.observe_only(obs);
    }

    fn forecasts(&self) -> Vec<ForecastSample> {
        self.last_sample.iter().cloned().collect()
    }

    fn p99_ceiling(&self) -> Option<Nanos> {
        self.inner.p99_ceiling()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ReactiveConfig, ReactivePolicy};
    use marlin_sim::SECOND;

    fn predictive(min: u32, max: u32, lead: Nanos) -> PredictivePolicy {
        let mut cfg = PredictiveConfig::paper_default(lead, min, max);
        cfg.cooldown = 0;
        PredictivePolicy::new(
            cfg,
            LinearTrendForecaster::new(4),
            Box::new(ReactivePolicy::new(ReactiveConfig {
                cooldown: 0,
                ..ReactiveConfig::paper_default(min, max)
            })),
        )
    }

    /// Drive `p` with a uniform-utilization cluster whose demand ramps
    /// `slope` node-units per tick; returns the tick of the first add.
    fn first_add_tick(p: &mut PredictivePolicy, live: u32, base: f64, slope: f64) -> Option<u64> {
        for tick in 0..60u64 {
            let demand = base + slope * tick as f64;
            let obs = Observation::uniform(tick * SECOND, live, demand / f64::from(live));
            if let Some(ScaleAction::AddNodes { .. }) = p.decide(&obs) {
                return Some(tick);
            }
        }
        None
    }

    #[test]
    fn cold_model_falls_back_to_the_inner_reactive_policy() {
        let mut p = predictive(2, 8, 10 * SECOND);
        // First tick: no history at all — the inner policy's watermark
        // logic must decide (0.9 > 0.8 → scale out).
        let action = p.decide(&Observation::uniform(0, 2, 0.9));
        assert!(matches!(action, Some(ScaleAction::AddNodes { .. })));
        assert!(p.forecasts()[0].fallback, "cold model reports fallback");
    }

    #[test]
    fn trusted_ramp_forecast_scales_before_the_watermark() {
        // Demand ramps 0.05 node-units per 1 s tick from 0.2 on 2
        // nodes. The reactive watermark (0.8 mean = 1.6 node-units)
        // breaches at tick 28; the predictive policy — warm after its
        // first few predictions mature — sizes for t+10 s at the 0.6
        // target and must order capacity well before that.
        let mut predictive_policy = predictive(2, 8, 10 * SECOND);
        let predictive_tick = first_add_tick(&mut predictive_policy, 2, 0.2, 0.05)
            .expect("the ramp must provoke a scale-out");
        let mut reactive = ReactivePolicy::new(ReactiveConfig {
            cooldown: 0,
            ..ReactiveConfig::paper_default(2, 8)
        });
        let mut reactive_tick = None;
        for tick in 0..60u64 {
            let demand = 0.2 + 0.05 * tick as f64;
            let obs = Observation::uniform(tick * SECOND, 2, demand / 2.0);
            if let Some(ScaleAction::AddNodes { .. }) = reactive.decide(&obs) {
                reactive_tick = Some(tick);
                break;
            }
        }
        let reactive_tick = reactive_tick.expect("reactive must also fire");
        assert!(
            predictive_tick < reactive_tick,
            "predictive (tick {predictive_tick}) must beat reactive (tick {reactive_tick})"
        );
        let sample = &predictive_policy.forecasts()[0];
        assert!(!sample.fallback, "the trusted model decided");
        assert!(sample.predicted > sample.demand, "a rising forecast");
    }

    #[test]
    fn falling_forecast_drains_back_down() {
        let mut p = predictive(2, 8, 5 * SECOND);
        // Warm up on a high plateau, then ramp down.
        for tick in 0..8u64 {
            let obs = Observation::uniform(tick * SECOND, 6, 0.6);
            let _ = p.decide(&obs);
        }
        let mut removed = false;
        for tick in 8..40u64 {
            let demand = (3.6 - 0.2 * (tick - 8) as f64).max(0.6);
            let obs = Observation::uniform(tick * SECOND, 6, demand / 6.0);
            if let Some(ScaleAction::RemoveNodes { victims }) = p.decide(&obs) {
                assert!(!victims.is_empty());
                removed = true;
                break;
            }
        }
        assert!(removed, "a falling forecast must shed nodes");
    }

    #[test]
    fn bad_forecasts_trip_the_guard_back_to_reactive() {
        // A trend model on a hard alternating signal fits a line through
        // the middle of the swings, so every matured prediction misses
        // its sample by far more than the guard allows and the policy
        // must report fallback.
        let mut cfg = PredictiveConfig::paper_default(SECOND, 2, 8);
        cfg.cooldown = 0;
        let mut p = PredictivePolicy::new(
            cfg,
            LinearTrendForecaster::new(5),
            Box::new(ReactivePolicy::new(ReactiveConfig {
                cooldown: 0,
                ..ReactiveConfig::paper_default(2, 8)
            })),
        );
        for tick in 0..20u64 {
            let demand = if tick % 2 == 0 { 0.4 } else { 1.4 };
            let obs = Observation::uniform(tick * SECOND, 2, demand / 2.0);
            let _ = p.decide(&obs);
        }
        let sample = &p.forecasts()[0];
        assert!(
            sample.fallback,
            "rolling MAPE {:.2} must trip the {:.2} guard",
            sample.rolling_mape, 0.35
        );
        assert!(sample.rolling_mape > 0.35);
    }

    #[test]
    fn ingestion_is_idempotent_per_tick() {
        let mut p = predictive(2, 8, 5 * SECOND);
        p.observe_only(&Observation::uniform(0, 2, 0.5));
        // Second sample: the trend model is warm, so the snapshot's
        // `predicted` is finite and comparable.
        let obs = Observation::uniform(SECOND, 2, 0.5);
        p.observe_only(&obs);
        let after_observe = p.forecasts();
        assert!(after_observe[0].predicted.is_finite());
        let _ = p.decide(&obs);
        let after_decide = p.forecasts();
        // NaN-tolerant comparison (rolling error fields are NaN until a
        // prediction matures, and NaN != NaN).
        let eq = |x: f64, y: f64| (x.is_nan() && y.is_nan()) || x == y;
        let (a, b) = (&after_observe[0], &after_decide[0]);
        assert!(
            a.at == b.at
                && eq(a.demand, b.demand)
                && eq(a.predicted, b.predicted)
                && eq(a.rolling_mape, b.rolling_mape)
                && a.fallback == b.fallback,
            "decide on the same tick must not double-feed the model: {a:?} vs {b:?}"
        );
    }
}
