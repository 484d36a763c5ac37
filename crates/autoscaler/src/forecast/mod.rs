//! Demand forecasting: predict offered load before it arrives.
//!
//! Reactive policies only pay off when capacity is instant. The moment
//! provisioning takes real time (`SimParams::provision_lead_time` in the
//! simulator), a policy that reacts *after* the watermark breach eats the
//! whole lead time as an SLO violation: the queue builds while the new
//! nodes boot. This module supplies the other half of the trade — a
//! forecaster that extrapolates the demand signal, so a
//! [`PredictivePolicy`] can order capacity `lead_time` *before* the
//! breach.
//!
//! The pieces:
//!
//! - [`LinearTrendForecaster`] — the demand model: a rolling
//!   least-squares trend fed one observation at a time
//!   ([`LinearTrendForecaster::observe`]) and asked for the demand `lead`
//!   nanoseconds ahead ([`LinearTrendForecaster::forecast`]).
//!   Deterministic arithmetic over the sample stream — no RNG, no clock.
//! - [`ErrorTracker`] — rolling forecast-error accounting (MAPE and
//!   signed bias over a bounded window of *matured* predictions). The
//!   predictive policy reads it as a trust signal: when rolling MAPE
//!   exceeds a guard threshold the policy falls back to its inner
//!   reactive policy, so a mis-modeled workload degrades to reactive
//!   behavior instead of to confidently wrong scaling.
//! - [`PredictivePolicy`] — the [`ScalingPolicy`] that ties it together:
//!   sizes the cluster for the forecast demand at `now + lead_time`,
//!   logs forecast-vs-actual into every decision record, and composes
//!   with [`RegionalPolicy`] for per-region prediction.
//!
//! Demand is measured in node-capacity units: the utilization sum
//! [`Observation::demand_signal`](crate::observe::Observation::demand_signal),
//! so a forecast of demand is directly a forecast of the neutral cluster
//! size times the target utilization.
//!
//! [`ScalingPolicy`]: crate::policy::ScalingPolicy
//! [`RegionalPolicy`]: crate::regional::RegionalPolicy

pub mod models;
pub mod predictive;

pub use models::LinearTrendForecaster;
pub use predictive::{PredictiveConfig, PredictivePolicy};

use marlin_common::RegionId;
use marlin_sim::Nanos;
use std::collections::VecDeque;

/// Relative-error floor: forecast errors are normalized by
/// `max(actual, MAPE_FLOOR)` so a near-idle trace (demand ~0 node-units)
/// cannot blow MAPE up to infinity on rounding noise. Public so every
/// scorer of [`ForecastSample`]s (the harness report's end-of-run
/// accuracy included) uses the same floor as the in-policy
/// [`ErrorTracker`].
pub const MAPE_FLOOR: f64 = 0.25;

/// The one scoring rule every forecast scorer applies: signed relative
/// error `(predicted - actual) / max(actual, MAPE_FLOOR)`. Shared by the
/// in-policy [`ErrorTracker`] and the harness report's end-of-run
/// accuracy, so the two views of "how wrong was the model" can never
/// drift apart.
#[must_use]
pub fn relative_error(predicted: f64, actual: f64) -> f64 {
    (predicted - actual) / actual.max(MAPE_FLOOR)
}

/// Rolling forecast-error accounting over matured predictions.
///
/// A prediction is *issued* with [`ErrorTracker::expect`] (due time +
/// predicted value) and *matures* when [`ErrorTracker::resolve`] is
/// called with an actual sample at or past the due time. Matured errors
/// enter a bounded rolling window from which [`ErrorTracker::mape`] and
/// [`ErrorTracker::bias`] are read.
#[derive(Clone, Debug)]
pub struct ErrorTracker {
    /// Outstanding predictions `(due, predicted)`, due-ordered.
    pending: VecDeque<(Nanos, f64)>,
    /// Matured signed relative errors `(predicted - actual) / actual`,
    /// newest last, bounded to the rolling window.
    errors: VecDeque<f64>,
    /// Rolling window length in matured predictions.
    window: usize,
}

impl ErrorTracker {
    /// A tracker with a rolling window of `window` matured predictions.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "the rolling window needs at least one slot");
        ErrorTracker {
            pending: VecDeque::new(),
            errors: VecDeque::new(),
            window,
        }
    }

    /// Register a prediction of `predicted` demand for time `due`.
    pub fn expect(&mut self, due: Nanos, predicted: f64) {
        self.pending.push_back((due, predicted));
    }

    /// Mature every prediction due at or before `now` against the
    /// `actual` demand measured at `now`, pushing their errors into the
    /// rolling window.
    pub fn resolve(&mut self, now: Nanos, actual: f64) {
        while let Some(&(due, predicted)) = self.pending.front() {
            if due > now {
                break;
            }
            self.pending.pop_front();
            self.errors.push_back(relative_error(predicted, actual));
            while self.errors.len() > self.window {
                self.errors.pop_front();
            }
        }
    }

    /// Matured predictions currently in the rolling window.
    #[must_use]
    pub fn resolved(&self) -> usize {
        self.errors.len()
    }

    /// Rolling mean absolute percentage error (0 = perfect), or `None`
    /// before any prediction has matured.
    #[must_use]
    pub fn mape(&self) -> Option<f64> {
        (!self.errors.is_empty())
            .then(|| self.errors.iter().map(|e| e.abs()).sum::<f64>() / self.errors.len() as f64)
    }

    /// Rolling signed relative bias (positive = over-forecasting), or
    /// `None` before any prediction has matured.
    #[must_use]
    pub fn bias(&self) -> Option<f64> {
        (!self.errors.is_empty())
            .then(|| self.errors.iter().sum::<f64>() / self.errors.len() as f64)
    }
}

/// One forecast-vs-actual pair from a predictive policy's decision
/// tick — what the harness logs into every decision record so a run's
/// report shows what the policy *believed* next to what happened.
#[derive(Clone, Debug, PartialEq)]
pub struct ForecastSample {
    /// The region the forecast covers (`None` = whole cluster; filled by
    /// [`RegionalPolicy`](crate::regional::RegionalPolicy) composition).
    pub region: Option<RegionId>,
    /// When the sample was taken (the decision tick).
    pub at: Nanos,
    /// Demand measured at `at`, node-capacity units.
    pub demand: f64,
    /// Forecast demand at `at + lead`, node-capacity units (NaN while
    /// the model is warming up — serialized as `null`).
    pub predicted: f64,
    /// The forecast horizon.
    pub lead: Nanos,
    /// Rolling MAPE over matured predictions (NaN until one matures).
    pub rolling_mape: f64,
    /// Rolling signed bias over matured predictions (NaN until one
    /// matures; positive = over-forecasting).
    pub bias: f64,
    /// Whether this tick's decision fell back to the inner reactive
    /// policy (model cold, rolling MAPE above the guard threshold, or
    /// distress).
    pub fallback: bool,
    /// Whether the tick was a *distress* tick: measured backlog above
    /// the guard, model frozen, and `demand` known to be gated
    /// artificially low. Scorers must not mature predictions against a
    /// distressed sample — the policy's own tracker doesn't.
    pub distressed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_sim::SECOND;

    #[test]
    fn tracker_matures_predictions_in_due_order() {
        let mut t = ErrorTracker::new(8);
        assert_eq!(t.mape(), None);
        t.expect(10 * SECOND, 4.0);
        t.expect(20 * SECOND, 6.0);
        t.resolve(5 * SECOND, 4.0);
        assert_eq!(t.resolved(), 0, "nothing due yet");
        t.resolve(10 * SECOND, 4.0);
        assert_eq!(t.resolved(), 1);
        assert_eq!(t.mape(), Some(0.0), "exact prediction has zero error");
        t.resolve(20 * SECOND, 4.0); // predicted 6.0 → +50% error
        assert_eq!(t.resolved(), 2);
        assert!((t.mape().unwrap() - 0.25).abs() < 1e-12);
        assert!((t.bias().unwrap() - 0.25).abs() < 1e-12, "over-forecast");
    }

    #[test]
    fn tracker_window_is_bounded() {
        let mut t = ErrorTracker::new(2);
        for i in 0..10u64 {
            t.expect(i * SECOND, 1.0);
        }
        t.resolve(10 * SECOND, 1.0);
        assert_eq!(t.resolved(), 2, "window bounds the matured history");
    }

    #[test]
    fn near_zero_actuals_do_not_explode_mape() {
        let mut t = ErrorTracker::new(4);
        t.expect(SECOND, 0.2);
        t.resolve(SECOND, 0.0);
        assert!(t.mape().unwrap() <= 1.0, "floored relative error");
    }
}
