//! [`LinearTrendForecaster`]: the demand model behind
//! [`PredictivePolicy`](crate::forecast::PredictivePolicy).

use marlin_sim::Nanos;
use std::collections::VecDeque;

/// Rolling least-squares trend extrapolation — the ramp anticipator.
///
/// Fits `demand = a + b·t` over the last `window` samples and evaluates
/// the fit `lead` past the newest one. On a monotone ramp (the rising
/// edge of a diurnal curve) the slope term is exactly the information a
/// reactive policy lacks: demand `lead` ahead is above demand now, so
/// capacity is ordered before the watermark breach. On flat demand the
/// slope fits to ~0 and the forecast is the current level.
///
/// The model is pure arithmetic over the sample stream — no RNG, no
/// clock — so the same sequence of [`observe`](Self::observe) calls
/// always yields bitwise the same forecasts (pinned by
/// `tests/forecast.rs`).
#[derive(Clone, Debug)]
pub struct LinearTrendForecaster {
    /// `(t, demand)` samples, oldest first, bounded to `window`.
    samples: VecDeque<(Nanos, f64)>,
    window: usize,
}

impl LinearTrendForecaster {
    /// A trend model fitting over the last `window` samples (≥2).
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "a trend needs at least two samples");
        LinearTrendForecaster {
            samples: VecDeque::new(),
            window,
        }
    }

    /// Record one demand sample (node-capacity units) observed at `at`.
    /// Timestamps must be non-decreasing.
    pub fn observe(&mut self, at: Nanos, demand: f64) {
        self.samples.push_back((at, demand));
        while self.samples.len() > self.window {
            self.samples.pop_front();
        }
    }

    /// Forecast the demand `lead` nanoseconds after the last observed
    /// sample, or `None` below two samples (callers fall back to reactive
    /// behavior until a forecast exists).
    #[must_use]
    pub fn forecast(&self, lead: Nanos) -> Option<f64> {
        let (Some(&(t0, _)), Some(&(newest, _)), 2..) = (
            self.samples.front(),
            self.samples.back(),
            self.samples.len(),
        ) else {
            return None;
        };
        // Ordinary least squares over the window, with time re-based to
        // the window start in seconds so the normal equations stay well
        // conditioned at nanosecond magnitudes.
        let n = self.samples.len() as f64;
        let (mut st, mut sd, mut stt, mut std_) = (0.0, 0.0, 0.0, 0.0);
        for &(at, d) in &self.samples {
            let t = (at - t0) as f64 / 1e9;
            st += t;
            sd += d;
            stt += t * t;
            std_ += t * d;
        }
        let denom = n * stt - st * st;
        let horizon = (newest - t0) as f64 / 1e9 + lead as f64 / 1e9;
        if denom.abs() < 1e-12 {
            // Degenerate (all samples at one instant): fall back to the
            // window mean.
            return Some(sd / n);
        }
        let slope = (n * std_ - st * sd) / denom;
        let intercept = (sd - slope * st) / n;
        // Floor the extrapolation at the window's lowest sample: demand
        // is never forecast below anything observed within the fit
        // window. An unfloored downward trend overshoots past the trough
        // of any bottoming-out curve, and those wild low forecasts poison
        // the rolling-error guard exactly when the policy needs to stay
        // trusted for the next ramp (capacity-wise the floor is the
        // conservative direction — release follows the actual curve).
        let floor = self
            .samples
            .iter()
            .map(|&(_, d)| d)
            .fold(f64::INFINITY, f64::min);
        Some((intercept + slope * horizon).max(floor).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_sim::SECOND;

    #[test]
    fn linear_trend_extrapolates_a_ramp() {
        let mut f = LinearTrendForecaster::new(4);
        assert_eq!(f.forecast(SECOND), None);
        // demand = 1.0 + 0.5/s.
        for i in 0..4u64 {
            f.observe(i * SECOND, 1.0 + 0.5 * i as f64);
        }
        let pred = f.forecast(4 * SECOND).expect("warm");
        // At t = 3s + 4s the line reads 1.0 + 0.5·7 = 4.5.
        assert!((pred - 4.5).abs() < 1e-9, "got {pred}");
    }

    #[test]
    fn linear_trend_never_forecasts_negative_demand() {
        let mut f = LinearTrendForecaster::new(3);
        for i in 0..3u64 {
            f.observe(i * SECOND, 2.0 - 1.0 * i as f64);
        }
        assert_eq!(f.forecast(60 * SECOND), Some(0.0));
    }
}
