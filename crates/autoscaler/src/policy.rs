//! The *decide* leg of the control loop: pluggable scaling policies.
//!
//! A [`ScalingPolicy`] maps an [`Observation`] to at most one
//! [`ScaleAction`] per control tick. Two ship here:
//!
//! - [`HoldPolicy`] — never scales; scripted scenarios and planner-only
//!   controllers use it.
//! - [`ReactivePolicy`] — threshold scaling with a hysteresis band and a
//!   cooldown, the classic rule-based autoscaler. The band keeps an
//!   oscillating signal from flapping the cluster; the cooldown bounds the
//!   action rate even when the signal stays pinned.
//!
//! The decorators [`RegionalPolicy`](crate::regional::RegionalPolicy) and
//! [`PredictivePolicy`](crate::forecast::PredictivePolicy) wrap them.
//!
//! Policies are deliberately pure over their inputs plus their own state —
//! no clocks, no I/O — so the same instance drives the synchronous
//! runtime, the discrete-event simulator, and plain unit tests.

use crate::observe::Observation;
use crate::rebalance::GranuleMove;
use marlin_common::{NodeId, RegionId};
use marlin_sim::Nanos;

/// One actuation the controller should perform.
#[derive(Clone, Debug, PartialEq)]
pub enum ScaleAction {
    /// Provision `count` fresh nodes and rebalance granules onto them.
    AddNodes {
        /// Nodes to add.
        count: u32,
        /// Placement: `Some(region)` provisions the nodes in that region
        /// and rebalances region-local granules onto them; `None` leaves
        /// placement to the runner (round-robin across regions).
        region: Option<RegionId>,
    },
    /// Drain and release the listed members.
    RemoveNodes {
        /// Nodes to drain and delete, coolest first.
        victims: Vec<NodeId>,
    },
    /// Migrate individual hot granules without changing the member count.
    Rebalance {
        /// The migrations to issue.
        moves: Vec<GranuleMove>,
    },
}

impl ScaleAction {
    /// A scale-out with runner-chosen placement.
    #[must_use]
    pub fn add(count: u32) -> Self {
        ScaleAction::AddNodes {
            count,
            region: None,
        }
    }

    /// A scale-out targeted at one region.
    #[must_use]
    pub fn add_in(count: u32, region: RegionId) -> Self {
        ScaleAction::AddNodes {
            count,
            region: Some(region),
        }
    }
}

/// A scaling decision procedure.
pub trait ScalingPolicy {
    /// Short name for reports and logs.
    fn name(&self) -> &'static str;

    /// Decide on at most one action for this control tick.
    fn decide(&mut self, obs: &Observation) -> Option<ScaleAction>;

    /// Ingest an observation *without* deciding. Stateless policies need
    /// nothing here (the default is a no-op); policies that learn from
    /// the observation stream — forecasters — use it to keep their
    /// models fed on ticks where another policy claimed the action (the
    /// regional decorator's hottest-first arbitration).
    fn observe_only(&mut self, _obs: &Observation) {}

    /// The forecast snapshots behind the most recent decision, if the
    /// policy forecasts (empty for reactive policies). The harness
    /// driver copies these into the decision log so every record shows
    /// forecast vs. actual.
    fn forecasts(&self) -> Vec<crate::forecast::ForecastSample> {
        Vec::new()
    }

    /// The p99 latency ceiling this policy is armed with, if any — the
    /// SLO the harness derives error-budget and burn-rate series from.
    /// Decorators delegate to their inner policy; policies without a
    /// latency objective return `None` (the default).
    fn p99_ceiling(&self) -> Option<Nanos> {
        None
    }
}

/// Shared sizing bounds for the shipped policies.
#[derive(Clone, Copy, Debug)]
pub struct SizeBounds {
    /// Never scale below this many nodes.
    pub min_nodes: u32,
    /// Never scale above this many nodes.
    pub max_nodes: u32,
}

impl SizeBounds {
    /// Clamp a desired node count into the bounds.
    #[must_use]
    pub fn clamp(&self, nodes: u32) -> u32 {
        nodes.clamp(self.min_nodes, self.max_nodes)
    }
}

// ---------------------------------------------------------------------------
// Hold (never scale) policy

/// A policy that never changes the member count.
///
/// Useful for scripted scenarios (where scale events come from the
/// scenario's action schedule, not a controller) and for planner-only
/// controllers: a [`Controller`](crate::controller::Controller) wrapping
/// `HoldPolicy` plus a [`RebalancePlanner`](crate::rebalance::RebalancePlanner)
/// rebalances hot granules on every tick without ever scaling.
#[derive(Clone, Copy, Debug, Default)]
pub struct HoldPolicy;

impl ScalingPolicy for HoldPolicy {
    fn name(&self) -> &'static str {
        "hold"
    }

    fn decide(&mut self, _obs: &Observation) -> Option<ScaleAction> {
        None
    }
}

// ---------------------------------------------------------------------------
// Reactive threshold policy

/// Configuration of [`ReactivePolicy`].
#[derive(Clone, Debug)]
pub struct ReactiveConfig {
    /// Scale out when mean utilization reaches this watermark.
    pub high_utilization: f64,
    /// Scale in when mean utilization falls to this watermark. The gap
    /// between the two watermarks is the hysteresis band.
    pub low_utilization: f64,
    /// Optional latency escape hatch: scale out when p99 exceeds this even
    /// if utilization looks fine (queueing can hide behind EMA smoothing).
    ///
    /// Under the simulator's per-request CPU model the observed p99 is
    /// built from exact sojourn times, so this hatch fires on *real*
    /// queue build-up — typically one control tick before the analytic
    /// model's smoothed utilization crosses the high watermark (pinned
    /// by `tests/cpu_model.rs`).
    pub p99_ceiling: Option<Nanos>,
    /// Nodes added or removed per action.
    pub step_nodes: u32,
    /// Cluster size bounds.
    pub bounds: SizeBounds,
    /// Minimum virtual time between two actions.
    pub cooldown: Nanos,
}

impl ReactiveConfig {
    /// A conservative default: 80%/35% watermarks, a **fixed step** of
    /// `min_nodes` nodes per action between `min` and `max`, 5 s cooldown.
    ///
    /// The fixed step doubles the cluster only when it sits exactly at
    /// `min_nodes`; from any larger size it adds (or sheds) the same
    /// `min_nodes` increment. This keeps consecutive scale-outs
    /// additive — a true doubling policy would react to a sustained
    /// breach with exponentially growing steps, which the paper's
    /// scripted 8→16 reconfigurations never do.
    #[must_use]
    pub fn paper_default(min_nodes: u32, max_nodes: u32) -> Self {
        ReactiveConfig {
            high_utilization: 0.80,
            low_utilization: 0.35,
            p99_ceiling: None,
            step_nodes: min_nodes.max(1),
            bounds: SizeBounds {
                min_nodes,
                max_nodes,
            },
            cooldown: 5 * marlin_sim::SECOND,
        }
    }
}

/// Threshold scaling with hysteresis and cooldown.
#[derive(Clone, Debug)]
pub struct ReactivePolicy {
    cfg: ReactiveConfig,
    last_action_at: Option<Nanos>,
}

impl ReactivePolicy {
    /// A policy with the given configuration.
    #[must_use]
    pub fn new(cfg: ReactiveConfig) -> Self {
        assert!(
            cfg.low_utilization < cfg.high_utilization,
            "hysteresis band must be non-empty (low < high)"
        );
        ReactivePolicy {
            cfg,
            last_action_at: None,
        }
    }

    fn in_cooldown(&self, at: Nanos) -> bool {
        self.last_action_at
            .is_some_and(|t| at.saturating_sub(t) < self.cfg.cooldown)
    }
}

impl ScalingPolicy for ReactivePolicy {
    fn name(&self) -> &'static str {
        "reactive"
    }

    fn p99_ceiling(&self) -> Option<Nanos> {
        self.cfg.p99_ceiling
    }

    fn decide(&mut self, obs: &Observation) -> Option<ScaleAction> {
        if self.in_cooldown(obs.at) {
            return None;
        }
        let util = obs.mean_utilization;
        let p99_breach = self
            .cfg
            .p99_ceiling
            .is_some_and(|ceiling| obs.p99_latency > ceiling);
        // Capacity already ordered counts toward the target: under a
        // provisioning lead time the breach persists while the nodes
        // boot, and re-ordering every post-cooldown tick would buy the
        // same capacity twice (and blow through max_nodes). Pending is
        // always 0 when provisioning is instant.
        let provisioned = obs.live_nodes + obs.pending_nodes();
        if util >= self.cfg.high_utilization || p99_breach {
            if provisioned < self.cfg.bounds.max_nodes {
                let target = self.cfg.bounds.clamp(provisioned + self.cfg.step_nodes);
                self.last_action_at = Some(obs.at);
                return Some(ScaleAction::add(target - provisioned));
            }
            // Hot (or latency-breached) but fully provisioned: hold. A
            // breach must never fall through to the scale-in branch — a
            // saturated cluster can gate arrivals hard enough to pull
            // measured utilization under the low watermark while the
            // backlog is still deep, and draining it then is the death
            // spiral.
            return None;
        }
        if util <= self.cfg.low_utilization
            && obs.live_nodes > self.cfg.bounds.min_nodes
            // Never drain while ordered capacity is still provisioning:
            // the spike that bought it may have passed, but releasing
            // live nodes now just swaps them for the joiners (paying the
            // join + rebalance twice). Let the order land, then shed.
            && obs.pending_nodes() == 0
        {
            let target = self
                .cfg
                .bounds
                .clamp(obs.live_nodes.saturating_sub(self.cfg.step_nodes));
            let shed = (obs.live_nodes - target) as usize;
            let victims: Vec<NodeId> = obs.coolest_live_nodes().into_iter().take(shed).collect();
            if victims.is_empty() {
                return None;
            }
            self.last_action_at = Some(obs.at);
            return Some(ScaleAction::RemoveNodes { victims });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reactive(min: u32, max: u32, cooldown: Nanos) -> ReactivePolicy {
        ReactivePolicy::new(ReactiveConfig {
            cooldown,
            ..ReactiveConfig::paper_default(min, max)
        })
    }

    #[test]
    fn scales_out_at_the_high_watermark() {
        let mut p = reactive(4, 16, 0);
        let action = p.decide(&Observation::uniform(0, 4, 0.9));
        assert_eq!(action, Some(ScaleAction::add(4)));
    }

    #[test]
    fn paper_default_step_is_fixed_not_doubling() {
        // Regression: the rustdoc used to promise "one-step doubling",
        // but `step_nodes = min_nodes.max(1)` is a fixed increment — it
        // doubles only from `min_nodes`. Pin the fixed-step semantics.
        let mut p = reactive(4, 32, 0);
        assert_eq!(
            p.decide(&Observation::uniform(0, 4, 0.9)),
            Some(ScaleAction::add(4)),
            "from min_nodes the fixed step happens to double"
        );
        let mut p = reactive(4, 32, 0);
        assert_eq!(
            p.decide(&Observation::uniform(0, 16, 0.9)),
            Some(ScaleAction::add(4)),
            "from 16 nodes the step stays 4, not a doubling to 32"
        );
        let mut p = reactive(4, 32, 0);
        match p.decide(&Observation::uniform(0, 16, 0.1)) {
            Some(ScaleAction::RemoveNodes { victims }) => {
                assert_eq!(victims.len(), 4, "scale-in uses the same fixed step");
            }
            other => panic!("expected a fixed-step scale-in, got {other:?}"),
        }
    }

    #[test]
    fn scales_in_at_the_low_watermark_with_coolest_victims() {
        let mut p = reactive(4, 16, 0);
        let mut obs = Observation::uniform(0, 8, 0.2);
        obs.node_loads[3].utilization = 0.05;
        match p.decide(&obs) {
            Some(ScaleAction::RemoveNodes { victims }) => {
                assert_eq!(victims.len(), 4);
                assert_eq!(victims[0], NodeId(3), "coolest node drains first");
            }
            other => panic!("expected a scale-in, got {other:?}"),
        }
    }

    #[test]
    fn respects_bounds() {
        let mut p = reactive(4, 8, 0);
        assert_eq!(
            p.decide(&Observation::uniform(0, 8, 0.95)),
            None,
            "already at max_nodes"
        );
        let mut p = reactive(4, 8, 0);
        assert_eq!(
            p.decide(&Observation::uniform(0, 4, 0.01)),
            None,
            "already at min_nodes"
        );
    }

    #[test]
    fn hysteresis_band_ignores_mid_range_oscillation() {
        // The signal oscillates hard between the watermarks: a bare
        // threshold policy (band collapsed to a point) would act every
        // tick; the hysteresis band must absorb all of it.
        let mut p = reactive(4, 16, 0);
        for tick in 0..50u64 {
            let util = if tick % 2 == 0 { 0.78 } else { 0.37 };
            let obs = Observation::uniform(tick * marlin_sim::SECOND, 8, util);
            assert_eq!(p.decide(&obs), None, "tick {tick} must not act");
        }
    }

    #[test]
    fn cooldown_suppresses_back_to_back_actions() {
        let cooldown = 10 * marlin_sim::SECOND;
        let mut p = reactive(4, 32, cooldown);
        let first = p.decide(&Observation::uniform(0, 4, 0.9));
        assert!(matches!(first, Some(ScaleAction::AddNodes { .. })));
        // Still saturated immediately after: cooldown holds the line.
        for dt in 1..10u64 {
            let obs = Observation::uniform(dt * marlin_sim::SECOND, 8, 0.9);
            assert_eq!(p.decide(&obs), None, "t={dt}s is inside the cooldown");
        }
        // After the cooldown the policy may act again.
        let later = p.decide(&Observation::uniform(11 * marlin_sim::SECOND, 8, 0.9));
        assert!(matches!(later, Some(ScaleAction::AddNodes { .. })));
    }

    #[test]
    fn p99_ceiling_triggers_scale_out_at_moderate_utilization() {
        let mut cfg = ReactiveConfig::paper_default(4, 16);
        cfg.p99_ceiling = Some(50 * marlin_sim::MILLISECOND);
        cfg.cooldown = 0;
        let mut p = ReactivePolicy::new(cfg);
        let mut obs = Observation::uniform(0, 4, 0.6);
        obs.p99_latency = 80 * marlin_sim::MILLISECOND;
        assert!(matches!(p.decide(&obs), Some(ScaleAction::AddNodes { .. })));
    }

    #[test]
    fn scale_in_waits_for_in_flight_provisioning() {
        // Regression: with a provisioning lead, util can dip under the
        // low watermark while the ordered nodes are still booting; the
        // scale-in branch used to count only live nodes and would swap
        // live members for the joiners.
        use crate::observe::NodeLoad;
        let pend = |mut obs: Observation| {
            obs.node_loads.push(NodeLoad {
                node: NodeId(99),
                alive: false,
                pending: true,
                ..NodeLoad::default()
            });
            obs
        };
        let mut p = reactive(4, 16, 0);
        assert_eq!(
            p.decide(&pend(Observation::uniform(0, 8, 0.2))),
            None,
            "reactive must not drain while an order is in flight"
        );
    }
}
