//! # marlin-autoscaler — the closed-loop autoscaling policies
//!
//! The paper's coordination layer makes reconfiguration *cheap*; this
//! crate decides *when* to reconfigure. It closes the loop the scenario
//! scripts used to hard-code: instead of replaying scale events at fixed
//! timestamps, a policy observes the running cluster and the runner
//! emits the same reconfiguration transactions (`AddNodeTxn`,
//! `MigrationTxn`, `DeleteNodeTxn`) the scripts did — now as a function
//! of measured load.
//!
//! ## The observe → decide → actuate loop
//!
//! ```text
//!        ┌────────────────────────────────────────────────┐
//!        │                  runner                        │
//!        │  (LocalRunner · SimRunner)                     │
//!        └───────┬────────────────────────────▲───────────┘
//!        observe │                            │ actuate
//!                ▼                            │
//!        [`Observation`] ──[`tick_decision`]──▶ [`ScaleAction`]
//!                   (a [`ScalingPolicy`] + optional
//!                      [`RebalancePlanner`])
//! ```
//!
//! - **Observe** — the runner produces an [`Observation`]: live node
//!   count, windowed throughput and p99 latency, per-node CPU
//!   utilization, queue depth, the current $/hour burn rate (from the
//!   §6.1.5 cost model), and sampled per-granule heat.
//! - **Decide** — a [`ScalingPolicy`] maps the observation to at most one
//!   [`ScaleAction`] per tick. Every scenario composes one stack from
//!   four policies: [`HoldPolicy`] (never scale; scripted runs) or
//!   reactive thresholds with hysteresis + cooldown ([`ReactivePolicy`]),
//!   optionally wrapped by a per-region decorator ([`RegionalPolicy`])
//!   that runs an inner sizing policy per placement domain and emits
//!   region-targeted actions with region-local victim selection, and/or
//!   by a *proactive* sizing policy ([`PredictivePolicy`]) that
//!   forecasts the demand signal with a linear trend (see [`forecast`])
//!   and sizes the cluster for demand a provisioning-lead-time ahead,
//!   falling back to its inner reactive policy when the rolling forecast
//!   error exceeds a guard threshold. On quiet ticks the optional
//!   [`RebalancePlanner`] proposes hot-granule `MigrationTxn`s instead;
//!   [`tick_decision`] is that rule.
//! - **Actuate** — the one loop, `marlin_cluster::harness::run`, hands
//!   the action to its runner. The local runner executes it
//!   synchronously on a [`LocalHarness`] (its [`Actuator`] methods run
//!   the sans-io reconfiguration drivers in
//!   `marlin_core::drivers::reconfig`); the simulator runner schedules
//!   the equivalent virtual-time migration plans. Policies cannot tell
//!   the two apart — the same policy instance is unit-tested against
//!   synthetic observations, end-to-end-tested against [`LocalCluster`],
//!   and benchmarked inside the discrete-event simulation.
//!
//! ## Why both runners matter
//!
//! The synchronous runtime proves *safety*: every action lands as real
//! reconfiguration transactions whose effects are checked against the
//! paper's I0–I4 invariants after each control step. The simulator proves
//! *performance*: the same decisions play out against queueing, cold
//! caches, and migration contention, producing the throughput/cost traces
//! the benches report.
//!
//! [`LocalCluster`]: marlin_core::runtime::LocalCluster
//! [`Observation`]: observe::Observation
//! [`ScaleAction`]: policy::ScaleAction
//! [`ScalingPolicy`]: policy::ScalingPolicy
//! [`tick_decision`]: policy::tick_decision
//! [`Actuator`]: local::Actuator
//! [`HoldPolicy`]: policy::HoldPolicy
//! [`ReactivePolicy`]: policy::ReactivePolicy
//! [`RegionalPolicy`]: regional::RegionalPolicy
//! [`PredictivePolicy`]: forecast::PredictivePolicy
//! [`RebalancePlanner`]: rebalance::RebalancePlanner
//! [`LocalHarness`]: local::LocalHarness

// Every public item in the control loop is API surface for scenario
// authors; CI escalates this to an error via RUSTDOCFLAGS=-D warnings.
#![warn(missing_docs)]

pub mod forecast;
pub mod invariant;
pub mod local;
pub mod observe;
pub mod policy;
pub mod rebalance;
pub mod regional;

pub use forecast::{
    relative_error, ErrorTracker, ForecastSample, LinearTrendForecaster, PredictiveConfig,
    PredictivePolicy, MAPE_FLOOR,
};
pub use invariant::{InvariantId, InvariantViolation};
pub use local::{Actuator, LocalHarness};
pub use observe::{GranuleLoad, NodeLoad, Observation, RegionLoad};
pub use policy::{
    tick_decision, HoldPolicy, ReactiveConfig, ReactivePolicy, ScaleAction, ScalingPolicy,
    SizeBounds,
};
pub use rebalance::{validate_moves, GranuleMove, RebalanceConfig, RebalancePlanner};
pub use regional::RegionalPolicy;
