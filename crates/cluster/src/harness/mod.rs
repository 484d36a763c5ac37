//! The unified experiment harness: one `Runner`/`Scenario`/`RunReport`
//! API across both execution backends.
//!
//! The paper's evaluation (§6.1.3) runs the same logical scenarios
//! against every coordination backend. This module makes that literal:
//!
//! - a [`Scenario`] is a declarative value — workload ([`Workload`],
//!   including Zipfian-skewed YCSB), client [`LoadTrace`], backend
//!   ([`CoordKind`]), an optional [`ScalingPolicy`] (closed-loop) or a
//!   scripted action schedule (the paper's fixed-timestamp
//!   reconfigurations), faults, and the control cadence — with one
//!   preset constructor per §6 figure;
//! - a [`Runner`] is an execution backend: [`SimRunner`] wraps the
//!   discrete-event [`ClusterSim`](crate::sim::ClusterSim)
//!   (performance: queueing, cold caches, migration contention),
//!   [`LocalRunner`] wraps the synchronous
//!   `LocalCluster` (safety: real reconfiguration transactions with
//!   I0–I4 asserted after every step);
//! - [`run`] is the only driver and the only control loop: it advances
//!   the runner, observes every control interval, lets the policy (and
//!   its optional rebalance planner) decide, actuates the decision and
//!   the scripted events, and assembles a [`RunReport`] — windowed
//!   throughput/p99, per-node CPU, $/hr burn, Meta Cost, and the **full
//!   decision log** (tick, observation digest, chosen action, actuation
//!   latency), serializable to JSON (`MARLIN_REPORT_JSON=<path>`).
//!
//! ```
//! use marlin_cluster::harness::{run, Scenario, SimRunner};
//! use marlin_cluster::params::CoordKind;
//!
//! let scenario = Scenario::ycsb_scale_out(CoordKind::Marlin, 1_000);
//! let mut runner = SimRunner::new(&scenario);
//! let report = run(scenario, &mut runner);
//! assert!(report.metrics.migrations > 0);
//! ```
//!
//! [`Workload`]: crate::sim::Workload
//! [`LoadTrace`]: marlin_workload::LoadTrace
//! [`CoordKind`]: crate::params::CoordKind
//! [`ScalingPolicy`]: marlin_autoscaler::ScalingPolicy

pub mod driver;
pub mod local_runner;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sim_runner;

pub use driver::{run, run_with_series};
pub use local_runner::LocalRunner;
pub use report::{
    action_signature, maybe_write_json, DecisionRecord, DecisionSource, ForecastAccuracy,
    ObservationDigest, RunReport,
};
pub use runner::{Fault, MetricsSnapshot, RegionBreakdown, Runner, TelemetrySection};
pub use scenario::{expected_membership_updates, Scenario, OFFERED_PER_CLIENT};
pub use sim_runner::SimRunner;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CoordKind;
    use crate::sim::Workload;
    use marlin_autoscaler::ScaleAction;
    use marlin_common::NodeId;
    use marlin_sim::{MILLISECOND, SECOND};
    use marlin_workload::LoadTrace;

    fn small_scale_out(kind: CoordKind, granules: u64, threads: u32, horizon: u64) -> Scenario {
        Scenario::new("small-scale-out")
            .backend(kind)
            .workload(Workload::ycsb(granules))
            .trace(LoadTrace::constant(40))
            .initial_nodes(2)
            .threads_per_node(threads)
            .duration(horizon * SECOND)
            .action(2 * SECOND, ScaleAction::add(2))
    }

    /// The old `scale_out` smoke test: every granule ends on the right
    /// node, all migrations complete, the system commits throughout.
    #[test]
    fn small_scale_out_completes_and_balances() {
        let scenario = small_scale_out(CoordKind::Marlin, 800, 4, 20);
        let mut runner = SimRunner::new(&scenario);
        let report = run(scenario, &mut runner);
        assert_eq!(report.metrics.live_nodes, 4);
        // Half the granules moved (2→4 nodes).
        assert_eq!(report.metrics.migrations, 400);
        assert!(
            report.metrics.commits > 1_000,
            "commits {}",
            report.metrics.commits
        );
        assert!(report.metrics.migration_duration > 0);
        let owners = runner.sim().owners();
        for n in 0..4u32 {
            let owned = owners.iter().filter(|&&o| o == n).count();
            assert!((150..=250).contains(&owned), "node {n} owns {owned}");
        }
        assert_eq!(report.metrics.meta_cost, 0.0, "Marlin has no Meta Cost");
        // The scripted action landed in the decision log.
        assert_eq!(report.actions().len(), 1);
        assert_eq!(
            report
                .log
                .iter()
                .filter(|r| r.source == DecisionSource::Script)
                .count(),
            1
        );
    }

    /// The old headline comparison: Marlin's migration storm finishes
    /// faster than S-ZK's and costs less per transaction.
    #[test]
    fn marlin_beats_szk_on_duration_and_cost() {
        let run_kind = |kind| {
            let scenario = small_scale_out(kind, 2_000, 24, 30);
            let mut runner = SimRunner::new(&scenario);
            run(scenario, &mut runner).metrics
        };
        let marlin = run_kind(CoordKind::Marlin);
        let szk = run_kind(CoordKind::ZkSmall);
        assert!(
            marlin.migration_duration < szk.migration_duration,
            "Marlin {:?} must beat S-ZK {:?}",
            marlin.migration_duration,
            szk.migration_duration
        );
        assert!(marlin.cost_per_mtxn < szk.cost_per_mtxn);
        assert!(marlin.meta_cost == 0.0 && szk.meta_cost > 0.0);
    }

    /// Runs are bit-for-bit reproducible for a fixed seed — including
    /// the decision log.
    #[test]
    fn determinism_under_fixed_seed() {
        let go = || {
            let scenario =
                small_scale_out(CoordKind::Marlin, 400, 2, 10).trace(LoadTrace::constant(10));
            let mut runner = SimRunner::new(&scenario);
            run(scenario, &mut runner)
        };
        let a = go();
        let b = go();
        assert_eq!(a.metrics.commits, b.metrics.commits);
        assert_eq!(a.metrics.migration_duration, b.metrics.migration_duration);
        assert_eq!(a.metrics.abort_ratio, b.metrics.abort_ratio);
        assert_eq!(a.decision_signature(), b.decision_signature());
        assert_eq!(a.metrics.node_count, b.metrics.node_count);
        // Everything but the wall-clock actuation timing is bit-identical.
        let strip = |r: &RunReport| {
            let mut r = r.clone();
            r.log.iter_mut().for_each(|e| e.actuation_micros = 0);
            r.to_json()
        };
        assert_eq!(strip(&a), strip(&b));
    }

    /// The old `dynamic` cycle: burst → scale-out, calm → scale-in, the
    /// added nodes released once drained.
    #[test]
    fn dynamic_cycle_scales_out_and_back_in() {
        let scenario = Scenario::new("dynamic-small")
            .backend(CoordKind::Marlin)
            .workload(Workload::ycsb(1_000))
            .trace(LoadTrace::spike(10, 20, 5 * SECOND, 15 * SECOND))
            .initial_nodes(2)
            .threads_per_node(4)
            .duration(40 * SECOND)
            .action(5 * SECOND, ScaleAction::add(2))
            .action(
                15 * SECOND,
                ScaleAction::RemoveNodes {
                    victims: vec![NodeId(2), NodeId(3)],
                },
            );
        let mut runner = SimRunner::new(&scenario);
        let report = run(scenario, &mut runner);
        assert_eq!(report.peak_nodes(), 4);
        assert_eq!(
            report.metrics.live_nodes, 2,
            "victims must be drained and released"
        );
        let lag = report
            .release_lag(2, 15 * SECOND)
            .expect("release lag observed");
        assert!(lag > 0);
        assert!(runner.sim().owners().iter().all(|&o| o < 2));
        // Both reconfigurations' migrations happened: out (500) + back (500).
        assert_eq!(report.metrics.migrations, 1_000);
    }

    /// The old ordering check: slower coordination releases nodes later.
    #[test]
    fn slower_coordination_releases_nodes_later() {
        let lag = |kind| {
            let scenario = Scenario::new("dynamic-lag")
                .backend(kind)
                .workload(Workload::ycsb(20_000))
                .trace(LoadTrace::spike(10, 20, 5 * SECOND, 25 * SECOND))
                .initial_nodes(2)
                .threads_per_node(24)
                .duration(90 * SECOND)
                .action(5 * SECOND, ScaleAction::add(2))
                .action(
                    25 * SECOND,
                    ScaleAction::RemoveNodes {
                        victims: vec![NodeId(2), NodeId(3)],
                    },
                );
            let mut runner = SimRunner::new(&scenario);
            run(scenario, &mut runner).release_lag(2, 25 * SECOND)
        };
        let marlin = lag(CoordKind::Marlin).expect("marlin releases");
        let szk = lag(CoordKind::ZkSmall).expect("szk releases");
        assert!(
            marlin < szk,
            "Marlin release lag ({marlin}ns) must beat S-ZK ({szk}ns)"
        );
    }

    /// The old membership stress checks, through the unified API.
    #[test]
    fn membership_stress_matches_offered_load_and_shows_the_occ_knee() {
        let (period, horizon) = (15 * SECOND, 50 * SECOND);
        let stress = |kind, members| {
            let scenario = Scenario::membership(kind, members, period, horizon);
            let mut runner = SimRunner::new(&scenario);
            run(scenario, &mut runner).metrics
        };
        // Low contention: every burst inside the horizon commits fully.
        let quiet = stress(CoordKind::Marlin, 8);
        assert_eq!(
            quiet.membership_commits,
            expected_membership_updates(8, period, horizon)
        );
        assert!(
            quiet.membership_mean_latency < (50 * MILLISECOND) as f64,
            "latency {}",
            quiet.membership_mean_latency
        );
        // High contention: OCC retries and latency degrade (Figure 15).
        let stormy = stress(CoordKind::Marlin, 512);
        assert!(
            stormy.membership_retries > quiet.membership_retries.max(1) * 10,
            "retries {} vs {}",
            stormy.membership_retries,
            quiet.membership_retries
        );
        assert!(stormy.membership_mean_latency > quiet.membership_mean_latency);
        // ZK serializes without client retries.
        let zk = stress(CoordKind::ZkSmall, 256);
        assert_eq!(zk.membership_retries, 0);
        assert_eq!(
            zk.membership_commits,
            expected_membership_updates(256, period, horizon)
        );
    }

    fn small_spike(kind: CoordKind) -> Scenario {
        // ~0.012 node-capacity per closed-loop client: 8 clients idle
        // along at ~5% utilization, 160 saturate two 4-vCPU nodes
        // (≈96%), so the spike crosses the 80% watermark.
        let s = Scenario::new("autoscale-small")
            .backend(kind)
            .workload(Workload::ycsb(2_000))
            .trace(LoadTrace::spike(8, 160, 10 * SECOND, 40 * SECOND))
            .initial_nodes(2)
            .threads_per_node(4)
            .control_interval(2 * SECOND)
            .observe_window(4 * SECOND)
            .duration(70 * SECOND);
        let policy = s.reactive_policy(2, 4);
        s.policy(policy)
    }

    /// The old closed-loop autoscale test: the controller — not a script
    /// — rides the spike out and back.
    #[test]
    fn controller_scales_out_on_the_spike_and_back_in() {
        let scenario = small_spike(CoordKind::Marlin);
        let mut runner = SimRunner::new(&scenario);
        let report = run(scenario, &mut runner);
        assert_eq!(report.peak_nodes(), 4, "the spike must reach max_nodes");
        assert_eq!(
            report.metrics.live_nodes, 2,
            "calm must drain back to min_nodes"
        );
        assert!(
            report.scale_action_count() >= 2,
            "at least one scale-out and one scale-in: {:?}",
            report.decision_signature()
        );
        let live = runner.sim().live_node_ids();
        assert!(
            runner.sim().owners().iter().all(|o| live.contains(o)),
            "granules drained to survivors"
        );
        assert!(
            report.metrics.migrations > 0,
            "scaling really migrated granules"
        );
    }

    #[test]
    fn quiet_load_never_triggers_scaling() {
        let scenario = small_spike(CoordKind::Marlin)
            .trace(LoadTrace::constant(8))
            .duration(30 * SECOND);
        let mut runner = SimRunner::new(&scenario);
        let report = run(scenario, &mut runner);
        assert_eq!(report.metrics.live_nodes, 2);
        assert_eq!(
            report.scale_action_count(),
            0,
            "steady low load must not flap: {:?}",
            report.decision_signature()
        );
    }

    #[test]
    fn diurnal_cycles_scale_out_and_in_repeatedly() {
        let period = 60 * SECOND;
        let s = Scenario::new("diurnal-small")
            .backend(CoordKind::Marlin)
            .workload(Workload::ycsb(2_000))
            .trace(LoadTrace::diurnal(8, 160, period, 2 * period, 8))
            .initial_nodes(2)
            .threads_per_node(4)
            .control_interval(2 * SECOND)
            .observe_window(4 * SECOND)
            .duration(2 * period);
        let policy = s.reactive_policy(2, 4);
        let scenario = s.policy(policy);
        let mut runner = SimRunner::new(&scenario);
        let report = run(scenario, &mut runner);
        assert!(report.peak_nodes() > 2);
        let sig = report.decision_signature();
        let outs = sig.iter().filter(|(_, a)| a.starts_with("add")).count();
        let ins = sig.iter().filter(|(_, a)| a.starts_with("remove")).count();
        assert!(
            outs >= 2,
            "two diurnal peaks → two scale-outs, got {outs}: {sig:?}"
        );
        assert!(ins >= 2, "two troughs → two scale-ins, got {ins}: {sig:?}");
    }

    /// Fault injection drains the crashed node onto survivors (sim side).
    #[test]
    fn crash_fault_drains_the_victim_in_the_simulator() {
        let scenario = Scenario::new("crash-sim")
            .backend(CoordKind::Marlin)
            .workload(Workload::ycsb(600))
            .trace(LoadTrace::constant(10))
            .initial_nodes(3)
            .threads_per_node(4)
            .duration(20 * SECOND)
            .faults(vec![(5 * SECOND, Fault::Crash(NodeId(1)))]);
        let mut runner = SimRunner::new(&scenario);
        let report = run(scenario, &mut runner);
        assert_eq!(report.metrics.live_nodes, 2);
        assert!(runner.sim().owners().iter().all(|&o| o != 1));
        assert_eq!(
            report
                .log
                .iter()
                .filter(|r| r.source == DecisionSource::Fault)
                .count(),
            1
        );
    }

    /// The same scenario value drives the synchronous runtime: real
    /// reconfiguration transactions, invariants asserted on every step.
    #[test]
    fn local_runner_executes_the_closed_loop_with_invariants() {
        let s = Scenario::new("local-spike")
            .workload(Workload::ycsb(24))
            .trace(LoadTrace::spike(8, 160, 4 * SECOND, 14 * SECOND))
            .initial_nodes(2)
            .control_interval(2 * SECOND)
            .duration(26 * SECOND);
        let policy = s.reactive_policy(2, 4);
        let scenario = s.policy(policy);
        let mut runner = LocalRunner::new(&scenario);
        let report = run(scenario, &mut runner);
        assert_eq!(report.peak_nodes(), 4, "{:?}", report.decision_signature());
        assert_eq!(report.metrics.live_nodes, 2);
        assert!(report.metrics.migrations > 0);
        assert!(report.metrics.db_cost > 0.0);
        // Invariants are checked after every actuation and surfaced as
        // values: a healthy closed loop collects none.
        assert!(runner.violations().is_empty(), "{:?}", runner.violations());
    }

    /// Events scripted past the horizon never fire — on either the
    /// event timeline or the final metrics.
    #[test]
    fn events_past_the_horizon_are_dropped() {
        let scenario = Scenario::new("past-horizon")
            .workload(Workload::ycsb(200))
            .trace(LoadTrace::constant(4))
            .initial_nodes(2)
            .duration(10 * SECOND)
            .action(15 * SECOND, ScaleAction::add(2))
            .faults(vec![(20 * SECOND, Fault::Crash(NodeId(0)))]);
        let mut runner = SimRunner::new(&scenario);
        let report = run(scenario, &mut runner);
        assert!(report.actions().is_empty(), "{:?}", report.actions());
        assert_eq!(report.metrics.live_nodes, 2);
        assert_eq!(report.metrics.migrations, 0);
    }

    /// Crashing the last member (or a non-member) is a no-op on both
    /// runners — the declarative value must not panic one world and
    /// silently succeed in the other.
    #[test]
    fn crash_of_the_last_member_is_a_noop_on_both_runners() {
        let scenario = || {
            Scenario::new("crash-last")
                .workload(Workload::ycsb(8))
                .trace(LoadTrace::constant(2))
                .initial_nodes(1)
                .duration(6 * SECOND)
                .faults(vec![
                    (2 * SECOND, Fault::Crash(NodeId(0))),
                    (3 * SECOND, Fault::Crash(NodeId(9))),
                ])
        };
        let s = scenario();
        let mut local = LocalRunner::new(&s);
        assert_eq!(run(s, &mut local).metrics.live_nodes, 1);
        let s = scenario();
        let mut sim = SimRunner::new(&s);
        assert_eq!(run(s, &mut sim).metrics.live_nodes, 1);
    }

    /// Crash injection on the synchronous runtime runs the full §4.4.2
    /// recovery and keeps every invariant.
    #[test]
    fn crash_fault_recovers_on_the_local_cluster() {
        let scenario = Scenario::new("crash-local")
            .workload(Workload::ycsb(12))
            .trace(LoadTrace::constant(8))
            .initial_nodes(3)
            .duration(10 * SECOND)
            .faults(vec![(5 * SECOND, Fault::Crash(NodeId(1)))]);
        let mut runner = LocalRunner::new(&scenario);
        let report = run(scenario, &mut runner);
        assert_eq!(report.metrics.live_nodes, 2);
        assert!(
            !runner.harness().owners().values().any(|&o| o == NodeId(1)),
            "the dead node's granules were recovered"
        );
        assert!(
            report.metrics.migrations >= 4,
            "orphans migrated in recovery"
        );
    }

    /// The planner runs only under a policy: the `zipfian_rebalance`
    /// shape with its planner but without `HoldPolicy` only samples.
    #[test]
    fn planner_without_a_policy_only_samples() {
        let scenario = Scenario::new("planner-no-policy")
            .workload(Workload::ycsb_zipfian(600, 0.9))
            .trace(LoadTrace::constant(60))
            .initial_nodes(3)
            .threads_per_node(4)
            .control_interval(2 * SECOND)
            .observe_window(2 * SECOND)
            .duration(20 * SECOND)
            .planner(marlin_autoscaler::RebalanceConfig::default());
        let mut runner = SimRunner::new(&scenario);
        let report = run(scenario, &mut runner);
        assert_eq!(report.log.len(), 10);
        assert!(report
            .log
            .iter()
            .all(|r| r.source == DecisionSource::Sample && r.action.is_none()));
        assert_eq!(report.policy, None);
        assert_eq!(report.metrics.migrations, 0);
    }
}
