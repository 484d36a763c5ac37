//! Runner parity and the Zipfian-heat rebalance scenario.
//!
//! Parity: the harness promises that a `Scenario` is a *complete*
//! description of an experiment — for a deterministic trace that crosses
//! the policy watermarks decisively, the same scenario and seed must
//! produce the identical decision log (same tick/action sequence) on the
//! synchronous `LocalCluster` and on the discrete-event `ClusterSim`.
//!
//! Placement: the same scripted scale-out, drain and crash, and every
//! case of the standard fuzz corpus, end with the same granule→node map
//! on both runners, because both take node ids, victims and moves from
//! one rule and run one plan at a time.
//!
//! Rebalance: a skewed YCSB workload concentrates heat on the first
//! node's contiguous granule block; a planner-only controller must
//! migrate hot granules off the loaded node — with zero I0–I4 violations
//! on the synchronous runtime, where every move is a real MigrationTxn.

use marlin::autoscaler::ScaleAction;
use marlin::cluster::harness::{run, Fault, LocalRunner, RunReport, Scenario, SimRunner};
use marlin::cluster::params::CoordKind;
use marlin::cluster::sim::Workload;
use marlin::common::{GranuleId, NodeId, RegionId};
use marlin::sim::SECOND;
use marlin::workload::LoadTrace;

/// The parity scenario: spike and calm edges land 4 s before a control
/// tick (several EMA time constants, so the simulator's queueing models
/// fully converge), and each side sits far beyond the 80%/35%
/// watermarks — ~200 clients drive two 4-vCPU nodes past saturation and
/// four nodes to ~55%, so both the synthesized (trace-driven) and the
/// emergent (queueing-model) observations cross on the same tick.
fn parity_scenario(granules: u64, seed: u64) -> Scenario {
    let s = Scenario::new("parity")
        .backend(CoordKind::Marlin)
        .workload(Workload::ycsb(granules))
        .trace(LoadTrace::spike(8, 200, 6 * SECOND, 26 * SECOND))
        .initial_nodes(2)
        .threads_per_node(8)
        .control_interval(5 * SECOND)
        .observe_window(4 * SECOND)
        .duration(40 * SECOND)
        .seed(seed);
    let policy = s.reactive_policy(2, 4);
    s.policy(policy)
}

fn run_local(granules: u64, seed: u64) -> RunReport {
    let scenario = parity_scenario(granules, seed);
    let mut runner = LocalRunner::new(&scenario);
    run(scenario, &mut runner)
}

fn run_sim(granules: u64, seed: u64) -> RunReport {
    let scenario = parity_scenario(granules, seed);
    let mut runner = SimRunner::new(&scenario);
    run(scenario, &mut runner)
}

#[test]
fn same_scenario_and_seed_produce_identical_decision_logs_on_both_runners() {
    let local = run_local(64, 42);
    let sim = run_sim(800, 42);
    assert_eq!(
        local.decision_signature(),
        sim.decision_signature(),
        "local {:?} vs sim {:?}",
        local.decision_signature(),
        sim.decision_signature()
    );
    // The shared log is non-trivial: one scale-out on the spike, one
    // scale-in after the calm.
    let sig = sim.decision_signature();
    assert_eq!(sig.len(), 2, "{sig:?}");
    assert_eq!(sig[0].1, "add+2");
    assert_eq!(sig[1].1, "remove-2");
    // Both end where they started.
    assert_eq!(local.metrics.live_nodes, 2);
    assert_eq!(sim.metrics.live_nodes, 2);
}

#[test]
fn parity_holds_across_seeds() {
    for seed in [7, 1234] {
        let local = run_local(64, seed);
        let sim = run_sim(800, seed);
        assert_eq!(
            local.decision_signature(),
            sim.decision_signature(),
            "seed {seed}"
        );
    }
}

#[test]
fn simulator_decision_log_is_reproducible_bit_for_bit() {
    let a = run_sim(800, 42);
    let b = run_sim(800, 42);
    assert_eq!(a.decision_signature(), b.decision_signature());
    assert_eq!(a.metrics.commits, b.metrics.commits);
    assert_eq!(a.metrics.node_count, b.metrics.node_count);
}

// ---------------------------------------------------------------------------
// Geo autoscale: per-region decisions, region-local drains

fn run_geo_local(granules: u64, seed: u64) -> (RunReport, Vec<(u64, String)>) {
    let scenario = Scenario::geo_autoscale(CoordKind::Marlin, granules).seed(seed);
    let mut runner = LocalRunner::new(&scenario);
    let report = run(scenario, &mut runner);
    runner.harness().cluster.assert_invariants();
    let sig = report.decision_signature();
    (report, sig)
}

fn run_geo_sim(granules: u64, seed: u64) -> (RunReport, SimRunner) {
    let scenario = Scenario::geo_autoscale(CoordKind::Marlin, granules).seed(seed);
    let mut runner = SimRunner::new(&scenario);
    let report = run(scenario, &mut runner);
    (report, runner)
}

#[test]
fn geo_autoscale_decision_logs_match_on_both_runners() {
    let (local, local_sig) = run_geo_local(64, 42);
    let (sim, _) = run_geo_sim(1_600, 42);
    assert_eq!(
        local_sig,
        sim.decision_signature(),
        "local {local_sig:?} vs sim {:?}",
        sim.decision_signature()
    );
    // The shared log is non-trivial and region-targeted: region 1's 2×
    // spike provokes exactly one scale-out into region 1 and one
    // region-local drain after the calm; no other region ever scales.
    assert_eq!(local_sig.len(), 2, "{local_sig:?}");
    assert_eq!(local_sig[0].1, "add+2@r1");
    assert_eq!(local_sig[1].1, "remove-2");
    // Both runners end where they started: two nodes in each region.
    for report in [&local, &sim] {
        assert_eq!(report.metrics.live_nodes, 8, "{}", report.runner);
        for r in 0..4u16 {
            let b = report.metrics.region(r).expect("breakdown per region");
            assert_eq!(
                b.live_nodes, 2,
                "{}: region {r} must end at its floor",
                report.runner
            );
        }
    }
}

#[test]
fn geo_autoscale_adds_land_in_the_hot_region_and_drains_stay_local() {
    let (report, runner) = run_geo_sim(1_600, 42);
    // Every scale-out in the log targets region 1 (the spiking region).
    let mut adds = 0;
    for rec in report.actions() {
        if let Some(marlin::autoscaler::ScaleAction::AddNodes { region, .. }) = &rec.action {
            assert_eq!(
                *region,
                Some(marlin::common::RegionId(1)),
                "scale-out must target the hot region"
            );
            adds += 1;
        }
    }
    assert!(adds >= 1, "the spike must provoke a scale-out");
    // The spike peaked region 1 at 4 nodes while the others held at 2.
    let peak_r1 = report
        .log
        .iter()
        .flat_map(|r| r.observation.regions.iter())
        .filter(|r| r.region == marlin::common::RegionId(1))
        .map(|r| r.live_nodes)
        .max()
        .unwrap_or(0);
    assert_eq!(peak_r1, 4, "region 1 doubles at the spike");
    for quiet in [0u16, 2, 3] {
        let peak = report
            .log
            .iter()
            .flat_map(|r| r.observation.regions.iter())
            .filter(|r| r.region == marlin::common::RegionId(quiet))
            .map(|r| r.live_nodes)
            .max()
            .unwrap_or(0);
        assert_eq!(peak, 2, "idle region {quiet} never scales");
    }
    // Region-local drains: every region-1-homed granule is owned by a
    // live region-1 node at the end — the drain never shipped data to
    // another region while local capacity existed.
    let owners = runner.sim().owners();
    let r1_nodes: Vec<u32> = runner
        .sim()
        .live_nodes_by_region()
        .into_iter()
        .filter(|&(_, r)| r == marlin::common::RegionId(1))
        .map(|(n, _)| n)
        .collect();
    for g in runner.sim().region_granules(marlin::common::RegionId(1)) {
        assert!(
            r1_nodes.contains(&owners[g as usize]),
            "granule {g} homed in region 1 ended on node {} (region-1 nodes: {r1_nodes:?})",
            owners[g as usize]
        );
    }
    // The per-region split reaches the metrics: the hot region committed
    // more and cost more than each idle region.
    let hot = report.metrics.region(1).expect("region 1 breakdown");
    for quiet in [0u16, 2, 3] {
        let idle = report.metrics.region(quiet).expect("idle breakdown");
        assert!(
            hot.commits > idle.commits,
            "hot region commits {} vs region {quiet} {}",
            hot.commits,
            idle.commits
        );
        assert!(
            hot.db_cost > idle.db_cost,
            "hot region cost {} vs region {quiet} {}",
            hot.db_cost,
            idle.db_cost
        );
    }
}

#[test]
fn geo_autoscale_parity_holds_across_seeds() {
    for seed in [7, 1234] {
        let (_, local_sig) = run_geo_local(64, seed);
        let (sim, _) = run_geo_sim(1_600, seed);
        assert_eq!(local_sig, sim.decision_signature(), "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Placement: one rule, the same moves

/// 4 nodes and 64 granules, no clients: `AddNodes{4}` (into `region`
/// when given) at 1 s, then at 30 s a drain of `victims`, or with
/// `crash` a crash of the one victim.
fn placement_script(geo: bool, region: Option<RegionId>, victims: &[u32], crash: bool) -> Scenario {
    let s = Scenario::new("placement")
        .workload(Workload::ycsb(64))
        .initial_nodes(4);
    let s = if geo { s.geo() } else { s };
    let s = s
        .duration(60 * SECOND)
        .action(SECOND, ScaleAction::AddNodes { count: 4, region });
    let victims: Vec<NodeId> = victims.iter().map(|&v| NodeId(v)).collect();
    if crash {
        s.faults(vec![(30 * SECOND, Fault::Crash(victims[0]))])
    } else {
        s.action(30 * SECOND, ScaleAction::RemoveNodes { victims })
    }
}

/// A crash is §4.4.2 recovery on the local runner and a drain in the
/// simulator; both place the orphans by the drain rule, so a crash of an
/// original member or of a joiner ends in the same map as well.
#[test]
fn scripted_scaling_ends_with_the_same_granule_map_on_both_runners() {
    let scripts: [(bool, Option<RegionId>, &[u32], bool); 9] = [
        (false, None, &[4, 5, 6, 7], false),
        (false, None, &[0, 5], false),
        (false, None, &[6], false),
        (true, None, &[4, 5, 6, 7], false),
        (true, Some(RegionId(1)), &[1, 5], false),
        (false, None, &[1], true),
        (false, None, &[5], true),
        (true, None, &[1], true),
        (true, None, &[6], true),
    ];
    for (geo, region, victims, crash) in scripts {
        let scenario = placement_script(geo, region, victims, crash);
        let mut local = LocalRunner::new(&scenario);
        run(scenario, &mut local);
        let scenario = placement_script(geo, region, victims, crash);
        let mut sim = SimRunner::new(&scenario);
        run(scenario, &mut sim);
        let local_owners = local.harness().owners();
        assert!(local_owners.keys().copied().eq((0..64).map(GranuleId)));
        let local_owners: Vec<u32> = local_owners.values().map(|n| n.0).collect();
        assert_eq!(sim.sim().live_nodes() as usize, 8 - victims.len());
        assert!(local_owners.iter().all(|o| !victims.contains(o)));
        assert_eq!(
            local_owners,
            sim.sim().owners(),
            "geo {geo}, add into {region:?}, remove {victims:?}, crash {crash}"
        );
    }
}

// ---------------------------------------------------------------------------
// Zipfian-heat rebalance

#[test]
fn zipfian_heat_migrates_off_the_loaded_node_in_the_simulator() {
    let scenario = Scenario::zipfian_rebalance(CoordKind::Marlin, 600, 0.9);
    let mut runner = SimRunner::new(&scenario);
    let report = run(scenario, &mut runner);

    // The planner acted (member count never changes under HoldPolicy).
    let sig = report.decision_signature();
    assert!(
        sig.iter().any(|(_, a)| a.starts_with("rebalance")),
        "the planner must propose moves: {sig:?}"
    );
    assert_eq!(report.metrics.live_nodes, 3, "hold policy never scales");
    assert!(report.metrics.migrations > 0, "moves really migrated");

    // Heat left node 0: some of the hot block (granules 0..200, the
    // first node's initial contiguous assignment) now lives elsewhere,
    // and every granule still has a live owner.
    let owners = runner.sim().owners();
    let moved_hot = owners[..200].iter().filter(|&&o| o != 0).count();
    assert!(
        moved_hot > 0,
        "hot granules must migrate off the loaded node"
    );
    let live = runner.sim().live_node_ids();
    assert!(owners.iter().all(|o| live.contains(o)));
}

#[test]
fn zipfian_rebalance_preserves_i0_i4_on_the_local_cluster() {
    // Same scenario shape on the synchronous runtime: every planner move
    // is a real MigrationTxn and `LocalRunner` asserts the I0–I4
    // invariants after every actuation (a violation panics).
    let scenario = Scenario::zipfian_rebalance(CoordKind::Marlin, 60, 0.9).duration(20 * SECOND);
    let mut runner = LocalRunner::new(&scenario);
    let report = run(scenario, &mut runner);

    assert!(
        report
            .decision_signature()
            .iter()
            .any(|(_, a)| a.starts_with("rebalance")),
        "the planner must act on the skew: {:?}",
        report.decision_signature()
    );
    assert!(report.metrics.migrations > 0);
    assert_eq!(report.metrics.live_nodes, 3);
    // The hottest granule (id 0) left the loaded first node.
    let owners = runner.harness().owners();
    assert_ne!(
        owners.get(&GranuleId(0)),
        Some(&NodeId(0)),
        "the hottest granule must move off node 0"
    );
    runner.harness().cluster.assert_invariants();
}

// ---------------------------------------------------------------------------
// The standard corpus: one reconfiguration rule, the same cluster

/// Every case of the standard fuzz corpus (seeds 1000..1064 at scale
/// 10), crash cases included, ends with the same live membership and the
/// same granule→node map on both runners: node ids, victim sets, the
/// placement of drained and recovered granules and the order in which
/// plans compose are one rule, executed by both.
///
/// Each case is forced to Marlin with no policy and no membership
/// stress, so the scripted schedule is the whole story. Exclusions, and
/// why:
/// - the provisioning lead (and its `LeadJitter` events) is zeroed: only
///   the simulator models it, so a late join would split the runners;
/// - the horizon is extended by 300 s: parity is a claim about the
///   cluster after every plan has finished, and the simulator prices
///   plans in time, so a horizon can cut one short.
#[test]
fn standard_corpus_ends_in_the_same_cluster_on_both_runners() {
    use marlin::fuzz::{generate, FuzzEvent, PolicyKind};
    let mut compared = 0;
    let mut differ = Vec::new();
    for seed in 1_000..1_064 {
        let mut case = generate(seed, 10);
        case.backend = CoordKind::Marlin;
        case.policy = PolicyKind::None;
        case.membership_stress = None;
        case.provision_lead_ms = 0;
        case.events
            .retain(|e| !matches!(e.event, FuzzEvent::LeadJitter { .. }));
        case.horizon_ms += 300_000;
        let scenario = case.build_scenario();
        let mut local = LocalRunner::new(&scenario);
        run(scenario, &mut local);
        let scenario = case.build_scenario();
        let mut sim = SimRunner::new(&scenario);
        run(scenario, &mut sim);
        compared += 1;
        let mut local_members: Vec<u32> = local.harness().members().iter().map(|n| n.0).collect();
        local_members.sort_unstable();
        let local_owners: Vec<u32> = local.harness().owners().values().map(|n| n.0).collect();
        if local_members != sim.sim().live_node_ids() || local_owners != sim.sim().owners() {
            differ.push(seed);
        }
    }
    assert_eq!(compared, 64, "the corpus's case count moved");
    assert!(differ.is_empty(), "seeds ending differently: {differ:?}");
}
