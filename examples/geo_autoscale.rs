//! Region-aware autoscaling: the §6.5 geo-distributed deployment as a
//! *live multi-region control loop* instead of a static latency overlay.
//!
//! Four regions (US West, East Asia, UK South, Australia East) run two
//! nodes each. Region 1's demand spikes to 2× while the other three
//! idle; the `RegionalPolicy` controller — one independent reactive
//! policy per region — must answer with `AddNodes` targeted at region 1
//! only, then drain region 1 back to its floor with region-local victims
//! once the spike passes. Region 0, where baselines pin their external
//! coordination service, is floored so a drain can never strand it.
//!
//! Both runners execute the same `Scenario`:
//!
//! 1. `LocalRunner` — the synchronous `LocalCluster`: every region-
//!    targeted decision lands as real `AddNodeTxn`/`MigrationTxn`/
//!    `DeleteNodeTxn` transactions with the I0–I4 invariants asserted
//!    after every control step;
//! 2. `SimRunner` — the discrete-event `ClusterSim`: the same decisions
//!    play out against the paper's cross-region latency matrix, with
//!    per-region throughput and cost splits in the report.
//!
//! Run with: `cargo run --release --example geo_autoscale`
//! (`MARLIN_SCALE=<n>` shrinks the simulated granule count by `n`;
//! `MARLIN_REPORT_JSON=<path>` writes the reports — including the
//! per-region splits — as a JSON artifact.)

use marlin::cluster::harness::{
    maybe_write_json, run, LocalRunner, RunReport, Scenario, SimRunner,
};
use marlin::cluster::params::CoordKind;
use marlin::common::RegionId;
use marlin::sim::SECOND;
use marlin_bench::scale;

const REGION_NAMES: [&str; 4] = ["US West", "East Asia", "UK South", "Australia East"];

fn main() {
    let local_report = local_cluster_loop();
    let sim_report = cluster_sim_loop();
    maybe_write_json(&[local_report, sim_report]);
}

/// Part 1 — the synchronous runtime: region-targeted decisions become
/// real reconfiguration transactions, checked against the ownership
/// invariants at every step.
fn local_cluster_loop() -> RunReport {
    println!("== LocalCluster geo closed loop (synchronous, invariant-checked) ==\n");
    let scenario = Scenario::geo_autoscale(CoordKind::Marlin, 64);
    let mut runner = LocalRunner::new(&scenario);
    let report = run(scenario, &mut runner);

    println!(
        "{:>6} {:>7} {:>24} {:>12}",
        "tick", "nodes", "per-region nodes", "action"
    );
    for rec in &report.log {
        let per_region: Vec<String> = rec
            .observation
            .regions
            .iter()
            .map(|r| r.live_nodes.to_string())
            .collect();
        println!(
            "{:>5}s {:>7} {:>24} {:>12}",
            rec.at / SECOND,
            rec.observation.live_nodes,
            format!("[{}]", per_region.join(" ")),
            rec.action
                .as_ref()
                .map_or("-".to_string(), marlin::cluster::harness::action_signature),
        );
    }
    assert_eq!(
        report.metrics.live_nodes, 8,
        "every region must drain back to its 2-node floor"
    );
    for r in 0..4u16 {
        assert_eq!(report.metrics.region(r).map(|b| b.live_nodes), Some(2));
    }
    runner.harness().cluster.assert_invariants();
    println!("\nall region-targeted reconfigurations preserved exclusive ownership (I0)\n");
    report
}

/// Part 2 — the discrete-event simulator: the same policy under the
/// cross-region latency matrix, with the per-region split reported.
fn cluster_sim_loop() -> RunReport {
    println!("== ClusterSim geo closed loop (4 regions, region 1 spikes 2x) ==\n");
    let scenario = Scenario::geo_autoscale(CoordKind::Marlin, 40_000 / scale().max(10));
    let mut runner = SimRunner::new(&scenario);
    let report = run(scenario, &mut runner);

    println!("controller decision log (from the RunReport):");
    for rec in report.actions() {
        println!(
            "  t={:>3}s  {}  (actuated in {}µs)",
            rec.at / SECOND,
            rec.action
                .as_ref()
                .map(marlin::cluster::harness::action_signature)
                .unwrap_or_default(),
            rec.actuation_micros,
        );
    }

    // The acceptance bar: only the hot region scales, drains stay
    // region-local, and the report carries the per-region split.
    let mut hot_adds = 0;
    for rec in report.actions() {
        if let Some(marlin::autoscaler::ScaleAction::AddNodes { region, .. }) = &rec.action {
            assert_eq!(
                *region,
                Some(RegionId(1)),
                "scale-outs must target the hot region only"
            );
            hot_adds += 1;
        }
    }
    assert!(hot_adds >= 1, "the spike must provoke a scale-out");
    assert_eq!(report.metrics.live_nodes, 8, "calm drains back to 2/region");

    println!("\nper-region split (end of run):");
    println!(
        "{:>16} {:>6} {:>10} {:>10} {:>10}",
        "region", "nodes", "commits", "tps", "db cost"
    );
    let horizon_s = report.horizon as f64 / SECOND as f64;
    for b in &report.metrics.region_breakdown {
        println!(
            "{:>16} {:>6} {:>10} {:>10.0} {:>9.4}$",
            REGION_NAMES[b.region as usize],
            b.live_nodes,
            b.commits,
            b.commits as f64 / horizon_s,
            b.db_cost,
        );
        assert_eq!(b.live_nodes, 2, "every region ends at its floor");
    }
    let hot = report.metrics.region(1).expect("hot region breakdown");
    let idle = report.metrics.region(2).expect("idle region breakdown");
    assert!(
        hot.commits > idle.commits && hot.db_cost > idle.db_cost,
        "the spike region must both commit and cost more"
    );

    // Region-local drains: region-1-homed granules end on region-1 nodes.
    let owners = runner.sim().owners();
    let r1_nodes: Vec<u32> = runner
        .sim()
        .live_nodes_by_region()
        .into_iter()
        .filter(|&(_, r)| r == RegionId(1))
        .map(|(n, _)| n)
        .collect();
    assert!(
        runner
            .sim()
            .region_granules(RegionId(1))
            .all(|g| r1_nodes.contains(&owners[g as usize])),
        "drained granules must stay in their home region"
    );

    println!("\npeak nodes:       {}", report.peak_nodes());
    println!("final nodes:      {}", report.metrics.live_nodes);
    println!("total migrations: {}", report.metrics.migrations);
    println!("committed txns:   {}", report.metrics.commits);
    println!(
        "total cost:       ${:.4} (Meta Cost: ${:.4})",
        report.metrics.total_cost, report.metrics.meta_cost
    );
    report
}
