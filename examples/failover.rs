//! Failover without an external coordination service: the paper's
//! Figure 7 walkthrough, end to end — first step by step on the raw
//! protocol, then as a one-line fault injection through the unified
//! experiment harness.
//!
//! N3 goes silent; N1 runs a `RecoveryMigrTxn` that commits on the *dead
//! node's* GLog (the log is a MarlinCommit participant — the heart of
//! §4.4.2); N3 then comes back and its stale write is caught by the
//! conditional append.
//!
//! Run with: `cargo run --example failover`

use bytes::Bytes;
use marlin::cluster::harness::{run, Fault, LocalRunner, Scenario, SimRunner};
use marlin::cluster::params::CoordKind;
use marlin::cluster::sim::Workload;
use marlin::common::{
    ClusterConfig, GranuleId, GranuleLayout, KeyRange, NodeId, TableId, TxnError,
};
use marlin::core::LocalCluster;
use marlin::sim::SECOND;
use marlin::workload::LoadTrace;

const TABLE: TableId = TableId(0);

fn main() {
    protocol_walkthrough();
    harness_fault_injection();
}

/// Part 1 — the raw protocol, step by step.
fn protocol_walkthrough() {
    println!("== Figure 7 walkthrough (raw protocol) ==\n");
    let config = ClusterConfig {
        initial_nodes: vec![NodeId(1), NodeId(2), NodeId(3)],
        tables: vec![GranuleLayout::uniform(
            TABLE,
            KeyRange::new(0, 900),
            9,
            64 * 1024,
            1024,
        )],
        ..ClusterConfig::default()
    };
    let mut cluster = LocalCluster::bootstrap(&config);
    cluster
        .user_txn(
            NodeId(3),
            TABLE,
            &[],
            &[(650, Bytes::from_static(b"survives the crash"))],
        )
        .unwrap();
    println!(
        "N3 owns {:?} and holds key 650",
        cluster.node(NodeId(3)).marlin.owned_granules()
    );

    // 1. N3 becomes unresponsive.
    cluster.kill(NodeId(3));
    println!("N3 goes silent");

    // 2. RecoveryMigrTxn: N1 takes over N3's granules, committing to both
    //    GLog(N1) and GLog(N3) even though N3 cannot respond.
    cluster
        .recovery_migrate(
            NodeId(1),
            NodeId(3),
            vec![GranuleId(6), GranuleId(7), GranuleId(8)],
        )
        .expect("recovery commits on the dead node's log");
    println!(
        "\nRecoveryMigrTxn committed; N1 now owns {:?}",
        cluster.node(NodeId(1)).marlin.owned_granules()
    );
    let reads = cluster.user_txn(NodeId(1), TABLE, &[650], &[]).unwrap();
    println!(
        "N1 recovered key 650 from the shared page store: {:?}",
        reads[0]
            .as_ref()
            .map(|b| String::from_utf8_lossy(b).into_owned())
    );

    // 3. N3 was only slow — it comes back and tries a write. Its H-LSN
    //    for GLog(N3) is stale, so MarlinCommit's Append@LSN fails; the
    //    node invalidates its GTable cache, refreshes, and discovers it
    //    lost the granules.
    cluster.revive(NodeId(3));
    let err = cluster
        .user_txn(
            NodeId(3),
            TABLE,
            &[],
            &[(660, Bytes::from_static(b"stale write"))],
        )
        .unwrap_err();
    println!("\nrecovered N3's write aborts during MarlinCommit: {err}");
    assert!(matches!(err, TxnError::CommitConflict { .. }));
    let err = cluster.user_txn(NodeId(3), TABLE, &[660], &[]).unwrap_err();
    println!("after its cache refresh, N3 redirects: {err}");

    // 4. N1 removes N3 from the membership.
    cluster.delete_node(NodeId(1), NodeId(3)).unwrap();
    cluster.refresh_mtable(NodeId(2));
    println!(
        "\nmembership after DeleteNodeTxn: {:?}",
        cluster.node(NodeId(2)).marlin.mtable().scan()
    );
    cluster.assert_invariants();
    println!("exclusive-granule-ownership invariant holds ✓\n");
}

/// Part 2 — the same failure as a declarative `Scenario`: one
/// `Fault::Crash` injected mid-run, on both runners.
fn harness_fault_injection() {
    println!("== The same crash through the unified harness ==\n");
    let scenario = || {
        Scenario::new("failover")
            .backend(CoordKind::Marlin)
            .workload(Workload::ycsb(600))
            .trace(LoadTrace::constant(20))
            .initial_nodes(3)
            .duration(20 * SECOND)
            .faults(vec![(5 * SECOND, Fault::Crash(NodeId(1)))])
    };

    // Synchronous runtime: the crash runs the full §4.4.2 recovery
    // (kill → one RecoveryMigrTxn on the dead GLog per destination, the
    // orphans placed as a drain would place them → DeleteNodeTxn), with
    // I0–I4 asserted afterwards.
    let s = scenario().workload(Workload::ycsb(9));
    let mut local = LocalRunner::new(&s);
    let local_report = run(s, &mut local);
    println!(
        "local-cluster: {} -> {} members, {} granules recovered by RecoveryMigrTxn",
        3, local_report.metrics.live_nodes, local_report.metrics.migrations
    );
    assert_eq!(local_report.metrics.live_nodes, 2);

    // Simulator: the recovery storm drains the victim at migration speed
    // while user transactions keep committing.
    let s = scenario();
    let mut sim = SimRunner::new(&s);
    let sim_report = run(s, &mut sim);
    println!(
        "cluster-sim:   {} -> {} nodes, {} migrations, {} commits around the failure",
        3, sim_report.metrics.live_nodes, sim_report.metrics.migrations, sim_report.metrics.commits
    );
    assert_eq!(sim_report.metrics.live_nodes, 2);
    assert!(sim.sim().owners().iter().all(|&o| o != 1));
    println!("\nboth runners agree: the dead node's granules ended on survivors ✓");
}
