//! The paper's failover story (§4.4.2, Figure 7), executed end-to-end:
//! heartbeat suspicion → RecoveryMigrTxn committing to the dead node's
//! GLog → the recovered node's stale transaction aborting during
//! MarlinCommit → cache refresh discovering the lost granules →
//! DeleteNodeTxn — plus the Cornus-style termination protocol for
//! transactions left in doubt by an ill-timed crash.

use bytes::Bytes;
use marlin::common::{
    ClusterConfig, CoordError, GranuleId, GranuleLayout, KeyRange, LogId, NodeId, TableId, TxnError,
};
use marlin::core::failure::{DetectorConfig, RingDetector};
use marlin::core::LocalCluster;

const TABLE: TableId = TableId(0);

fn config(nodes: u32, granules: u64) -> ClusterConfig {
    ClusterConfig {
        initial_nodes: (0..nodes).map(NodeId).collect(),
        tables: vec![GranuleLayout::uniform(
            TABLE,
            KeyRange::new(0, granules * 100),
            granules,
            64 * 1024,
            1024,
        )],
        ..ClusterConfig::default()
    }
}

/// The full Figure 7 walkthrough.
#[test]
fn figure7_failover_and_recovery_race() {
    // Three nodes; node 2 owns granules 6..9 (keys [600, 900)).
    let mut cluster = LocalCluster::bootstrap(&config(3, 9));
    cluster
        .user_txn(
            NodeId(2),
            TABLE,
            &[],
            &[(650, Bytes::from_static(b"durable"))],
        )
        .unwrap();

    // Step 1: N1's ring detector times out on N2.
    let mut detector = RingDetector::new(
        NodeId(1),
        DetectorConfig {
            fanout: 1,
            miss_threshold: 3,
        },
    );
    cluster.refresh_mtable(NodeId(1));
    detector.update_membership(cluster.node(NodeId(1)).marlin.mtable());
    assert_eq!(detector.monitored(), vec![NodeId(2)]);
    cluster.kill(NodeId(2));
    for _ in 0..4 {
        let targets = detector.tick();
        // Heartbeats to a dead node get no ack.
        assert!(targets.contains(&NodeId(2)));
    }
    assert_eq!(detector.take_suspicions(), vec![NodeId(2)]);

    // Step 2: N1 runs RecoveryMigrTxn for N2's granules. The commit lands
    // on BOTH GLog(1) and GLog(2) even though N2 is unresponsive.
    let victims = vec![GranuleId(6), GranuleId(7), GranuleId(8)];
    cluster
        .recovery_migrate(NodeId(1), NodeId(2), victims.clone())
        .unwrap();
    cluster.assert_invariants();
    for g in &victims {
        assert!(cluster.node(NodeId(1)).marlin.owned_granules().contains(g));
    }

    // The data survived: N1 recovered the rows from the shared page store.
    let reads = cluster.user_txn(NodeId(1), TABLE, &[650], &[]).unwrap();
    assert_eq!(reads[0], Some(Bytes::from_static(b"durable")));

    // Step 3: N2 comes back (it was merely slow) and tries a user
    // transaction on granule 6. Its MarlinCommit CAS on GLog(2) fails
    // because the recovery advanced the log; the txn aborts.
    cluster.revive(NodeId(2));
    for g in &victims {
        assert!(cluster.node(NodeId(2)).data.holds(TABLE, *g), "stale rows");
    }
    let err = cluster
        .user_txn(
            NodeId(2),
            TABLE,
            &[],
            &[(660, Bytes::from_static(b"stale-write"))],
        )
        .unwrap_err();
    assert!(
        matches!(err, TxnError::CommitConflict { .. }),
        "the stale write must abort during MarlinCommit, got {err}"
    );
    // The error carries the LSN the failed CAS found GLog(2) at: the
    // install batch, the first write, and the recovery's record.
    let glog2 = LogId::GLog(NodeId(2));
    let end = cluster.storage().end_lsn(glog2).unwrap();
    assert_eq!(
        err,
        TxnError::CommitConflict {
            log: glog2,
            current: end
        }
    );
    assert!(end > marlin::common::Lsn::ZERO);
    // Abort path: the refresh evicted the rows of every lost granule.
    for g in &victims {
        assert!(!cluster.node(NodeId(2)).data.holds(TABLE, *g));
    }
    // The abort invalidated and refreshed N2's partition cache: it now
    // knows it lost the granules, so the next request gets a redirect.
    let err = cluster.user_txn(NodeId(2), TABLE, &[660], &[]).unwrap_err();
    assert_eq!(
        err,
        TxnError::WrongNode {
            granule: GranuleId(6),
            owner: NodeId(1)
        }
    );
    // And the stale write never became visible at the new owner.
    let reads = cluster.user_txn(NodeId(1), TABLE, &[660], &[]).unwrap();
    assert_eq!(reads[0], None);

    // Step 4: N1 removes N2 from the membership.
    cluster.delete_node(NodeId(1), NodeId(2)).unwrap();
    cluster.refresh_mtable(NodeId(0));
    assert_eq!(
        cluster.node(NodeId(0)).marlin.mtable().scan(),
        vec![NodeId(0), NodeId(1)]
    );
    cluster.assert_invariants();
}

/// The other entry point: a failed TryLog elsewhere (a vote request, a
/// reconfiguration the node coordinates) only invalidates the partition
/// cache — ClearMetaCache — and the next request refetches it
/// (`ensure_gtable_fresh`), evicting the rows of the granules lost
/// meanwhile, and only those.
#[test]
fn figure7_invalidated_cache_evicts_lost_rows_on_next_request() {
    let mut cluster = LocalCluster::bootstrap(&config(3, 9));
    cluster
        .user_txn(NodeId(2), TABLE, &[], &[(650, Bytes::from_static(b"v"))])
        .unwrap();
    cluster.kill(NodeId(2));
    let victims = [GranuleId(6), GranuleId(7)];
    cluster
        .recovery_migrate(NodeId(1), NodeId(2), victims.to_vec())
        .unwrap();
    cluster.revive(NodeId(2));
    cluster
        .node_mut(NodeId(2))
        .marlin
        .clear_meta_cache(LogId::GLog(NodeId(2)));
    for g in (6..9).map(GranuleId) {
        assert!(
            cluster.node(NodeId(2)).data.holds(TABLE, g),
            "not yet evicted"
        );
    }

    // The next request, a read, refetches the partition first.
    let err = cluster.user_txn(NodeId(2), TABLE, &[650], &[]).unwrap_err();
    assert_eq!(
        err,
        TxnError::WrongNode {
            granule: GranuleId(6),
            owner: NodeId(1)
        }
    );
    assert!(cluster.node(NodeId(2)).marlin.gtable_valid());
    for g in victims {
        assert!(!cluster.node(NodeId(2)).data.holds(TABLE, g));
    }
    assert!(cluster.node(NodeId(2)).data.holds(TABLE, GranuleId(8)));
    assert_eq!(
        cluster.node(NodeId(2)).marlin.owned_granules(),
        vec![GranuleId(8)]
    );
    // What it kept it still serves, and can hand over with its rows.
    cluster
        .user_txn(NodeId(2), TABLE, &[], &[(850, Bytes::from_static(b"w"))])
        .unwrap();
    cluster
        .migrate(NodeId(2), NodeId(0), TABLE, vec![GranuleId(8)])
        .unwrap();
    let reads = cluster.user_txn(NodeId(0), TABLE, &[850], &[]).unwrap();
    assert_eq!(reads[0], Some(Bytes::from_static(b"w")));
    cluster.assert_invariants();
}

/// Two nodes race to recover the same dead node's granules; the GLog CAS
/// lets exactly one win per granule.
#[test]
fn racing_recoveries_never_dual_own() {
    let mut cluster = LocalCluster::bootstrap(&config(3, 9));
    cluster.kill(NodeId(2));
    let r0 = cluster.recovery_migrate(NodeId(0), NodeId(2), vec![GranuleId(6)]);
    let r1 = cluster.recovery_migrate(NodeId(1), NodeId(2), vec![GranuleId(6)]);
    // The first recovery wins; the second must fail its data-effectiveness
    // check (refreshed view shows the granule already moved) or its CAS.
    assert!(r0.is_ok());
    assert!(
        r1.is_err(),
        "second recovery must not also claim the granule"
    );
    cluster.assert_invariants();
    assert!(cluster
        .node(NodeId(0))
        .marlin
        .owned_granules()
        .contains(&GranuleId(6)));
    assert!(!cluster
        .node(NodeId(1))
        .marlin
        .owned_granules()
        .contains(&GranuleId(6)));
}

/// A recovered node whose *read-only* traffic resumes: reads don't commit
/// anything, so the ownership discovery happens via the guard after the
/// first failed write refreshes the cache.
#[test]
fn recovered_node_reads_stale_until_first_commit_attempt() {
    let mut cluster = LocalCluster::bootstrap(&config(2, 8));
    cluster.kill(NodeId(1));
    cluster
        .recovery_migrate(NodeId(0), NodeId(1), vec![GranuleId(4)])
        .unwrap();
    cluster.revive(NodeId(1));
    // N1 still thinks it owns granule 4 (stale cache) and will serve a
    // read — this is the documented weak spot that the paper closes on
    // the *write* path: the commit CAS catches it.
    let stale_read = cluster.user_txn(NodeId(1), TABLE, &[450], &[]);
    assert!(
        stale_read.is_ok(),
        "read-only traffic does not touch the log"
    );
    let err = cluster
        .user_txn(NodeId(1), TABLE, &[], &[(450, Bytes::from_static(b"x"))])
        .unwrap_err();
    assert!(matches!(err, TxnError::CommitConflict { .. }));
    // Now the cache is fresh; even reads are redirected.
    let err = cluster.user_txn(NodeId(1), TABLE, &[450], &[]).unwrap_err();
    assert!(matches!(err, TxnError::WrongNode { .. }));
}

/// Delete of a dead node plus recovery of its data, in either order.
#[test]
fn delete_after_recovery_keeps_cluster_consistent() {
    let mut cluster = LocalCluster::bootstrap(&config(3, 6));
    cluster.kill(NodeId(0));
    cluster
        .recovery_migrate(NodeId(1), NodeId(0), vec![GranuleId(0)])
        .unwrap();
    cluster
        .recovery_migrate(NodeId(2), NodeId(0), vec![GranuleId(1)])
        .unwrap();
    cluster.delete_node(NodeId(1), NodeId(0)).unwrap();
    cluster.assert_invariants();
    cluster.refresh_mtable(NodeId(2));
    assert_eq!(
        cluster.node(NodeId(2)).marlin.mtable().scan(),
        vec![NodeId(1), NodeId(2)]
    );
}

/// The termination protocol: a migration's decision message is lost
/// because the source dies mid-commit; a third node resolves the in-doubt
/// transaction from the logs (Cornus-style, §4.3.2).
#[test]
fn termination_protocol_resolves_in_doubt_txns() {
    let mut cluster = LocalCluster::bootstrap(&config(3, 9));

    // Set up a prepared-but-undecided transaction on N0's GLog by hand:
    // run a migration whose decision delivery is suppressed by killing the
    // source right after its vote. We emulate the partial failure by
    // appending the prepared record directly (the runtime's synchronous
    // pump otherwise always completes).
    use marlin::common::TxnId;
    use marlin::core::records::{GRecord, OwnershipSwap};
    let txn = TxnId::new(NodeId(1), 4242);
    let swap = OwnershipSwap {
        table: TABLE,
        granule: GranuleId(0),
        range: KeyRange::new(0, 100),
        old: NodeId(0),
        new: NodeId(1),
    };
    let prepared = GRecord::Prepared {
        txn,
        swaps: vec![swap],
        participants: vec![LogId::GLog(NodeId(0)), LogId::GLog(NodeId(1))],
    };
    // N0 voted YES (prepared record in its log)...
    let end = cluster.storage().end_lsn(LogId::GLog(NodeId(0))).unwrap();
    cluster
        .storage()
        .conditional_append(LogId::GLog(NodeId(0)), vec![prepared.encode()], end)
        .unwrap();
    // ...but the coordinator N1 crashed before logging its own vote or any
    // decision. N0 then dies too; N2 finds the in-doubt txn.
    cluster.kill(NodeId(0));
    let resolved = cluster.resolve_in_doubt(NodeId(2), NodeId(0));
    assert_eq!(resolved, vec![txn]);

    // Not all participants voted YES ⇒ the termination rule aborts: the
    // swap must NOT have been applied anywhere.
    cluster.refresh_foreign(NodeId(2), NodeId(0));
    let p = cluster
        .node(NodeId(2))
        .marlin
        .foreign_partition(NodeId(0))
        .unwrap();
    assert_eq!(p.owner_of(GranuleId(0)), Some(NodeId(0)));
    assert!(p.in_doubt().is_empty(), "the txn must be resolved");
    cluster.assert_invariants();
}

/// Full-cluster churn: kill a node, recover, re-add it as a fresh member,
/// rebalance back. Ownership stays exclusive throughout.
#[test]
fn churn_cycle_kill_recover_readd_rebalance() {
    let mut cluster = LocalCluster::bootstrap(&config(3, 9));
    cluster.kill(NodeId(1));
    // Recover all of N1's granules onto N0.
    cluster
        .recovery_migrate(
            NodeId(0),
            NodeId(1),
            vec![GranuleId(3), GranuleId(4), GranuleId(5)],
        )
        .unwrap();
    cluster.delete_node(NodeId(0), NodeId(1)).unwrap();
    cluster.assert_invariants();

    // The node returns as a fresh member (new identity in practice; same
    // id is fine once deleted).
    cluster.revive(NodeId(1));
    // Its stale state gets repaired on the first commit attempt...
    let _ = cluster.user_txn(NodeId(1), TABLE, &[], &[(350, Bytes::from_static(b"z"))]);
    // ...and it rejoins.
    cluster
        .add_node(NodeId(1), "10.0.0.1-rejoined".into())
        .unwrap();
    cluster
        .migrate(NodeId(0), NodeId(1), TABLE, vec![GranuleId(3)])
        .unwrap();
    cluster.assert_invariants();
    assert!(cluster
        .node(NodeId(1))
        .marlin
        .owned_granules()
        .contains(&GranuleId(3)));
    // And serves traffic again.
    cluster
        .user_txn(NodeId(1), TABLE, &[], &[(350, Bytes::from_static(b"back"))])
        .unwrap();
    let reads = cluster.user_txn(NodeId(1), TABLE, &[350], &[]).unwrap();
    assert_eq!(reads[0], Some(Bytes::from_static(b"back")));
}

/// Recovery fails cleanly when the "dead" node was already drained.
#[test]
fn recovery_of_already_recovered_granule_fails_effectiveness_check() {
    let mut cluster = LocalCluster::bootstrap(&config(3, 9));
    cluster.kill(NodeId(2));
    cluster
        .recovery_migrate(NodeId(0), NodeId(2), vec![GranuleId(6)])
        .unwrap();
    let err = cluster
        .recovery_migrate(NodeId(1), NodeId(2), vec![GranuleId(6)])
        .unwrap_err();
    assert!(matches!(err, CoordError::WrongOwner { .. }), "got {err}");
}
