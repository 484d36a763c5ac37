//! End-to-end coordination tests over the synchronous runtime: bootstrap,
//! membership, live migration (the paper's Figure 6 scale-out walkthrough),
//! routing, and the invariants of §4.5.

use bytes::Bytes;
use marlin::common::{
    ClusterConfig, GranuleId, GranuleLayout, KeyRange, NodeId, TableId, TxnError,
};
use marlin::core::router::Router;
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

#[test]
fn bootstrap_assigns_all_granules() {
    let cluster = LocalCluster::bootstrap(&config(2, 8));
    cluster.assert_invariants();
    assert_eq!(cluster.node(NodeId(0)).marlin.owned_granules().len(), 4);
    assert_eq!(cluster.node(NodeId(1)).marlin.owned_granules().len(), 4);
    assert_eq!(cluster.node(NodeId(0)).data.count(), 4);
}

#[test]
fn user_txns_read_their_writes() {
    let mut cluster = LocalCluster::bootstrap(&config(2, 8));
    // Key 150 lives in granule 1 (range [100, 200)), owned by node 0.
    cluster
        .user_txn(
            NodeId(0),
            TABLE,
            &[],
            &[(150, Bytes::from_static(b"hello"))],
        )
        .unwrap();
    let reads = cluster
        .user_txn(NodeId(0), TABLE, &[150, 151], &[])
        .unwrap();
    assert_eq!(reads[0], Some(Bytes::from_static(b"hello")));
    assert_eq!(reads[1], None);
}

/// Keys in granules A, A, B, A: three granule runs, so three GTable-entry
/// acquisitions beside the four row locks, for the writes and again for
/// the reads that see them.
#[test]
fn granule_runs_read_their_writes() {
    let mut cluster = LocalCluster::bootstrap(&config(2, 8));
    // Granules 1 (keys [100, 200)) and 2 ([200, 300)) belong to node 0.
    let keys = [110u64, 120, 250, 130];
    let writes: Vec<(u64, Bytes)> = keys
        .iter()
        .map(|&k| (k, Bytes::from(k.to_le_bytes().to_vec())))
        .collect();
    let locks = |c: &LocalCluster| c.node(NodeId(0)).locks.acquisitions();
    let before = locks(&cluster);
    cluster.user_txn(NodeId(0), TABLE, &[], &writes).unwrap();
    assert_eq!(locks(&cluster) - before, 3 + 4);
    let before = locks(&cluster);
    let reads = cluster.user_txn(NodeId(0), TABLE, &keys, &[]).unwrap();
    assert_eq!(locks(&cluster) - before, 3 + 4);
    let expected: Vec<Option<Bytes>> = writes.into_iter().map(|(_, v)| Some(v)).collect();
    assert_eq!(reads, expected);
    assert_eq!(cluster.node(NodeId(0)).locks.active_locks(), 0);
}

/// The same keys once B has moved to node 1: the run over A locks its
/// GTable entry and two rows, B's guard refuses with the owner it handed
/// B to, and every lock is released.
#[test]
fn granule_runs_stop_at_the_first_foreign_granule() {
    let mut cluster = LocalCluster::bootstrap(&config(2, 8));
    cluster
        .migrate(NodeId(0), NodeId(1), TABLE, vec![GranuleId(2)])
        .unwrap();
    let before = cluster.node(NodeId(0)).locks.acquisitions();
    let err = cluster
        .user_txn(
            NodeId(0),
            TABLE,
            &[110, 120],
            &[
                (250, Bytes::from_static(b"b")),
                (130, Bytes::from_static(b"a")),
            ],
        )
        .unwrap_err();
    assert_eq!(
        err,
        TxnError::WrongNode {
            granule: GranuleId(2),
            owner: NodeId(1)
        }
    );
    let rt = cluster.node(NodeId(0));
    assert_eq!(rt.locks.acquisitions() - before, 1 + 2);
    assert_eq!(rt.locks.active_locks(), 0);
}

/// A granule the GTable gives the node but whose rows it does not hold
/// answers a read with `WrongNode` and no owner hint.
#[test]
fn missing_granule_is_wrong_node() {
    let mut cluster = LocalCluster::bootstrap(&config(2, 8));
    cluster.node_mut(NodeId(0)).data.remove(TABLE, GranuleId(1));
    let err = cluster.user_txn(NodeId(0), TABLE, &[150], &[]).unwrap_err();
    assert_eq!(
        err,
        TxnError::WrongNode {
            granule: GranuleId(1),
            owner: NodeId(u32::MAX)
        }
    );
    assert_eq!(cluster.node(NodeId(0)).locks.active_locks(), 0);
}

#[test]
fn wrong_node_requests_are_redirected() {
    let mut cluster = LocalCluster::bootstrap(&config(2, 8));
    // Granule 7 (keys [700, 800)) belongs to node 1; ask node 0.
    let err = cluster.user_txn(NodeId(0), TABLE, &[750], &[]).unwrap_err();
    match err {
        TxnError::WrongNode { granule, .. } => assert_eq!(granule, GranuleId(7)),
        other => panic!("expected WrongNode, got {other}"),
    }
}

#[test]
fn scale_out_migrates_and_serves_at_destination() {
    // The Figure 6 walkthrough: N2 owns [100, 300); after scale-out a new
    // node takes over the upper half and serves it with warm data.
    let mut cluster = LocalCluster::bootstrap(&config(2, 8));
    cluster
        .user_txn(
            NodeId(1),
            TABLE,
            &[],
            &[(450, Bytes::from_static(b"precious"))],
        )
        .unwrap();

    // Membership update: the new node adds itself (AddNodeTxn).
    cluster.add_node(NodeId(2), "10.0.0.2".into()).unwrap();
    // Live migration: granules 4 and 5 move from node 1 to node 2.
    cluster
        .migrate(
            NodeId(1),
            NodeId(2),
            TABLE,
            vec![GranuleId(4), GranuleId(5)],
        )
        .unwrap();
    cluster.assert_invariants();

    // Old owner rejects with a redirect to the new owner.
    let err = cluster.user_txn(NodeId(1), TABLE, &[450], &[]).unwrap_err();
    assert_eq!(
        err,
        TxnError::WrongNode {
            granule: GranuleId(4),
            owner: NodeId(2)
        }
    );

    // New owner serves the warmed-up data.
    let reads = cluster.user_txn(NodeId(2), TABLE, &[450], &[]).unwrap();
    assert_eq!(reads[0], Some(Bytes::from_static(b"precious")));
}

#[test]
fn migration_aborts_under_user_lock_then_succeeds() {
    // NO_WAIT: a user transaction holding the granule lock aborts the
    // migration, not the other way around. Our synchronous user txns
    // release locks at completion, so emulate the conflict by holding an
    // explicit granule lock.
    use marlin::engine::{LockMode, LockTarget};
    let mut cluster = LocalCluster::bootstrap(&config(2, 8));
    let blocker = marlin::common::TxnId::new(NodeId(1), 999);
    cluster
        .node(NodeId(1))
        .locks
        .try_lock(
            blocker,
            LockTarget::GTableEntry {
                granule: GranuleId(4),
            },
            LockMode::Shared,
        )
        .unwrap();
    let err = cluster
        .migrate(NodeId(1), NodeId(0), TABLE, vec![GranuleId(4)])
        .unwrap_err();
    assert!(
        matches!(err, marlin::common::CoordError::Aborted(_)),
        "got {err}"
    );
    cluster.assert_invariants();

    // After the user transaction finishes, migration goes through.
    cluster.node(NodeId(1)).locks.release_all(blocker);
    cluster
        .migrate(NodeId(1), NodeId(0), TABLE, vec![GranuleId(4)])
        .unwrap();
    cluster.assert_invariants();
    assert!(cluster
        .node(NodeId(0))
        .marlin
        .owned_granules()
        .contains(&GranuleId(4)));
}

#[test]
fn migration_with_wrong_source_fails_data_effectiveness() {
    let mut cluster = LocalCluster::bootstrap(&config(2, 8));
    // Granule 0 belongs to node 0, not node 1.
    let err = cluster
        .migrate(NodeId(1), NodeId(0), TABLE, vec![GranuleId(0)])
        .unwrap_err();
    assert!(
        matches!(err, marlin::common::CoordError::WrongOwner { .. }),
        "got {err}"
    );
    cluster.assert_invariants();
}

#[test]
fn scan_gtable_feeds_router() {
    let mut cluster = LocalCluster::bootstrap(&config(3, 9));
    cluster
        .migrate(NodeId(0), NodeId(2), TABLE, vec![GranuleId(1)])
        .unwrap();
    let entries = cluster.scan_gtable(NodeId(1)).unwrap();
    let mut router = Router::new();
    router.install_scan(&entries);
    assert_eq!(router.route(GranuleId(1)), Some(NodeId(2)));
    assert_eq!(router.route(GranuleId(0)), Some(NodeId(0)));
    assert_eq!(router.route(GranuleId(8)), Some(NodeId(2)));
}

#[test]
fn router_absorbs_redirects_from_misrouted_requests() {
    let mut cluster = LocalCluster::bootstrap(&config(2, 8));
    let mut router = Router::new();
    router.install_scan(&cluster.scan_gtable(NodeId(0)).unwrap());
    // Ownership moves; the router is now stale.
    cluster
        .migrate(NodeId(0), NodeId(1), TABLE, vec![GranuleId(2)])
        .unwrap();
    let stale = router.route(GranuleId(2)).unwrap();
    assert_eq!(stale, NodeId(0));
    // The misrouted request aborts with the owner hint; the router learns.
    let err = cluster.user_txn(stale, TABLE, &[250], &[]).unwrap_err();
    let TxnError::WrongNode { granule, owner } = err else {
        panic!("expected WrongNode")
    };
    router.redirect(granule, owner);
    assert_eq!(router.route(GranuleId(2)), Some(NodeId(1)));
    // Retry at the new owner succeeds.
    cluster.user_txn(NodeId(1), TABLE, &[250], &[]).unwrap();
}

#[test]
fn concurrent_membership_changes_serialize_via_syslog() {
    // Several nodes join and one leaves; the SysLog CAS serializes all of
    // it and every node converges to the same MTable after refresh.
    let mut cluster = LocalCluster::bootstrap(&config(2, 8));
    cluster.add_node(NodeId(2), "n2".into()).unwrap();
    cluster.add_node(NodeId(3), "n3".into()).unwrap();
    cluster.delete_node(NodeId(0), NodeId(3)).unwrap();
    for id in [0u32, 1, 2] {
        cluster.refresh_mtable(NodeId(id));
        let m = cluster.node(NodeId(id)).marlin.mtable();
        assert_eq!(m.scan(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }
    // Double-add is rejected by the data-effectiveness check.
    let err = cluster.add_node(NodeId(2), "dup".into()).unwrap_err();
    assert_eq!(err, marlin::common::CoordError::NodeAlreadyExist(NodeId(2)));
}

#[test]
fn chained_migrations_preserve_ownership_invariant() {
    let mut cluster = LocalCluster::bootstrap(&config(3, 12));
    // Shuffle granules around repeatedly; the invariant must hold after
    // every step (migration never duplicates or loses a granule).
    let moves = [
        (0u32, 1u32, 0u64),
        (1, 2, 0),
        (2, 0, 0),
        (1, 0, 5),
        (2, 1, 8),
        (0, 2, 1),
        (0, 1, 0),
    ];
    for (src, dst, g) in moves {
        cluster
            .migrate(NodeId(src), NodeId(dst), TABLE, vec![GranuleId(g)])
            .unwrap();
        cluster.assert_invariants();
    }
}
