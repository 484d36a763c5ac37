//! Property-based tests over the full coordination stack: random
//! interleavings of migrations, recoveries, failures, revivals, and user
//! transactions must always preserve the paper's §4.5 invariants, with the
//! ownership state reconstructed from the logs (the ground truth).

use bytes::Bytes;
use marlin::common::{
    ClusterConfig, CoordError, GranuleId, GranuleLayout, KeyRange, NodeId, TableId, TxnError,
};
use marlin::core::LocalCluster;
use proptest::prelude::*;
use std::collections::BTreeMap;

const TABLE: TableId = TableId(0);
const NODES: u32 = 4;
const GRANULES: u64 = 12;

#[derive(Clone, Debug)]
enum Op {
    Migrate { src: u8, dst: u8, granule: u8 },
    Kill { node: u8 },
    Revive { node: u8 },
    Recover { dst: u8, src: u8, granule: u8 },
    Write { node: u8, key_slot: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NODES as u8, 0..NODES as u8, 0..GRANULES as u8)
            .prop_map(|(src, dst, granule)| Op::Migrate { src, dst, granule }),
        (0..NODES as u8).prop_map(|node| Op::Kill { node }),
        (0..NODES as u8).prop_map(|node| Op::Revive { node }),
        (0..NODES as u8, 0..NODES as u8, 0..GRANULES as u8)
            .prop_map(|(dst, src, granule)| Op::Recover { dst, src, granule }),
        (0..NODES as u8, 0..120u8).prop_map(|(node, key_slot)| Op::Write { node, key_slot }),
    ]
}

fn cluster() -> LocalCluster {
    LocalCluster::bootstrap(&ClusterConfig {
        initial_nodes: (0..NODES).map(NodeId).collect(),
        tables: vec![GranuleLayout::uniform(
            TABLE,
            KeyRange::new(0, GRANULES * 10),
            GRANULES,
            64 * 1024,
            1024,
        )],
        ..ClusterConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Exclusive Granule Ownership (I0) holds after every operation of any
    /// random schedule, no matter which operations succeed or fail.
    #[test]
    fn random_schedules_preserve_exclusive_ownership(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut cluster = cluster();
        for op in ops {
            match op {
                Op::Migrate { src, dst, granule } => {
                    if src % NODES as u8 != dst % NODES as u8 {
                        let src = NodeId(u32::from(src % NODES as u8));
                        let dst = NodeId(u32::from(dst % NODES as u8));
                        // Live migration requires both ends responsive; the
                        // runtime returns an error otherwise — any outcome
                        // is fine as long as the invariant holds.
                        let _ = cluster.migrate(src, dst, TABLE, vec![GranuleId(u64::from(granule))]);
                    }
                }
                Op::Kill { node } => cluster.kill(NodeId(u32::from(node % NODES as u8))),
                Op::Revive { node } => cluster.revive(NodeId(u32::from(node % NODES as u8))),
                Op::Recover { dst, src, granule } => {
                    if src % NODES as u8 != dst % NODES as u8 {
                        let src = NodeId(u32::from(src % NODES as u8));
                        let dst = NodeId(u32::from(dst % NODES as u8));
                        let _ = cluster.recovery_migrate(dst, src, vec![GranuleId(u64::from(granule))]);
                    }
                }
                Op::Write { node, key_slot } => {
                    let node = NodeId(u32::from(node % NODES as u8));
                    let key = u64::from(key_slot) % (GRANULES * 10);
                    let _ = cluster.user_txn(node, TABLE, &[], &[(key, Bytes::from_static(b"w"))]);
                }
            }
            cluster.assert_invariants();
        }
    }

    /// Committed writes are never lost by subsequent reconfigurations:
    /// whatever sequence of migrations/recoveries happens, the current
    /// owner of a granule serves the last committed value.
    #[test]
    fn committed_writes_survive_reconfiguration(
        moves in proptest::collection::vec((0..NODES as u8, 0..NODES as u8, any::<bool>()), 1..12),
    ) {
        let mut cluster = cluster();
        let key = 55u64; // granule 5
        let granule = GranuleId(5);
        // Find the initial owner and commit a value.
        let owner = (0..NODES)
            .map(NodeId)
            .find(|n| cluster.node(*n).marlin.owned_granules().contains(&granule))
            .expect("granule has an owner");
        cluster.user_txn(owner, TABLE, &[], &[(key, Bytes::from_static(b"golden"))]).unwrap();

        for (src, dst, use_recovery) in moves {
            let src = NodeId(u32::from(src % NODES as u8));
            let dst = NodeId(u32::from(dst % NODES as u8));
            if src == dst {
                continue;
            }
            if use_recovery {
                cluster.kill(src);
                let _ = cluster.recovery_migrate(dst, src, vec![granule]);
                cluster.revive(src);
            } else {
                let _ = cluster.migrate(src, dst, TABLE, vec![granule]);
            }
            cluster.assert_invariants();
        }
        // Wherever the granule ended up, the value must be there: route
        // like a fresh client — ScanGTableTxn for the owner, then follow
        // any remaining WrongNode redirects (stale caches self-correct).
        let entries = cluster.scan_gtable(NodeId(0)).unwrap();
        let mut target = entries
            .iter()
            .find(|(g, _)| *g == granule)
            .map(|(_, meta)| meta.owner)
            .expect("scan locates the granule");
        let mut value = None;
        for _hop in 0..8 {
            match cluster.user_txn(target, TABLE, &[key], &[]) {
                Ok(reads) => {
                    value = Some(reads[0].clone());
                    break;
                }
                Err(marlin::common::TxnError::WrongNode { owner, .. })
                    if owner != NodeId(u32::MAX) =>
                {
                    target = owner;
                }
                Err(other) => panic!("unexpected error while routing: {other}"),
            }
        }
        prop_assert_eq!(value, Some(Some(Bytes::from_static(b"golden"))));
    }

    /// Membership churn (adds and deletes in any order) keeps every node's
    /// refreshed MTable identical — the SysLog is the single source of truth.
    #[test]
    fn membership_churn_converges(ops in proptest::collection::vec((4u32..10, any::<bool>()), 1..16)) {
        let mut cluster = cluster();
        for (node, add) in ops {
            if add {
                let _ = cluster.add_node(NodeId(node), format!("10.0.0.{node}"));
            } else {
                let _ = cluster.delete_node(NodeId(0), NodeId(node));
            }
        }
        cluster.refresh_mtable(NodeId(0));
        cluster.refresh_mtable(NodeId(1));
        let a = cluster.node(NodeId(0)).marlin.mtable().scan();
        let b = cluster.node(NodeId(1)).marlin.mtable().scan();
        prop_assert_eq!(a, b);
    }
}

/// One step of a `user_txn` script.
#[derive(Clone, Debug)]
enum Step {
    /// Reads then writes on `node`, each key `granule * 10 + offset` over
    /// one of the call's granules (offsets 0..4, so keys repeat).
    Txn {
        node: u8,
        granules: Vec<u8>,
        ops: Vec<(usize, u8, bool)>,
        read_only: bool,
    },
    /// Live-migrate `granule` from its owner to `dst`.
    Move { granule: u8, dst: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (
            0..NODES as u8,
            proptest::collection::vec(0..GRANULES as u8, 1..4),
            proptest::collection::vec((0..3usize, 0..4u8, any::<bool>()), 1..10),
            any::<bool>(),
        )
            .prop_map(|(node, granules, ops, read_only)| Step::Txn {
                node,
                granules,
                ops,
                read_only,
            }),
        (0..GRANULES as u8, 0..NODES as u8).prop_map(|(granule, dst)| Step::Move { granule, dst }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random `user_txn` scripts against a model of values and of each
    /// node's ownership view: every call's `Ok` reads or `Err` variant is
    /// the model's. A node refuses a granule with the owner it last handed
    /// it to, or with no hint if it never owned it.
    #[test]
    fn user_txn_matches_a_model_of_values_and_ownership(
        steps in proptest::collection::vec(step_strategy(), 1..30),
    ) {
        let mut cluster = cluster();
        let mut owner: BTreeMap<u64, NodeId> = BTreeMap::new();
        let mut hint: BTreeMap<(NodeId, u64), NodeId> = BTreeMap::new();
        for node in (0..NODES).map(NodeId) {
            for g in cluster.node(node).marlin.owned_granules() {
                owner.insert(g.0, node);
                hint.insert((node, g.0), node);
            }
        }
        let mut values: BTreeMap<u64, Bytes> = BTreeMap::new();
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Txn { node, granules, ops, read_only } => {
                    let node = NodeId(u32::from(node));
                    let mut reads = Vec::new();
                    let mut writes = Vec::new();
                    for (slot, offset, write) in ops {
                        let granule = u64::from(granules[slot % granules.len()]);
                        let key = granule * 10 + u64::from(offset);
                        if write && !read_only {
                            writes.push((key, Bytes::from(format!("{i}:{key}").into_bytes())));
                        } else {
                            reads.push(key);
                        }
                    }
                    let refused = reads
                        .iter()
                        .chain(writes.iter().map(|(key, _)| key))
                        .map(|key| key / 10)
                        .find_map(|granule| {
                            let owner = hint.get(&(node, granule)).copied().unwrap_or(NodeId(u32::MAX));
                            (owner != node).then_some(TxnError::WrongNode { granule: GranuleId(granule), owner })
                        });
                    let expected = match refused {
                        Some(e) => Err(e),
                        None => Ok(reads.iter().map(|key| values.get(key).cloned()).collect::<Vec<_>>()),
                    };
                    prop_assert_eq!(cluster.user_txn(node, TABLE, &reads, &writes), expected.clone());
                    if expected.is_ok() {
                        values.extend(writes);
                    }
                    prop_assert_eq!(cluster.node(node).locks.active_locks(), 0);
                }
                Step::Move { granule, dst } => {
                    let (granule, dst) = (u64::from(granule), NodeId(u32::from(dst)));
                    let src = owner[&granule];
                    if src != dst {
                        cluster.migrate(src, dst, TABLE, vec![GranuleId(granule)]).unwrap();
                        owner.insert(granule, dst);
                        hint.insert((src, granule), dst);
                        hint.insert((dst, granule), dst);
                    }
                }
            }
        }
    }
}

/// Deterministic regression: a recovery racing a live migration for the
/// same granule — exactly one wins, never both.
#[test]
fn recovery_vs_migration_race_has_one_winner() {
    let mut cluster = cluster();
    // Granule 0 lives on node 0. Kill node 0; start a recovery from node 1
    // while node 2 believes node 0 is still alive and attempts a live
    // migration (which needs node 0's vote — it times out).
    cluster.kill(NodeId(0));
    let recover = cluster.recovery_migrate(NodeId(1), NodeId(0), vec![GranuleId(0)]);
    let migrate = cluster.migrate(NodeId(0), NodeId(2), TABLE, vec![GranuleId(0)]);
    assert!(recover.is_ok());
    assert!(matches!(
        migrate,
        Err(CoordError::WrongOwner { .. }) | Err(CoordError::Aborted(_))
    ));
    cluster.assert_invariants();
    assert!(cluster
        .node(NodeId(1))
        .marlin
        .owned_granules()
        .contains(&GranuleId(0)));
}

/// Every control character, both characters JSON must escape, and
/// non-ASCII from two- to four-byte UTF-8.
const HARD_CHARS: &str = "\u{0}\u{1}\u{2}\u{3}\u{4}\u{5}\u{6}\u{7}\u{8}\t\n\u{b}\u{c}\r\u{e}\u{f}\
     \u{10}\u{11}\u{12}\u{13}\u{14}\u{15}\u{16}\u{17}\u{18}\u{19}\u{1a}\u{1b}\u{1c}\u{1d}\u{1e}\u{1f}\
     \"\\é€😀\u{7f}";

fn json_char() -> impl Strategy<Value = char> {
    let from = |lo: u32, hi: u32| (lo..hi).prop_map(|c| char::from_u32(c).unwrap_or('?'));
    prop_oneof![
        from(0, 0x20),
        Just('"'),
        Just('\\'),
        from(0x20, 0x7f),
        from(0x80, 0xd800),
        from(0xe000, 0x11_0000),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The codec reads back what it writes: any string exactly, any
    /// finite float bit for bit, and NaN/±inf as `null`.
    #[test]
    fn json_codec_round_trips_strings_and_floats(
        chars in proptest::collection::vec(json_char(), 0..24),
        bits in any::<u64>(),
        scaled in (0u64..2_000_000_000, 0u32..12),
    ) {
        use marlin_telemetry::json::{object, parse_json, Json};
        let text = format!("{HARD_CHARS}{}", chars.iter().collect::<String>());
        let floats = [
            f64::from_bits(bits),
            (scaled.0 as f64 - 1e9) / 10f64.powi(scaled.1 as i32),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut doc = String::new();
        object(&mut doc, |o| {
            o.field(&text, text.as_str());
            o.arr("floats", |a| {
                for f in floats {
                    a.item(f);
                }
            });
        });
        let back = parse_json(&doc).unwrap_or_else(|e| panic!("{e} in {doc:?}"));
        prop_assert_eq!(back.get(&text).and_then(Json::as_str), Some(text.as_str()));
        let read = back.get("floats").and_then(Json::as_arr).expect("floats");
        prop_assert_eq!(read.len(), floats.len());
        for (f, r) in floats.iter().zip(read) {
            if f.is_finite() {
                prop_assert_eq!(r.as_f64().map(f64::to_bits), Some(f.to_bits()), "{} in {}", f, doc);
            } else {
                prop_assert_eq!(r, &Json::Null);
            }
        }
    }
}
