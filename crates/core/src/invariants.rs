//! Executable correctness invariants (§4.5, Appendix A).
//!
//! The paper's central safety property is **Exclusive Granule Ownership**
//! (I0): at any time every granule has exactly one owner node, where node
//! `N` owns granule `G` iff `N.GTable[G].NodeID == N` (definition D1).
//! These checks run over a set of per-node partition views — exactly the
//! state the TLA+ spec models — and are asserted by unit tests, by the
//! integration suite, and periodically during simulations.

use crate::gtable::GTablePartition;
use marlin_common::{GranuleId, NodeId};
use std::collections::BTreeMap;

/// A violation of one of the invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// I2/"HasOneOwnership": no node's own partition claims the granule.
    NoOwner { granule: GranuleId },
    /// I3/"NoDualOwnership": two nodes' own partitions both claim it.
    DualOwner {
        granule: GranuleId,
        a: NodeId,
        b: NodeId,
    },
    /// A node's partition view disagrees with the owner's about a granule's
    /// key range (metadata corruption).
    RangeMismatch { granule: GranuleId },
}

/// Check Exclusive Granule Ownership over the nodes' own-partition views.
///
/// `views` maps each live node to its own GTable partition; `universe`
/// lists every granule that must have an owner. Returns all violations
/// (empty means the invariant holds).
#[must_use]
pub fn check_exclusive_ownership(
    views: &BTreeMap<NodeId, &GTablePartition>,
    universe: &[GranuleId],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut owners: BTreeMap<GranuleId, NodeId> = BTreeMap::new();
    for (&node, view) in views {
        for (granule, meta) in view.owned_by(node) {
            debug_assert_eq!(meta.owner, node);
            if let Some(prev) = owners.insert(granule, node) {
                violations.push(Violation::DualOwner {
                    granule,
                    a: prev,
                    b: node,
                });
            }
        }
    }
    for &g in universe {
        if !owners.contains_key(&g) {
            violations.push(Violation::NoOwner { granule: g });
        }
    }
    violations
}

/// Check that every view that has an entry for a granule agrees on its key
/// range (ranges are immutable; only ownership changes).
#[must_use]
pub fn check_range_agreement(views: &BTreeMap<NodeId, &GTablePartition>) -> Vec<Violation> {
    let mut ranges: BTreeMap<GranuleId, marlin_common::KeyRange> = BTreeMap::new();
    let mut violations = Vec::new();
    for view in views.values() {
        for (granule, meta) in view.scan() {
            match ranges.get(&granule) {
                None => {
                    ranges.insert(granule, meta.range);
                }
                Some(r) if *r == meta.range => {}
                Some(_) => violations.push(Violation::RangeMismatch { granule }),
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{GRecord, OwnershipSwap};
    use marlin_common::{KeyRange, Lsn, TableId, TxnId};

    fn install(g: u64, owner: u32) -> GRecord {
        GRecord::Install {
            table: TableId(0),
            granule: GranuleId(g),
            range: KeyRange::new(g * 10, (g + 1) * 10),
            owner: NodeId(owner),
        }
    }

    fn swap(g: u64, old: u32, new: u32) -> GRecord {
        GRecord::OnePhase {
            txn: TxnId(g),
            swaps: vec![OwnershipSwap {
                table: TableId(0),
                granule: GranuleId(g),
                range: KeyRange::new(g * 10, (g + 1) * 10),
                old: NodeId(old),
                new: NodeId(new),
            }],
        }
    }

    #[test]
    fn healthy_cluster_passes() {
        let mut p0 = GTablePartition::new();
        p0.apply(Lsn(1), &install(0, 0));
        let mut p1 = GTablePartition::new();
        p1.apply(Lsn(1), &install(1, 1));
        let views = BTreeMap::from([(NodeId(0), &p0), (NodeId(1), &p1)]);
        assert!(check_exclusive_ownership(&views, &[GranuleId(0), GranuleId(1)]).is_empty());
        assert!(check_range_agreement(&views).is_empty());
    }

    #[test]
    fn post_migration_forwarding_entries_do_not_trip_the_check() {
        // After G0 moves 0→1: node 0 keeps a forwarding entry (owner=1);
        // only node 1's own claim counts.
        let mut p0 = GTablePartition::new();
        p0.apply(Lsn(1), &install(0, 0));
        p0.apply(Lsn(2), &swap(0, 0, 1));
        let mut p1 = GTablePartition::new();
        p1.apply(Lsn(1), &swap(0, 0, 1));
        let views = BTreeMap::from([(NodeId(0), &p0), (NodeId(1), &p1)]);
        assert!(check_exclusive_ownership(&views, &[GranuleId(0)]).is_empty());
    }

    #[test]
    fn dual_ownership_is_detected() {
        let mut p0 = GTablePartition::new();
        p0.apply(Lsn(1), &install(0, 0));
        let mut p1 = GTablePartition::new();
        p1.apply(Lsn(1), &install(0, 1)); // corrupted: both claim G0
        let views = BTreeMap::from([(NodeId(0), &p0), (NodeId(1), &p1)]);
        let violations = check_exclusive_ownership(&views, &[GranuleId(0)]);
        assert_eq!(
            violations,
            vec![Violation::DualOwner {
                granule: GranuleId(0),
                a: NodeId(0),
                b: NodeId(1)
            }]
        );
    }

    #[test]
    fn missing_owner_is_detected() {
        let p0 = GTablePartition::new();
        let views = BTreeMap::from([(NodeId(0), &p0)]);
        let violations = check_exclusive_ownership(&views, &[GranuleId(5)]);
        assert_eq!(
            violations,
            vec![Violation::NoOwner {
                granule: GranuleId(5)
            }]
        );
    }

    #[test]
    fn range_disagreement_is_detected() {
        let mut p0 = GTablePartition::new();
        p0.apply(Lsn(1), &install(0, 0));
        let mut p1 = GTablePartition::new();
        p1.apply(
            Lsn(1),
            &GRecord::Install {
                table: TableId(0),
                granule: GranuleId(0),
                range: KeyRange::new(0, 999), // wrong range
                owner: NodeId(1),
            },
        );
        let views = BTreeMap::from([(NodeId(0), &p0), (NodeId(1), &p1)]);
        assert_eq!(
            check_range_agreement(&views),
            vec![Violation::RangeMismatch {
                granule: GranuleId(0)
            }]
        );
    }
}
