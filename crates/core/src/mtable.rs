//! MTable: the group-membership system table (§4.1, Figure 5).
//!
//! "MTable is typically small in size and remains unpartitioned. All
//! modifications to it are recorded in a single log, SysLog... SysLog has
//! no exclusive owner, allowing all compute nodes to access and modify it."
//!
//! An [`MTable`] is a deterministic materialization of a SysLog prefix:
//! every node (and the router) holds a cached copy tagged with the LSN it
//! reflects; MarlinCommit invalidates stale caches when a conditional
//! append on the SysLog fails.

use crate::records::SysRecord;
use marlin_common::{Lsn, NodeId};
use std::collections::BTreeMap;

/// Static information about a member node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeInfo {
    /// Server address (opaque; the simulator stores actor coordinates).
    pub addr: String,
}

/// The membership table: a materialized view of the SysLog.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MTable {
    members: BTreeMap<NodeId, NodeInfo>,
    /// SysLog LSN this view reflects.
    applied: Lsn,
}

impl MTable {
    /// An empty membership at SysLog LSN 0.
    #[must_use]
    pub fn new() -> Self {
        MTable::default()
    }

    /// Apply one SysLog record at `lsn` (records must arrive in order).
    ///
    /// Application is idempotent in effect: adding an existing node or
    /// deleting a missing one leaves the table unchanged (the transaction
    /// layer's data-effectiveness checks normally prevent such records
    /// from being committed at all — Algorithm 1 lines 8, 14).
    pub fn apply(&mut self, lsn: Lsn, record: &SysRecord) {
        assert!(lsn > self.applied, "SysLog records must apply in order");
        match record {
            SysRecord::AddNode { node, addr } => {
                self.members
                    .entry(*node)
                    .or_insert_with(|| NodeInfo { addr: addr.clone() });
            }
            SysRecord::DeleteNode { node } => {
                self.members.remove(node);
            }
        }
        self.applied = lsn;
    }

    /// Whether `node` is a member (Algorithm 1 `MTable.exist`).
    #[must_use]
    pub fn exists(&self, node: NodeId) -> bool {
        self.members.contains_key(&node)
    }

    /// A member's info.
    #[must_use]
    pub fn get(&self, node: NodeId) -> Option<&NodeInfo> {
        self.members.get(&node)
    }

    /// All member node IDs in ascending order (`MTable.scan()`).
    #[must_use]
    pub fn scan(&self) -> Vec<NodeId> {
        self.members.keys().copied().collect()
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The SysLog LSN this view reflects.
    #[must_use]
    pub fn applied_lsn(&self) -> Lsn {
        self.applied
    }

    /// The `k` ring successors of `node` in §4.4.2's heartbeat ring:
    /// members sorted by node ID form a ring and each node monitors the
    /// `k` nodes after it. No runner detects failures (both inject
    /// crashes as scripted faults), so only this module's tests call it.
    #[must_use]
    pub fn ring_successors(&self, node: NodeId, k: usize) -> Vec<NodeId> {
        let ids: Vec<NodeId> = self.scan();
        if ids.len() <= 1 {
            return Vec::new();
        }
        let start = ids.iter().position(|&n| n > node).unwrap_or(0);
        let mut out = Vec::with_capacity(k);
        for i in 0..ids.len() - usize::from(ids.contains(&node)) {
            if out.len() == k {
                break;
            }
            let candidate = ids[(start + i) % ids.len()];
            if candidate != node {
                out.push(candidate);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(n: u32) -> SysRecord {
        SysRecord::AddNode {
            node: NodeId(n),
            addr: format!("10.0.0.{n}"),
        }
    }

    fn del(n: u32) -> SysRecord {
        SysRecord::DeleteNode { node: NodeId(n) }
    }

    #[test]
    fn add_and_delete_members() {
        let mut m = MTable::new();
        m.apply(Lsn(1), &add(1));
        m.apply(Lsn(2), &add(2));
        assert!(m.exists(NodeId(1)));
        assert_eq!(m.len(), 2);
        m.apply(Lsn(3), &del(1));
        assert!(!m.exists(NodeId(1)));
        assert_eq!(m.scan(), vec![NodeId(2)]);
        assert_eq!(m.applied_lsn(), Lsn(3));
    }

    #[test]
    fn duplicate_add_keeps_original_addr() {
        let mut m = MTable::new();
        m.apply(
            Lsn(1),
            &SysRecord::AddNode {
                node: NodeId(1),
                addr: "first".into(),
            },
        );
        m.apply(
            Lsn(2),
            &SysRecord::AddNode {
                node: NodeId(1),
                addr: "second".into(),
            },
        );
        assert_eq!(m.get(NodeId(1)).unwrap().addr, "first");
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_application_panics() {
        let mut m = MTable::new();
        m.apply(Lsn(2), &add(1));
        m.apply(Lsn(1), &add(2));
    }

    #[test]
    fn two_replicas_converge_from_same_log() {
        let records = [add(3), add(1), del(3), add(2)];
        let mut a = MTable::new();
        let mut b = MTable::new();
        for (i, r) in records.iter().enumerate() {
            a.apply(Lsn(i as u64 + 1), r);
        }
        for (i, r) in records.iter().enumerate() {
            b.apply(Lsn(i as u64 + 1), r);
        }
        assert_eq!(a, b);
        assert_eq!(a.scan(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn ring_successors_wrap_around() {
        let mut m = MTable::new();
        for (i, n) in [1u32, 3, 5, 7].iter().enumerate() {
            m.apply(Lsn(i as u64 + 1), &add(*n));
        }
        assert_eq!(m.ring_successors(NodeId(3), 2), vec![NodeId(5), NodeId(7)]);
        assert_eq!(m.ring_successors(NodeId(7), 2), vec![NodeId(1), NodeId(3)]);
        assert_eq!(
            m.ring_successors(NodeId(5), 3),
            vec![NodeId(7), NodeId(1), NodeId(3)]
        );
    }

    #[test]
    fn ring_successors_edge_cases() {
        let mut m = MTable::new();
        assert!(m.ring_successors(NodeId(1), 2).is_empty());
        m.apply(Lsn(1), &add(1));
        assert!(m.ring_successors(NodeId(1), 2).is_empty());
        m.apply(Lsn(2), &add(2));
        assert_eq!(m.ring_successors(NodeId(1), 3), vec![NodeId(2)]);
        // A non-member (already removed) still gets successors from the ring.
        assert_eq!(m.ring_successors(NodeId(9), 1), vec![NodeId(1)]);
    }
}
