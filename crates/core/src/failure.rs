//! Ring-based heartbeat failure detection (§4.4.2).
//!
//! Without a centralized coordination service, Marlin detects failures in
//! a decentralized manner: "Compute nodes in MTable form a ring (sorted by
//! node ID) and each node periodically sends heartbeat messages to its k
//! successors in the ring. If a successor fails to respond after a
//! configurable number of attempts, the monitoring node assumes the
//! successor has failed and initiates a Failover procedure" (Orleans-style).
//!
//! The detector is pure: callers feed it clock ticks, membership views,
//! and ack events; it emits the heartbeats to send and the suspicions it
//! has formed. The `failover` example and `tests/failover.rs` drive it;
//! the runners do not, since they inject crashes as scripted faults.

use crate::mtable::MTable;
use marlin_common::NodeId;
use std::collections::BTreeMap;

/// Configuration of the ring detector.
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// Number of ring successors each node monitors (`k`).
    pub fanout: usize,
    /// Consecutive missed heartbeats before suspecting a successor.
    pub miss_threshold: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            fanout: 2,
            miss_threshold: 3,
        }
    }
}

/// Per-monitored-node bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
struct Watch {
    outstanding: u32,
    suspected: bool,
}

/// The ring heartbeat detector for one node.
#[derive(Clone, Debug)]
pub struct RingDetector {
    me: NodeId,
    config: DetectorConfig,
    watches: BTreeMap<NodeId, Watch>,
}

impl RingDetector {
    /// A detector for node `me`.
    #[must_use]
    pub fn new(me: NodeId, config: DetectorConfig) -> Self {
        RingDetector {
            me,
            config,
            watches: BTreeMap::new(),
        }
    }

    /// Recompute the monitored set from the current membership. Call after
    /// every MTable refresh; nodes that left the ring are forgotten.
    pub fn update_membership(&mut self, mtable: &MTable) {
        let successors = mtable.ring_successors(self.me, self.config.fanout);
        self.watches.retain(|n, _| successors.contains(n));
        for s in successors {
            self.watches.entry(s).or_default();
        }
    }

    /// One heartbeat period elapsed: returns the targets to ping, after
    /// charging every watched node one outstanding beat. Nodes crossing
    /// the miss threshold are newly suspected (returned by
    /// [`Self::take_suspicions`]).
    pub fn tick(&mut self) -> Vec<NodeId> {
        let mut targets = Vec::with_capacity(self.watches.len());
        for (node, w) in &mut self.watches {
            w.outstanding += 1;
            if w.outstanding > self.config.miss_threshold {
                w.suspected = true;
            }
            targets.push(*node);
        }
        targets
    }

    /// A heartbeat ack arrived from `node`: clears its miss counter and any
    /// standing suspicion (the node was merely slow — the Figure 7 N3 case).
    pub fn ack(&mut self, node: NodeId) {
        if let Some(w) = self.watches.get_mut(&node) {
            w.outstanding = 0;
            w.suspected = false;
        }
    }

    /// Drain newly formed suspicions. Each suspected node is reported once;
    /// it is reported again only if it acks (recovers) and then goes silent
    /// past the threshold again.
    pub fn take_suspicions(&mut self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (node, w) in &mut self.watches {
            if w.suspected {
                w.suspected = false;
                // Freeze the counter so the node is not re-reported every
                // tick while it stays silent.
                w.outstanding = 0;
                out.push(*node);
            }
        }
        out
    }

    /// Nodes currently monitored by this detector.
    #[must_use]
    pub fn monitored(&self) -> Vec<NodeId> {
        self.watches.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::SysRecord;
    use marlin_common::Lsn;

    fn mtable(nodes: &[u32]) -> MTable {
        let mut m = MTable::new();
        for (i, n) in nodes.iter().enumerate() {
            m.apply(
                Lsn(i as u64 + 1),
                &SysRecord::AddNode {
                    node: NodeId(*n),
                    addr: String::new(),
                },
            );
        }
        m
    }

    fn detector(me: u32, nodes: &[u32]) -> RingDetector {
        let mut d = RingDetector::new(
            NodeId(me),
            DetectorConfig {
                fanout: 2,
                miss_threshold: 3,
            },
        );
        d.update_membership(&mtable(nodes));
        d
    }

    #[test]
    fn monitors_ring_successors() {
        let d = detector(1, &[1, 2, 3, 4]);
        assert_eq!(d.monitored(), vec![NodeId(2), NodeId(3)]);
        let d = detector(4, &[1, 2, 3, 4]);
        assert_eq!(d.monitored(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn acks_prevent_suspicion() {
        let mut d = detector(1, &[1, 2, 3]);
        for _ in 0..20 {
            let targets = d.tick();
            assert_eq!(targets, vec![NodeId(2), NodeId(3)]);
            d.ack(NodeId(2));
            d.ack(NodeId(3));
        }
        assert!(d.take_suspicions().is_empty());
    }

    #[test]
    fn silence_past_threshold_suspects() {
        let mut d = detector(1, &[1, 2, 3]);
        // N2 acks, N3 is silent.
        for _ in 0..3 {
            d.tick();
            d.ack(NodeId(2));
        }
        assert!(d.take_suspicions().is_empty(), "threshold not crossed yet");
        d.tick();
        d.ack(NodeId(2));
        assert_eq!(d.take_suspicions(), vec![NodeId(3)]);
    }

    #[test]
    fn suspicion_reported_once_until_recovery() {
        let mut d = detector(1, &[1, 2]);
        for _ in 0..10 {
            d.tick();
        }
        assert_eq!(d.take_suspicions(), vec![NodeId(2)]);
        // Still silent: not re-reported immediately.
        for _ in 0..2 {
            d.tick();
        }
        assert!(d.take_suspicions().is_empty());
        // Recovers, then goes silent again: re-reported.
        d.ack(NodeId(2));
        for _ in 0..4 {
            d.tick();
        }
        assert_eq!(d.take_suspicions(), vec![NodeId(2)]);
    }

    #[test]
    fn membership_change_drops_stale_watches() {
        let mut d = detector(1, &[1, 2, 3]);
        for _ in 0..2 {
            d.tick(); // N2 and N3 each owe 2 beats
        }
        // N3 is deleted from the cluster; N4 joins.
        d.update_membership(&mtable(&[1, 2, 4]));
        assert_eq!(d.monitored(), vec![NodeId(2), NodeId(4)]);
        // N4 starts with a clean slate.
        for _ in 0..2 {
            d.tick();
            d.ack(NodeId(2));
            d.ack(NodeId(4));
        }
        assert!(d.take_suspicions().is_empty());
    }

    #[test]
    fn single_node_cluster_monitors_nothing() {
        let mut d = detector(1, &[1]);
        assert!(d.tick().is_empty());
        assert!(d.take_suspicions().is_empty());
    }
}
