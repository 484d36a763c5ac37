//! Per-node `H-LSN` tracking.
//!
//! "Each node maintains a `lsn_tracker` array to track the last committed
//! LSN H-LSN of each log in the cluster" (§4.3.2). The tracker is the input
//! to every conditional append: `Append(updates, tracker[log])` succeeds
//! only if nobody else has appended since this node last observed the log.
//! TryLog updates the tracker on both success (new LSN) and failure (the
//! log's actual current LSN, enabling a retry after cache refresh).

use marlin_common::{LogId, Lsn};
use std::collections::BTreeMap;

/// A node's map of last-observed LSNs, one entry per log it has touched.
#[derive(Clone, Debug, Default)]
pub struct LsnTracker {
    observed: BTreeMap<LogId, Lsn>,
}

impl LsnTracker {
    /// An empty tracker (all logs assumed at [`Lsn::ZERO`]).
    #[must_use]
    pub fn new() -> Self {
        LsnTracker::default()
    }

    /// The H-LSN for `log` (zero if never observed).
    #[must_use]
    pub fn get(&self, log: LogId) -> Lsn {
        self.observed.get(&log).copied().unwrap_or(Lsn::ZERO)
    }

    /// Record an observation of `log` at `lsn`.
    ///
    /// Observations are monotone: an older LSN never overwrites a newer
    /// one (a delayed response cannot roll the tracker back).
    pub fn observe(&mut self, log: LogId, lsn: Lsn) {
        let entry = self.observed.entry(log).or_insert(Lsn::ZERO);
        if lsn > *entry {
            *entry = lsn;
        }
    }

    /// Number of tracked logs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.observed.len()
    }

    /// Whether nothing is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.observed.is_empty()
    }

    /// Iterate over `(log, lsn)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (LogId, Lsn)> + '_ {
        self.observed.iter().map(|(l, n)| (*l, *n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_common::NodeId;
    use proptest::prelude::*;

    #[test]
    fn unobserved_logs_read_zero() {
        let t = LsnTracker::new();
        assert_eq!(t.get(LogId::SysLog), Lsn::ZERO);
        assert!(t.is_empty());
    }

    #[test]
    fn observations_advance() {
        let mut t = LsnTracker::new();
        t.observe(LogId::SysLog, Lsn(3));
        assert_eq!(t.get(LogId::SysLog), Lsn(3));
        t.observe(LogId::SysLog, Lsn(5));
        assert_eq!(t.get(LogId::SysLog), Lsn(5));
    }

    #[test]
    fn stale_observations_do_not_roll_back() {
        let mut t = LsnTracker::new();
        t.observe(LogId::GLog(NodeId(1)), Lsn(10));
        t.observe(LogId::GLog(NodeId(1)), Lsn(4)); // delayed response
        assert_eq!(t.get(LogId::GLog(NodeId(1))), Lsn(10));
    }

    #[test]
    fn logs_are_tracked_independently() {
        let mut t = LsnTracker::new();
        t.observe(LogId::GLog(NodeId(1)), Lsn(1));
        t.observe(LogId::GLog(NodeId(2)), Lsn(2));
        t.observe(LogId::SysLog, Lsn(3));
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(LogId::GLog(NodeId(1))), Lsn(1));
        assert_eq!(t.get(LogId::GLog(NodeId(2))), Lsn(2));
    }

    proptest! {
        /// The tracker equals the running maximum of observations per log.
        #[test]
        fn tracker_is_running_max(observations in proptest::collection::vec((0u32..4, 0u64..100), 0..200)) {
            let mut t = LsnTracker::new();
            let mut maxes = std::collections::BTreeMap::new();
            for (node, lsn) in observations {
                let log = LogId::GLog(NodeId(node));
                t.observe(log, Lsn(lsn));
                let e = maxes.entry(node).or_insert(0);
                *e = (*e).max(lsn);
            }
            for (node, expect) in maxes {
                prop_assert_eq!(t.get(LogId::GLog(NodeId(node))), Lsn(expect));
            }
        }
    }
}
