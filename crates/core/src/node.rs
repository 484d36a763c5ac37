//! Per-node coordination state.
//!
//! A [`MarlinNode`] holds the coordination-relevant state of one compute
//! node: its cached MTable, its materialized GTable partition, cached
//! copies of peers' partitions, and the `lsn_tracker`. It implements the
//! pure state transitions of the protocol — the user-transaction ownership
//! guard (Algorithm 1 lines 1-6), cache invalidation (`ClearMetaCache`),
//! and log-suffix refresh — while runners perform the actual storage and
//! network I/O.
//!
//! Cache model (§4.3.2): every system-table view is a *cache of a log
//! prefix*. A failed conditional append proves the cache stale; the node
//! marks it invalid and, on next use, refreshes by reading the log suffix
//! from its applied watermark (the paper fetches pages via `GetPage@LSN`
//! guided by the updated H-LSN; reading the suffix of the authoritative
//! log is the same data through the other standard API).

use crate::gtable::GTablePartition;
use crate::lsn_tracker::LsnTracker;
use crate::mtable::MTable;
use crate::records::{GRecord, SysRecord};
use bytes::Bytes;
use marlin_common::{GranuleId, LogId, Lsn, NodeId, TxnError};
use std::collections::BTreeMap;

/// Coordination state of one compute node.
#[derive(Debug)]
pub struct MarlinNode {
    /// This node's identity.
    pub id: NodeId,
    /// Cached membership view (materialized SysLog prefix).
    mtable: MTable,
    mtable_valid: bool,
    /// This node's GTable partition (materialized own-GLog prefix).
    gtable: GTablePartition,
    gtable_valid: bool,
    /// Cached copies of peers' partitions (failover and scans).
    foreign: BTreeMap<NodeId, GTablePartition>,
    /// Last observed LSN per log (H-LSN array, §4.3.2).
    pub tracker: LsnTracker,
    /// Next local transaction sequence number.
    next_seq: u32,
}

impl MarlinNode {
    /// A fresh node with empty caches.
    #[must_use]
    pub fn new(id: NodeId) -> Self {
        MarlinNode {
            id,
            mtable: MTable::new(),
            mtable_valid: true,
            gtable: GTablePartition::new(),
            gtable_valid: true,
            foreign: BTreeMap::new(),
            tracker: LsnTracker::new(),
            next_seq: 0,
        }
    }

    /// Mint a fresh transaction ID.
    pub fn next_txn(&mut self) -> marlin_common::TxnId {
        self.next_seq += 1;
        marlin_common::TxnId::new(self.id, self.next_seq)
    }

    // -- user transaction guard (Algorithm 1 lines 1-6) --------------------

    /// The ownership check every user request performs before touching
    /// data: confirms this node owns the granule per its own GTable
    /// partition; otherwise the transaction aborts with `WrongNodeError`
    /// carrying the owner hint for client redirection.
    pub fn check_user_access(&self, granule: GranuleId) -> Result<(), TxnError> {
        match self.gtable.owner_of(granule) {
            Some(owner) if owner == self.id => Ok(()),
            Some(owner) => Err(TxnError::WrongNode { granule, owner }),
            // Never owned and never heard of: the client's routing is very
            // stale; no hint available.
            None => Err(TxnError::WrongNode {
                granule,
                owner: NodeId(u32::MAX),
            }),
        }
    }

    /// Granules this node currently owns.
    #[must_use]
    pub fn owned_granules(&self) -> Vec<GranuleId> {
        self.gtable
            .owned_by(self.id)
            .into_iter()
            .map(|(g, _)| g)
            .collect()
    }

    // -- cache views --------------------------------------------------------

    /// The membership view. Callers must refresh first if
    /// [`Self::mtable_valid`] is false.
    #[must_use]
    pub fn mtable(&self) -> &MTable {
        &self.mtable
    }

    /// Whether the MTable cache is valid.
    #[must_use]
    pub fn mtable_valid(&self) -> bool {
        self.mtable_valid
    }

    /// This node's GTable partition view.
    #[must_use]
    pub fn gtable(&self) -> &GTablePartition {
        &self.gtable
    }

    /// Whether the own-partition cache is valid.
    #[must_use]
    pub fn gtable_valid(&self) -> bool {
        self.gtable_valid
    }

    /// Cached copy of a peer's partition, if any.
    #[must_use]
    pub fn foreign_partition(&self, node: NodeId) -> Option<&GTablePartition> {
        self.foreign.get(&node)
    }

    // -- ClearMetaCache (Algorithm 2 lines 16-17) ---------------------------

    /// Invalidate the cache backed by `log`: SysLog ⇒ MTable, `GLog(n)` ⇒
    /// node `n`'s partition cache (including this node's own — a failed
    /// append to one's own GLog is exactly the Figure 7 recovery race).
    pub fn clear_meta_cache(&mut self, log: LogId) {
        match log {
            LogId::SysLog => self.mtable_valid = false,
            LogId::GLog(n) if n == self.id => self.gtable_valid = false,
            LogId::GLog(n) => {
                self.foreign.remove(&n);
            }
            LogId::DataWal(_) => {
                // User data has exclusive owners; no coordination cache to
                // evict (§4.3.2: "only coordination states can encounter
                // cross-node modification").
            }
        }
    }

    // -- refresh from log suffixes ------------------------------------------

    /// Apply a SysLog suffix (records after the view's watermark) and mark
    /// the MTable cache valid.
    pub fn refresh_mtable(&mut self, records: impl IntoIterator<Item = (Lsn, Bytes)>) {
        for (lsn, payload) in records {
            if lsn <= self.mtable.applied_lsn() {
                continue;
            }
            if let Some(rec) = SysRecord::decode(&payload) {
                self.mtable.apply(lsn, &rec);
            }
            self.tracker.observe(LogId::SysLog, lsn);
        }
        self.mtable_valid = true;
    }

    /// Apply an own-GLog suffix and mark the partition cache valid.
    ///
    /// Returns the granules whose ownership *moved away from this node* as
    /// a result, in ascending order — the runner aborts live transactions
    /// on them and evicts their data pages (Figure 7: "any ongoing or
    /// incoming transactions on N3 targeting these granules are thus
    /// aborted"). The cost is that of the suffix: records applied plus
    /// granules named in them, whatever the partition's size.
    pub fn refresh_own_gtable(
        &mut self,
        records: impl IntoIterator<Item = (Lsn, Bytes)>,
    ) -> Vec<GranuleId> {
        // Granules this node owned when the suffix began and was ousted
        // from inside it: a row it held since at or before `start`. Each
        // granule enters once — after a return its tenure starts later.
        let start = self.gtable.applied_lsn();
        let me = self.id;
        let mut lost = Vec::new();
        for (lsn, payload) in records {
            if lsn <= self.gtable.applied_lsn() {
                continue;
            }
            self.apply_own(lsn, &payload, &mut |granule, owner, since| {
                if owner == me && since <= start {
                    lost.push(granule);
                }
            });
        }
        self.gtable_valid = true;
        // Left and came back within the suffix: not lost.
        lost.retain(|g| self.gtable.owner_of(*g) != Some(me));
        lost.sort_unstable();
        lost
    }

    /// Apply one record this node just appended (or observed) on its own
    /// GLog. Data records advance the watermark; GRecords mutate the view.
    pub fn apply_own_glog_record(&mut self, lsn: Lsn, payload: &Bytes) {
        self.apply_own(lsn, payload, &mut |_, _, _| {});
    }

    fn apply_own(
        &mut self,
        lsn: Lsn,
        payload: &Bytes,
        ousted: &mut impl FnMut(GranuleId, NodeId, Lsn),
    ) {
        match GRecord::decode(payload) {
            Some(rec) => self.gtable.apply_reporting(lsn, &rec, ousted),
            None => self.gtable.note_lsn(lsn),
        }
        self.tracker.observe(LogId::GLog(self.id), lsn);
    }

    /// Install/refresh a cached copy of a peer's partition from a full log
    /// prefix (used before `RecoveryMigrTxn` and by scans).
    pub fn refresh_foreign(
        &mut self,
        node: NodeId,
        records: impl IntoIterator<Item = (Lsn, Bytes)>,
    ) {
        let part = self.foreign.entry(node).or_default();
        let mut end = part.applied_lsn();
        for (lsn, payload) in records {
            if lsn <= part.applied_lsn() {
                continue;
            }
            match GRecord::decode(&payload) {
                Some(rec) => part.apply(lsn, &rec),
                None => part.note_lsn(lsn),
            }
            end = lsn;
        }
        self.tracker.observe(LogId::GLog(node), end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::OwnershipSwap;
    use marlin_common::{KeyRange, TableId, TxnId};

    fn install_payload(g: u64, owner: u32) -> Bytes {
        GRecord::Install {
            table: TableId(0),
            granule: GranuleId(g),
            range: KeyRange::new(g * 10, (g + 1) * 10),
            owner: NodeId(owner),
        }
        .encode()
    }

    fn swap(g: u64, old: u32, new: u32) -> OwnershipSwap {
        OwnershipSwap {
            table: TableId(0),
            granule: GranuleId(g),
            range: KeyRange::new(g * 10, (g + 1) * 10),
            old: NodeId(old),
            new: NodeId(new),
        }
    }

    fn swap_payload(txn: u64, g: u64, old: u32, new: u32) -> Bytes {
        GRecord::OnePhase {
            txn: TxnId(txn),
            swaps: vec![swap(g, old, new)],
        }
        .encode()
    }

    #[test]
    fn user_access_guard_matches_algorithm_1() {
        let mut n = MarlinNode::new(NodeId(2));
        n.refresh_own_gtable([
            (Lsn(1), install_payload(3, 2)),
            (Lsn(2), install_payload(4, 5)),
        ]);
        assert!(n.check_user_access(GranuleId(3)).is_ok());
        assert_eq!(
            n.check_user_access(GranuleId(4)),
            Err(TxnError::WrongNode {
                granule: GranuleId(4),
                owner: NodeId(5)
            })
        );
        assert!(matches!(
            n.check_user_access(GranuleId(99)),
            Err(TxnError::WrongNode { .. })
        ));
    }

    #[test]
    fn refresh_reports_lost_granules() {
        // The Figure 7 discovery: N3 refreshes its own partition after a
        // CAS failure and learns G3/G4 moved to N2.
        let mut n3 = MarlinNode::new(NodeId(3));
        n3.refresh_own_gtable([
            (Lsn(1), install_payload(3, 3)),
            (Lsn(2), install_payload(4, 3)),
        ]);
        assert_eq!(n3.owned_granules(), vec![GranuleId(3), GranuleId(4)]);
        let lost = n3.refresh_own_gtable([
            (Lsn(3), swap_payload(1, 3, 3, 2)),
            (Lsn(4), swap_payload(1, 4, 3, 2)),
        ]);
        assert_eq!(lost, vec![GranuleId(3), GranuleId(4)]);
        assert!(n3.owned_granules().is_empty());
        assert!(n3.check_user_access(GranuleId(3)).is_err());
    }

    /// The set difference `refresh_own_gtable` used to compute from two
    /// full materialisations of the partition; kept as the oracle.
    fn refresh_with_oracle(n: &mut MarlinNode, suffix: Vec<(Lsn, Bytes)>) -> Vec<GranuleId> {
        let before = n.owned_granules();
        let lost = n.refresh_own_gtable(suffix);
        let after = n.owned_granules();
        let expected: Vec<GranuleId> = before.into_iter().filter(|g| !after.contains(g)).collect();
        assert_eq!(
            lost, expected,
            "lost must be sorted(owned before - owned after)"
        );
        lost
    }

    fn prepared_payload(txn: u64, g: u64, old: u32, new: u32) -> Bytes {
        GRecord::Prepared {
            txn: TxnId(txn),
            swaps: vec![swap(g, old, new)],
            participants: vec![LogId::GLog(NodeId(old)), LogId::GLog(NodeId(new))],
        }
        .encode()
    }

    fn decision_payload(txn: u64, commit: bool) -> Bytes {
        GRecord::Decision {
            txn: TxnId(txn),
            commit,
        }
        .encode()
    }

    fn data_payload() -> Bytes {
        Bytes::from_static(b"\x57\x4duser-data")
    }

    #[test]
    fn leave_and_return_inside_one_suffix_is_not_lost() {
        let mut n = MarlinNode::new(NodeId(0));
        n.refresh_own_gtable([
            (Lsn(1), install_payload(1, 0)),
            (Lsn(2), install_payload(2, 0)),
        ]);
        let lost = refresh_with_oracle(
            &mut n,
            vec![
                (Lsn(3), swap_payload(1, 1, 0, 4)),
                (Lsn(4), swap_payload(2, 2, 0, 4)),
                (Lsn(5), swap_payload(3, 1, 4, 0)),
            ],
        );
        assert_eq!(lost, vec![GranuleId(2)]);
        assert_eq!(n.owned_granules(), vec![GranuleId(1)]);
    }

    #[test]
    fn gained_and_lost_inside_one_suffix_is_not_lost() {
        let mut n = MarlinNode::new(NodeId(0));
        n.refresh_own_gtable([(Lsn(1), install_payload(1, 4))]);
        let lost = refresh_with_oracle(
            &mut n,
            vec![
                (Lsn(2), swap_payload(1, 1, 4, 0)),
                (Lsn(3), install_payload(2, 0)),
                (Lsn(4), swap_payload(2, 1, 0, 5)),
                (Lsn(5), swap_payload(3, 2, 0, 5)),
            ],
        );
        assert!(lost.is_empty(), "never owned when the suffix began");
        assert!(n.owned_granules().is_empty());
    }

    #[test]
    fn prepared_swap_is_lost_once_at_its_committing_decision() {
        let mut n = MarlinNode::new(NodeId(0));
        n.refresh_own_gtable([(Lsn(1), install_payload(1, 0))]);
        let lost = refresh_with_oracle(&mut n, vec![(Lsn(2), prepared_payload(7, 1, 0, 3))]);
        assert!(lost.is_empty(), "a prepared swap moves nothing yet");
        assert!(n.check_user_access(GranuleId(1)).is_ok());
        let lost = refresh_with_oracle(
            &mut n,
            vec![
                (Lsn(3), data_payload()),
                (Lsn(4), decision_payload(7, true)),
            ],
        );
        assert_eq!(lost, vec![GranuleId(1)]);
        // A later suffix does not report it again.
        let lost = refresh_with_oracle(&mut n, vec![(Lsn(5), decision_payload(7, true))]);
        assert!(lost.is_empty());
    }

    #[test]
    fn aborting_decision_loses_nothing() {
        let mut n = MarlinNode::new(NodeId(0));
        n.refresh_own_gtable([(Lsn(1), install_payload(1, 0))]);
        let lost = refresh_with_oracle(
            &mut n,
            vec![
                (Lsn(2), prepared_payload(7, 1, 0, 3)),
                (Lsn(3), decision_payload(7, false)),
            ],
        );
        assert!(lost.is_empty());
        assert_eq!(n.owned_granules(), vec![GranuleId(1)]);
        assert!(n.gtable().in_doubt().is_empty());
    }

    /// Refresh cost follows the suffix, not the partition. No wall clock:
    /// at O(records) this is milliseconds; the old double materialisation
    /// plus `contains` filter is 4 * 10^8 steps per refresh at this size,
    /// which no test run survives 4 000 times.
    #[test]
    fn refresh_cost_does_not_grow_with_the_partition() {
        const GRANULES: u64 = 20_000;
        const ROUNDS: u64 = 2_000;
        let mut n = MarlinNode::new(NodeId(0));
        let lost = n.refresh_own_gtable((0..GRANULES).map(|g| (Lsn(g + 1), install_payload(g, 0))));
        assert!(lost.is_empty());
        let mut lsn = GRANULES;
        for _ in 0..ROUNDS {
            lsn += 1;
            assert!(n
                .refresh_own_gtable([(Lsn(lsn), data_payload())])
                .is_empty());
            assert_eq!(n.gtable().applied_lsn(), Lsn(lsn));
        }
        for g in 0..ROUNDS {
            lsn += 1;
            let lost = n.refresh_own_gtable([(Lsn(lsn), swap_payload(g, g, 0, 1))]);
            assert_eq!(lost, vec![GranuleId(g)]);
            assert_eq!(n.gtable().applied_lsn(), Lsn(lsn));
        }
        assert_eq!(n.owned_granules().len() as u64, GRANULES - ROUNDS);
    }

    proptest::proptest! {
        /// Random own-GLog histories, delivered as random suffix batches
        /// (some re-delivering records at or below the watermark): every
        /// batch reports what the old set difference did, and the view
        /// ends equal to a materialisation of the whole log.
        #[test]
        fn delta_tracked_refresh_matches_the_set_difference(
            ops in proptest::collection::vec((0u8..6, 0u64..10, 0u32..3, 0u64..10, 0u64..5), 1..60),
            cuts in proptest::collection::vec((1usize..6, 0usize..4), 60..61),
        ) {
            let me = NodeId(0);
            let mut log: Vec<(Lsn, Bytes)> = Vec::new();
            for (kind, g, owner, g2, txn) in ops {
                let payload = match kind {
                    0 => install_payload(g, owner),
                    1 => GRecord::OnePhase {
                        txn: TxnId(txn),
                        swaps: vec![swap(g, 0, owner), swap(g2, 0, (owner + 1) % 3)],
                    }
                    .encode(),
                    2 => prepared_payload(txn, g, 0, owner),
                    3 => decision_payload(txn, true),
                    4 => decision_payload(txn, false),
                    _ => data_payload(),
                };
                log.push((Lsn(log.len() as u64 + 1), payload));
            }
            // End on a GRecord (a decision nobody prepared changes nothing)
            // so `materialize`, which sees GRecords only, reaches the same
            // watermark as the node, which also steps over data records.
            log.push((Lsn(log.len() as u64 + 1), decision_payload(u64::MAX, false)));

            let mut n = MarlinNode::new(me);
            let mut done = 0;
            for (len, replayed) in cuts {
                if done == log.len() {
                    break;
                }
                let end = (done + len).min(log.len());
                let suffix = log[done.saturating_sub(replayed)..end].to_vec();
                refresh_with_oracle(&mut n, suffix);
                proptest::prop_assert_eq!(n.gtable().applied_lsn(), Lsn(end as u64));
                proptest::prop_assert!(n.gtable_valid());
                done = end;
            }
            proptest::prop_assert_eq!(done, log.len());
            let whole = crate::gtable::materialize(
                log.iter()
                    .filter_map(|(lsn, p)| GRecord::decode(p).map(|rec| (*lsn, rec))),
            );
            proptest::prop_assert_eq!(n.gtable(), &whole);
        }
    }

    #[test]
    fn clear_meta_cache_targets_the_right_view() {
        let mut n = MarlinNode::new(NodeId(1));
        assert!(n.mtable_valid());
        n.clear_meta_cache(LogId::SysLog);
        assert!(!n.mtable_valid());
        assert!(n.gtable_valid());
        n.clear_meta_cache(LogId::GLog(NodeId(1)));
        assert!(!n.gtable_valid());
        // Foreign cache eviction drops the copy entirely.
        n.refresh_foreign(NodeId(2), [(Lsn(1), install_payload(1, 2))]);
        assert!(n.foreign_partition(NodeId(2)).is_some());
        n.clear_meta_cache(LogId::GLog(NodeId(2)));
        assert!(n.foreign_partition(NodeId(2)).is_none());
    }

    #[test]
    fn data_records_advance_watermark_without_gtable_change() {
        let mut n = MarlinNode::new(NodeId(0));
        n.refresh_own_gtable([(Lsn(1), install_payload(1, 0))]);
        // A user-data batch (not a GRecord) lands on the same log.
        n.apply_own_glog_record(Lsn(2), &Bytes::from_static(b"\x57\x4duser-data"));
        assert_eq!(n.gtable().applied_lsn(), Lsn(2));
        assert_eq!(n.owned_granules(), vec![GranuleId(1)]);
        assert_eq!(n.tracker.get(LogId::GLog(NodeId(0))), Lsn(2));
    }

    #[test]
    fn refresh_skips_already_applied_records() {
        let mut n = MarlinNode::new(NodeId(0));
        let records = [
            (Lsn(1), install_payload(1, 0)),
            (Lsn(2), install_payload(2, 0)),
        ];
        n.refresh_own_gtable(records.clone());
        // Re-delivering the full prefix is harmless (idempotent refresh).
        n.refresh_own_gtable(records);
        assert_eq!(n.owned_granules(), vec![GranuleId(1), GranuleId(2)]);
    }

    #[test]
    fn foreign_refresh_tracks_lsn() {
        let mut n = MarlinNode::new(NodeId(0));
        n.refresh_foreign(
            NodeId(3),
            [
                (Lsn(1), install_payload(7, 3)),
                (Lsn(2), swap_payload(1, 7, 3, 0)),
            ],
        );
        let p = n.foreign_partition(NodeId(3)).unwrap();
        assert_eq!(p.owner_of(GranuleId(7)), Some(NodeId(0)));
        assert_eq!(n.tracker.get(LogId::GLog(NodeId(3))), Lsn(2));
    }

    #[test]
    fn txn_ids_are_unique_and_tagged() {
        let mut n = MarlinNode::new(NodeId(5));
        let a = n.next_txn();
        let b = n.next_txn();
        assert_ne!(a, b);
        assert_eq!(a.origin(), NodeId(5));
    }
}
