//! GTable: the granule-ownership system table (§4.1, Figure 5).
//!
//! GTable grows with the data volume, so Marlin partitions it **by owner
//! node ID**: node `n`'s partition describes the granules `n` owns and is
//! logged in `GLog(n)`. Migrations update both the source and destination
//! partitions (Figure 6) by *swapping* entries — never deleting them — so
//! every granule always has an owner (invariant I3) and at most one node
//! `n` satisfies `GTable[g].owner == n` (invariant I4). After a migration
//! the source partition retains a forwarding entry pointing at the new
//! owner, which is what lets misrouted requests discover the move.
//!
//! A [`GTablePartition`] is the deterministic materialization of one GLog.
//! Cross-node transactions append [`GRecord::Prepared`] records (phase one
//! of MarlinCommit) whose swaps stay *pending* until the matching
//! [`GRecord::Decision`] record arrives; one-phase records apply
//! immediately. This mirrors how a reader of the log — including a node
//! taking over after a failure — reconstructs exactly the committed state.

use crate::records::{GRecord, OwnershipSwap};
use marlin_common::{GranuleId, KeyRange, Lsn, NodeId, TableId, TxnId};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// One GTable row: a granule's key range and current owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GranuleMeta {
    pub table: TableId,
    pub range: KeyRange,
    pub owner: NodeId,
}

/// A row as the partition stores it: the public [`GranuleMeta`] plus the
/// GLog LSN at which `meta.owner` became the owner. The stamp is what lets
/// a reader of a log suffix tell "owned since before the suffix" from
/// "gained inside it" without a snapshot of the partition (see
/// [`GTablePartition::apply_reporting`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row {
    meta: GranuleMeta,
    owner_since: Lsn,
}

/// A materialized GTable partition (one node's view of its GLog).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GTablePartition {
    entries: BTreeMap<GranuleId, Row>,
    /// Swaps from `Prepared` records awaiting their decision.
    pending: BTreeMap<TxnId, Vec<OwnershipSwap>>,
    /// GLog LSN this view reflects.
    applied: Lsn,
}

impl GTablePartition {
    /// An empty partition at GLog LSN 0.
    #[must_use]
    pub fn new() -> Self {
        GTablePartition::default()
    }

    /// Advance the applied watermark past a GLog record that carries no
    /// ownership information (the per-node GLog doubles as the node's data
    /// WAL — §4.1, Figure 5 — so user-data records interleave with GTable
    /// records and must still advance the view's LSN).
    pub fn note_lsn(&mut self, lsn: Lsn) {
        assert!(lsn > self.applied, "GLog records must apply in order");
        self.applied = lsn;
    }

    /// Apply one GLog record at `lsn` (records must arrive in order).
    pub fn apply(&mut self, lsn: Lsn, record: &GRecord) {
        self.apply_reporting(lsn, record, &mut |_, _, _| {});
    }

    /// [`Self::apply`], reporting every row whose owner the record changed
    /// as `ousted(granule, previous owner, LSN the previous owner took it
    /// at)`: an `Install` over an existing row, an applied `OnePhase` swap,
    /// a swap released by a committing `Decision`. Rows the record creates,
    /// rows rewritten with the owner they had, `Prepared` records and
    /// aborting `Decision`s report nothing. The work is proportional to the
    /// record, never to the partition.
    pub(crate) fn apply_reporting(
        &mut self,
        lsn: Lsn,
        record: &GRecord,
        ousted: &mut impl FnMut(GranuleId, NodeId, Lsn),
    ) {
        assert!(lsn > self.applied, "GLog records must apply in order");
        match record {
            GRecord::Install {
                table,
                granule,
                range,
                owner,
            } => {
                let meta = GranuleMeta {
                    table: *table,
                    range: *range,
                    owner: *owner,
                };
                self.upsert(lsn, *granule, meta, ousted);
            }
            GRecord::OnePhase { swaps, .. } => {
                for s in swaps {
                    self.apply_swap(lsn, s, ousted);
                }
            }
            GRecord::Prepared { txn, swaps, .. } => {
                self.pending.insert(*txn, swaps.clone());
            }
            GRecord::Decision { txn, commit } => {
                if let Some(swaps) = self.pending.remove(txn) {
                    if *commit {
                        for s in &swaps {
                            self.apply_swap(lsn, s, ousted);
                        }
                    }
                }
                // A decision without a matching prepared record is legal:
                // the decision broadcast is appended to every participant
                // log, including ones whose phase-one append failed.
            }
        }
        self.applied = lsn;
    }

    fn apply_swap(
        &mut self,
        lsn: Lsn,
        s: &OwnershipSwap,
        ousted: &mut impl FnMut(GranuleId, NodeId, Lsn),
    ) {
        // Swap semantics: upsert the entry with the new owner. The range
        // rides along so a destination partition can create the entry it
        // has never seen. Entries are never deleted (invariant I3).
        let meta = GranuleMeta {
            table: s.table,
            range: s.range,
            owner: s.new,
        };
        self.upsert(lsn, s.granule, meta, ousted);
    }

    fn upsert(
        &mut self,
        lsn: Lsn,
        granule: GranuleId,
        meta: GranuleMeta,
        ousted: &mut impl FnMut(GranuleId, NodeId, Lsn),
    ) {
        match self.entries.entry(granule) {
            Entry::Vacant(v) => {
                v.insert(Row {
                    meta,
                    owner_since: lsn,
                });
            }
            Entry::Occupied(mut o) => {
                let row = o.get_mut();
                // The same owner rewritten keeps the start of its tenure.
                if row.meta.owner != meta.owner {
                    ousted(granule, row.meta.owner, row.owner_since);
                    row.owner_since = lsn;
                }
                row.meta = meta;
            }
        }
    }

    /// Owner of `granule` per this partition, if the partition has an entry
    /// (Algorithm 1 `GTable[granule].NodeID`).
    #[must_use]
    pub fn owner_of(&self, granule: GranuleId) -> Option<NodeId> {
        self.entries.get(&granule).map(|r| r.meta.owner)
    }

    /// Full entry for `granule`.
    #[must_use]
    pub fn get(&self, granule: GranuleId) -> Option<&GranuleMeta> {
        self.entries.get(&granule).map(|r| &r.meta)
    }

    /// All entries currently owned by `node` (the partition's live rows).
    #[must_use]
    pub fn owned_by(&self, node: NodeId) -> Vec<(GranuleId, GranuleMeta)> {
        self.entries
            .iter()
            .filter(|(_, r)| r.meta.owner == node)
            .map(|(g, r)| (*g, r.meta))
            .collect()
    }

    /// Scan every entry (`ScanGTableTxn` merges these across nodes).
    #[must_use]
    pub fn scan(&self) -> Vec<(GranuleId, GranuleMeta)> {
        self.entries.iter().map(|(g, r)| (*g, r.meta)).collect()
    }

    /// The GLog LSN this view reflects.
    #[must_use]
    pub fn applied_lsn(&self) -> Lsn {
        self.applied
    }

    /// Transactions prepared but not yet decided in this log — candidates
    /// for the termination protocol during failover (§4.3.2; Cornus-style
    /// non-blocking resolution).
    #[must_use]
    pub fn in_doubt(&self) -> Vec<TxnId> {
        self.pending.keys().copied().collect()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the partition has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Materialize a partition from a full GLog record sequence.
#[must_use]
pub fn materialize(records: impl IntoIterator<Item = (Lsn, GRecord)>) -> GTablePartition {
    let mut p = GTablePartition::new();
    for (lsn, record) in records {
        p.apply(lsn, &record);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn install(g: u64, owner: u32) -> GRecord {
        GRecord::Install {
            table: TableId(0),
            granule: GranuleId(g),
            range: KeyRange::new(g * 100, (g + 1) * 100),
            owner: NodeId(owner),
        }
    }

    fn swap(g: u64, old: u32, new: u32) -> OwnershipSwap {
        OwnershipSwap {
            table: TableId(0),
            granule: GranuleId(g),
            range: KeyRange::new(g * 100, (g + 1) * 100),
            old: NodeId(old),
            new: NodeId(new),
        }
    }

    #[test]
    fn install_then_query() {
        let p = materialize([(Lsn(1), install(3, 2))]);
        assert_eq!(p.owner_of(GranuleId(3)), Some(NodeId(2)));
        assert_eq!(p.get(GranuleId(3)).unwrap().range, KeyRange::new(300, 400));
        assert_eq!(p.owner_of(GranuleId(9)), None);
    }

    #[test]
    fn one_phase_swap_applies_immediately() {
        let p = materialize([
            (Lsn(1), install(1, 0)),
            (
                Lsn(2),
                GRecord::OnePhase {
                    txn: TxnId(5),
                    swaps: vec![swap(1, 0, 1)],
                },
            ),
        ]);
        assert_eq!(p.owner_of(GranuleId(1)), Some(NodeId(1)));
    }

    #[test]
    fn prepared_swaps_wait_for_decision() {
        let mut p = materialize([(Lsn(1), install(1, 0))]);
        p.apply(
            Lsn(2),
            &GRecord::Prepared {
                txn: TxnId(7),
                swaps: vec![swap(1, 0, 1)],
                participants: vec![],
            },
        );
        // Not yet applied.
        assert_eq!(p.owner_of(GranuleId(1)), Some(NodeId(0)));
        assert_eq!(p.in_doubt(), vec![TxnId(7)]);
        p.apply(
            Lsn(3),
            &GRecord::Decision {
                txn: TxnId(7),
                commit: true,
            },
        );
        assert_eq!(p.owner_of(GranuleId(1)), Some(NodeId(1)));
        assert!(p.in_doubt().is_empty());
    }

    #[test]
    fn aborted_decision_drops_swaps() {
        let mut p = materialize([(Lsn(1), install(1, 0))]);
        p.apply(
            Lsn(2),
            &GRecord::Prepared {
                txn: TxnId(7),
                swaps: vec![swap(1, 0, 1)],
                participants: vec![],
            },
        );
        p.apply(
            Lsn(3),
            &GRecord::Decision {
                txn: TxnId(7),
                commit: false,
            },
        );
        assert_eq!(p.owner_of(GranuleId(1)), Some(NodeId(0)));
        assert!(p.in_doubt().is_empty());
    }

    #[test]
    fn decision_without_prepare_is_harmless() {
        let mut p = GTablePartition::new();
        p.apply(
            Lsn(1),
            &GRecord::Decision {
                txn: TxnId(3),
                commit: true,
            },
        );
        assert!(p.is_empty());
    }

    #[test]
    fn swap_into_new_partition_creates_forwarding_entry() {
        // Destination partition never saw granule 4; the swap's embedded
        // range lets it create the entry.
        let p = materialize([(
            Lsn(1),
            GRecord::OnePhase {
                txn: TxnId(1),
                swaps: vec![swap(4, 0, 2)],
            },
        )]);
        assert_eq!(p.owner_of(GranuleId(4)), Some(NodeId(2)));
        assert_eq!(p.get(GranuleId(4)).unwrap().range, KeyRange::new(400, 500));
    }

    #[test]
    fn source_partition_keeps_forwarding_entry() {
        // After migration away, the source still answers with the new
        // owner (this is how misrouted clients get redirected).
        let p = materialize([
            (Lsn(1), install(2, 0)),
            (
                Lsn(2),
                GRecord::OnePhase {
                    txn: TxnId(1),
                    swaps: vec![swap(2, 0, 5)],
                },
            ),
        ]);
        assert_eq!(p.owner_of(GranuleId(2)), Some(NodeId(5)));
        assert_eq!(p.len(), 1, "swap must not delete the entry");
        assert!(p.owned_by(NodeId(0)).is_empty());
    }

    #[test]
    fn owned_by_filters_current_owner() {
        let p = materialize([
            (Lsn(1), install(1, 0)),
            (Lsn(2), install(2, 0)),
            (
                Lsn(3),
                GRecord::OnePhase {
                    txn: TxnId(1),
                    swaps: vec![swap(1, 0, 9)],
                },
            ),
        ]);
        let owned = p.owned_by(NodeId(0));
        assert_eq!(owned.len(), 1);
        assert_eq!(owned[0].0, GranuleId(2));
    }

    #[test]
    fn interleaved_transactions_resolve_independently() {
        let mut p = materialize([(Lsn(1), install(1, 0)), (Lsn(2), install(2, 0))]);
        p.apply(
            Lsn(3),
            &GRecord::Prepared {
                txn: TxnId(10),
                swaps: vec![swap(1, 0, 1)],
                participants: vec![],
            },
        );
        p.apply(
            Lsn(4),
            &GRecord::Prepared {
                txn: TxnId(11),
                swaps: vec![swap(2, 0, 2)],
                participants: vec![],
            },
        );
        p.apply(
            Lsn(5),
            &GRecord::Decision {
                txn: TxnId(11),
                commit: true,
            },
        );
        assert_eq!(
            p.owner_of(GranuleId(1)),
            Some(NodeId(0)),
            "txn 10 still pending"
        );
        assert_eq!(p.owner_of(GranuleId(2)), Some(NodeId(2)));
        p.apply(
            Lsn(6),
            &GRecord::Decision {
                txn: TxnId(10),
                commit: false,
            },
        );
        assert_eq!(p.owner_of(GranuleId(1)), Some(NodeId(0)));
    }

    #[test]
    fn replicas_converge_from_same_log() {
        let records = vec![
            (Lsn(1), install(1, 0)),
            (
                Lsn(2),
                GRecord::Prepared {
                    txn: TxnId(1),
                    swaps: vec![swap(1, 0, 1)],
                    participants: vec![],
                },
            ),
            (
                Lsn(3),
                GRecord::Decision {
                    txn: TxnId(1),
                    commit: true,
                },
            ),
            (
                Lsn(4),
                GRecord::OnePhase {
                    txn: TxnId(2),
                    swaps: vec![swap(1, 1, 2)],
                },
            ),
        ];
        let a = materialize(records.clone());
        let b = materialize(records);
        assert_eq!(a, b);
        assert_eq!(a.owner_of(GranuleId(1)), Some(NodeId(2)));
    }

    /// `apply_reporting` names exactly the rows whose owner changed, with
    /// the owner they had and the LSN it took them at.
    #[test]
    fn reports_ousted_owners_and_nothing_else() {
        fn apply(p: &mut GTablePartition, lsn: u64, rec: &GRecord) -> Vec<(u64, u32, u64)> {
            let mut seen = Vec::new();
            p.apply_reporting(Lsn(lsn), rec, &mut |g, owner, since| {
                seen.push((g.0, owner.0, since.0));
            });
            seen
        }
        let prepared = |txn: u64, swaps: Vec<OwnershipSwap>| GRecord::Prepared {
            txn: TxnId(txn),
            swaps,
            participants: vec![],
        };
        let decision = |txn: u64, commit: bool| GRecord::Decision {
            txn: TxnId(txn),
            commit,
        };
        let mut p = GTablePartition::new();
        // Created rows have no previous owner to report.
        assert!(apply(&mut p, 1, &install(1, 0)).is_empty());
        assert!(apply(&mut p, 2, &install(2, 0)).is_empty());
        // The same owner rewritten: no report, and its tenure still
        // starts at LSN 1 (the swap below says so).
        assert!(apply(&mut p, 3, &install(1, 0)).is_empty());
        let one_phase = GRecord::OnePhase {
            txn: TxnId(1),
            swaps: vec![swap(1, 0, 5), swap(9, 0, 5)],
        };
        assert_eq!(apply(&mut p, 4, &one_phase), vec![(1, 0, 1)]);
        // An install over another owner's row.
        assert_eq!(apply(&mut p, 5, &install(1, 0)), vec![(1, 5, 4)]);
        // Prepared swaps and aborted decisions move nothing...
        assert!(apply(&mut p, 6, &prepared(7, vec![swap(2, 0, 3)])).is_empty());
        assert!(apply(&mut p, 7, &decision(7, false)).is_empty());
        assert!(apply(&mut p, 8, &prepared(8, vec![swap(2, 0, 3)])).is_empty());
        // ...a committing decision releases them, stamped at its own LSN.
        assert_eq!(apply(&mut p, 9, &decision(8, true)), vec![(2, 0, 2)]);
        assert!(apply(&mut p, 10, &decision(99, true)).is_empty());
        let back = GRecord::OnePhase {
            txn: TxnId(2),
            swaps: vec![swap(2, 3, 0)],
        };
        assert_eq!(apply(&mut p, 11, &back), vec![(2, 3, 9)]);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_application_panics() {
        let mut p = GTablePartition::new();
        p.apply(Lsn(2), &install(1, 0));
        p.apply(Lsn(1), &install(2, 0));
    }
}
