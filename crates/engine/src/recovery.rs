//! Row recovery from the disaggregated storage layer.
//!
//! Because compute nodes are stateless (§3.2), a node that takes over a
//! granule — scale-out migration or failover — reconstructs the granule's
//! rows from storage, through the read path of the paper's LogDB:
//! [`recover_granule_from_pages`] fetches the granule's pages via
//! `GetPage@LSN` and folds their delta chains into rows. Replay keeps each
//! delta as a window into its log record's payload, and each recovered
//! value is a window into its delta, so a recovered row shares its bytes
//! with the log, as a committed one does: recovery copies no value.

use crate::store::Granule;
use crate::wal::TxnUpdateRecord;
use marlin_common::{GranuleId, KeyRange, LogId, Lsn, PageId, StorageError, TableId};
use marlin_storage::PageStore;

/// Rebuild a granule's rows by reading pages from the page store.
///
/// `pages_per_granule` must match the layout used on the write path.
/// `(log, as_of)` names the WAL whose replay must have reached `as_of`
/// (typically the failed owner's GLog at the caller's tracked H-LSN);
/// otherwise the underlying [`StorageError::ReplayLag`] is returned so the
/// caller can wait/drive replay and retry.
pub fn recover_granule_from_pages(
    store: &PageStore,
    table: TableId,
    granule: GranuleId,
    range: KeyRange,
    pages_per_granule: u32,
    log: LogId,
    as_of: Lsn,
) -> Result<Granule, StorageError> {
    let mut g = Granule::new(range);
    for index in 0..pages_per_granule {
        let pid = PageId {
            table,
            granule,
            index,
        };
        match store.get_page(pid, log, as_of) {
            Ok(page) => {
                // Deltas are ordered; later writes overwrite earlier ones.
                for (key, value) in TxnUpdateRecord::rows_from_page_deltas(&page.deltas) {
                    g.rows.insert(key, value);
                }
                if !page.base.is_empty() {
                    // Full images carry the same key|len|bytes encoding.
                    let base_rows =
                        TxnUpdateRecord::rows_from_page_deltas(std::slice::from_ref(&page.base));
                    for (key, value) in base_rows {
                        g.rows.entry(key).or_insert(value);
                    }
                }
            }
            Err(StorageError::NoSuchPage) => continue, // never-written page
            Err(e) => return Err(e),
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::RowWrite;
    use bytes::Bytes;
    use marlin_common::NodeId;
    use marlin_storage::{ReplayService, SharedLog};
    use std::collections::BTreeMap;

    fn write(key: u64, value: &'static str, page_index: u32) -> RowWrite<'static> {
        RowWrite {
            table: TableId(0),
            granule: GranuleId(0),
            key,
            page_index,
            value: value.as_bytes(),
        }
    }

    /// Append each record's commit payload to a fresh GLog, replay the
    /// log into a page store, and recover granule 0 from the pages.
    fn recover_through_replay(records: &[TxnUpdateRecord<'_>]) -> Granule {
        let log = SharedLog::new();
        let store = PageStore::new();
        let id = LogId::GLog(NodeId(0));
        let replay = ReplayService::new(id, log.clone(), store.clone());
        for r in records {
            log.append(vec![r.encode_page_updates().payload().clone()]);
        }
        replay.replay_until(log.end_lsn());
        let range = KeyRange::new(0, 100);
        recover_granule_from_pages(
            &store,
            TableId(0),
            GranuleId(0),
            range,
            2,
            id,
            log.end_lsn(),
        )
        .unwrap()
    }

    #[test]
    fn log_recovery_applies_writes_in_order() {
        let g = recover_through_replay(&[
            TxnUpdateRecord {
                writes: vec![write(5, "v1", 0), write(6, "a", 0)],
            },
            TxnUpdateRecord {
                writes: vec![write(5, "v2", 0)],
            },
        ]);
        assert_eq!(g.rows.len(), 2);
        assert_eq!(g.rows[&5], Bytes::from_static(b"v2"));
        assert_eq!(g.rows[&6], Bytes::from_static(b"a"));
    }

    #[test]
    fn log_recovery_filters_other_granules() {
        let other = RowWrite {
            table: TableId(0),
            granule: GranuleId(7),
            key: 5,
            page_index: 0,
            value: b"other",
        };
        let g = recover_through_replay(&[TxnUpdateRecord {
            writes: vec![write(1, "mine", 0), other],
        }]);
        assert_eq!(g.rows.len(), 1);
        assert!(g.rows.contains_key(&1));
    }

    #[test]
    fn page_recovery_matches_log_recovery() {
        // Page path: replay the records' page updates into a page store,
        // then recover from pages; must agree with the last writer of each
        // key across the records.
        let store = PageStore::new();
        let records = [
            TxnUpdateRecord {
                writes: vec![write(1, "x", 0), write(60, "y", 1)],
            },
            TxnUpdateRecord {
                writes: vec![write(1, "x2", 0)],
            },
        ];
        for (i, r) in records.iter().enumerate() {
            store.apply(
                LogId::GLog(NodeId(0)),
                Lsn(i as u64 + 1),
                &r.to_page_updates(),
            );
        }
        let from_pages = recover_granule_from_pages(
            &store,
            TableId(0),
            GranuleId(0),
            KeyRange::new(0, 100),
            2,
            LogId::GLog(NodeId(0)),
            Lsn(2),
        )
        .unwrap();
        let mut last_writer = BTreeMap::new();
        for w in records.iter().flat_map(|r| &r.writes) {
            last_writer.insert(w.key, Bytes::copy_from_slice(w.value));
        }
        assert_eq!(from_pages.rows, last_writer);
        assert_eq!(last_writer[&1], Bytes::from_static(b"x2"));
    }

    #[test]
    fn page_recovery_respects_replay_lag() {
        let store = PageStore::new();
        let err = recover_granule_from_pages(
            &store,
            TableId(0),
            GranuleId(0),
            KeyRange::new(0, 100),
            1,
            LogId::GLog(NodeId(0)),
            Lsn(3),
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::ReplayLag { .. }));
    }

    #[test]
    fn replay_service_feeds_page_recovery_end_to_end() {
        // Full pipeline: WAL append (page-update encoding) → ReplayService
        // → page store → recovery.
        let log = SharedLog::new();
        let store = PageStore::new();
        let replay = ReplayService::new(LogId::GLog(NodeId(1)), log.clone(), store.clone());
        let record = TxnUpdateRecord {
            writes: vec![write(10, "end2end", 0)],
        };
        // On the wire, the storage layer stores the page-update encoding.
        log.append(vec![marlin_storage::encode_page_updates(
            &record.to_page_updates(),
        )]);
        replay.replay_until(Lsn(1));
        let g = recover_granule_from_pages(
            &store,
            TableId(0),
            GranuleId(0),
            KeyRange::new(0, 100),
            1,
            LogId::GLog(NodeId(1)),
            Lsn(1),
        )
        .unwrap();
        assert_eq!(g.rows[&10], Bytes::from_static(b"end2end"));
    }
}
