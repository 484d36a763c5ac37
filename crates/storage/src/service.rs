//! The storage service façade: named log instances plus their page stores.
//!
//! One [`StorageService`] models the disaggregated storage account of the
//! testbed (§5): it hosts the global `SysLog`, one `GLog` per compute node,
//! and one data WAL per compute node, each paired with a page store and a
//! replay service. Logs for new nodes are provisioned on scale-out and kept
//! (highly available) across compute-node failures — that persistence is
//! exactly what lets `RecoveryMigrTxn` commit to a dead node's GLog.

use crate::log::{AppendOutcome, SharedLog};
use crate::page::PageStore;
use crate::replay::ReplayService;
use bytes::Bytes;
use marlin_common::{LogId, Lsn, NodeId, StorageError};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-log statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Current end LSN.
    pub end_lsn: Lsn,
    /// Bytes appended over the log's lifetime.
    pub bytes_appended: u64,
    /// Failed conditional appends (cross-node contention).
    pub cas_failures: u64,
    /// Conditional appends attempted (successes + failures).
    pub cas_attempts: u64,
}

#[derive(Debug, Default)]
struct ServiceInner {
    logs: BTreeMap<LogId, ReplayService>,
    /// The shared page store all logs materialize into (pages are keyed by
    /// `PageId` alone; exclusive granule ownership keeps per-page update
    /// sequences serial across logs).
    store: PageStore,
}

/// The disaggregated storage service: a registry of logs plus the shared
/// page store.
///
/// Cheaply clonable; clones share state.
#[derive(Clone, Debug, Default)]
pub struct StorageService {
    inner: Arc<RwLock<ServiceInner>>,
}

impl StorageService {
    /// Create an empty service with only the SysLog provisioned.
    #[must_use]
    pub fn new() -> Self {
        let svc = StorageService::default();
        svc.create_log(LogId::SysLog);
        svc
    }

    /// Provision a log instance (idempotent).
    pub fn create_log(&self, id: LogId) {
        let mut inner = self.inner.write();
        let store = inner.store.clone();
        inner
            .logs
            .entry(id)
            .or_insert_with(|| ReplayService::new(id, SharedLog::new(), store));
    }

    /// Provision the per-node logs (GLog + data WAL) for a new compute node.
    pub fn provision_node(&self, node: NodeId) {
        self.create_log(LogId::GLog(node));
        self.create_log(LogId::DataWal(node));
    }

    /// Whether a log exists.
    #[must_use]
    pub fn has_log(&self, id: LogId) -> bool {
        self.inner.read().logs.contains_key(&id)
    }

    /// All provisioned log IDs.
    #[must_use]
    pub fn log_ids(&self) -> Vec<LogId> {
        self.inner.read().logs.keys().copied().collect()
    }

    fn replay_service(&self, id: LogId) -> Result<ReplayService, StorageError> {
        self.inner
            .read()
            .logs
            .get(&id)
            .cloned()
            .ok_or(StorageError::NoSuchLog(id))
    }

    /// Handle to a log (for reads and replay driving).
    pub fn log(&self, id: LogId) -> Result<SharedLog, StorageError> {
        Ok(self.replay_service(id)?.log().clone())
    }

    /// Handle to the shared page store.
    #[must_use]
    pub fn page_store(&self) -> PageStore {
        self.inner.read().store.clone()
    }

    /// Handle to a log's replay service.
    pub fn replay(&self, id: LogId) -> Result<ReplayService, StorageError> {
        self.replay_service(id)
    }

    /// Unconditional `Append(updates)`.
    pub fn append(&self, id: LogId, payloads: Vec<Bytes>) -> Result<AppendOutcome, StorageError> {
        Ok(self.replay_service(id)?.log().append(payloads))
    }

    /// Conditional `Append(updates, LSN)` — `Append@LSN` (§4.3.1).
    ///
    /// On mismatch the error carries the correct [`LogId`] and the log's
    /// current LSN.
    pub fn conditional_append(
        &self,
        id: LogId,
        payloads: Vec<Bytes>,
        expected: Lsn,
    ) -> Result<AppendOutcome, StorageError> {
        let svc = self.replay_service(id)?;
        svc.log()
            .conditional_append(payloads, expected)
            .map_err(|e| match e {
                StorageError::LsnMismatch {
                    expected, current, ..
                } => StorageError::LsnMismatch {
                    log: id,
                    expected,
                    current,
                },
                other => other,
            })
    }

    /// Current end LSN of a log.
    pub fn end_lsn(&self, id: LogId) -> Result<Lsn, StorageError> {
        Ok(self.replay_service(id)?.log().end_lsn())
    }

    /// Statistics snapshot for one log.
    pub fn stats(&self, id: LogId) -> Result<LogStats, StorageError> {
        let svc = self.replay_service(id)?;
        let log = svc.log();
        Ok(LogStats {
            end_lsn: log.end_lsn(),
            bytes_appended: log.bytes_appended(),
            cas_failures: log.cas_failures(),
            cas_attempts: log.cas_attempts(),
        })
    }

    /// Drive replay to the tail on every log (used by tests and the
    /// synchronous runner; the simulator steps replay with virtual delay).
    pub fn replay_all(&self) {
        let services: Vec<ReplayService> = self.inner.read().logs.values().cloned().collect();
        for svc in services {
            svc.replay_until(Lsn(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn new_service_has_syslog_only() {
        let svc = StorageService::new();
        assert!(svc.has_log(LogId::SysLog));
        assert_eq!(svc.log_ids(), vec![LogId::SysLog]);
    }

    #[test]
    fn provision_node_creates_glog_and_wal() {
        let svc = StorageService::new();
        svc.provision_node(NodeId(3));
        assert!(svc.has_log(LogId::GLog(NodeId(3))));
        assert!(svc.has_log(LogId::DataWal(NodeId(3))));
        // Idempotent: re-provisioning keeps existing content.
        svc.append(LogId::GLog(NodeId(3)), vec![b("x")]).unwrap();
        svc.provision_node(NodeId(3));
        assert_eq!(svc.end_lsn(LogId::GLog(NodeId(3))).unwrap(), Lsn(1));
    }

    #[test]
    fn missing_log_errors() {
        let svc = StorageService::new();
        let id = LogId::GLog(NodeId(9));
        assert_eq!(
            svc.append(id, vec![b("x")]).unwrap_err(),
            StorageError::NoSuchLog(id)
        );
        assert_eq!(svc.end_lsn(id).unwrap_err(), StorageError::NoSuchLog(id));
    }

    #[test]
    fn conditional_append_error_names_the_log() {
        let svc = StorageService::new();
        svc.provision_node(NodeId(1));
        let id = LogId::GLog(NodeId(1));
        svc.append(id, vec![b("r1")]).unwrap();
        let err = svc
            .conditional_append(id, vec![b("r2")], Lsn::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            StorageError::LsnMismatch {
                log: id,
                expected: Lsn::ZERO,
                current: Lsn(1)
            }
        );
    }

    #[test]
    fn stats_track_appends_and_failures() {
        let svc = StorageService::new();
        svc.append(LogId::SysLog, vec![b("abcd")]).unwrap();
        let _ = svc.conditional_append(LogId::SysLog, vec![b("x")], Lsn::ZERO);
        let stats = svc.stats(LogId::SysLog).unwrap();
        assert_eq!(stats.end_lsn, Lsn(1));
        assert_eq!(stats.bytes_appended, 4);
        assert_eq!(stats.cas_failures, 1);
    }

    #[test]
    fn replay_all_catches_up_every_log() {
        let svc = StorageService::new();
        svc.provision_node(NodeId(0));
        svc.append(LogId::SysLog, vec![b("m1")]).unwrap();
        svc.append(LogId::DataWal(NodeId(0)), vec![b("d1"), b("d2")])
            .unwrap();
        svc.replay_all();
        let store = svc.page_store();
        assert_eq!(store.replayed_lsn(LogId::SysLog), Lsn(1));
        assert_eq!(store.replayed_lsn(LogId::DataWal(NodeId(0))), Lsn(2));
    }
}
