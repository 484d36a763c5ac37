//! Error types shared across the storage, engine, and coordination layers.
//!
//! The error vocabulary mirrors the paper's Algorithm 1: user transactions
//! fail with `WrongNodeError` when ownership has moved, membership
//! transactions fail with `NodeAlreadyExist` / `NodeNotExist`, and the
//! conditional append path surfaces `LsnMismatch` (the CAS failure that
//! MarlinCommit converts into an abort + cache invalidation).

use crate::ids::{GranuleId, LogId, Lsn, NodeId};
use std::error::Error;
use std::fmt;

/// Errors raised by the disaggregated storage service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// Conditional append failed: the log tail has advanced past the
    /// caller's expected LSN. Carries the log's *current* LSN so the caller
    /// can refresh its tracker and retry (paper §4.3.1).
    LsnMismatch {
        log: LogId,
        expected: Lsn,
        current: Lsn,
    },
    /// The referenced log instance does not exist (e.g. the node was
    /// deleted and its GLog garbage-collected).
    NoSuchLog(LogId),
    /// The requested page has never been written.
    NoSuchPage,
    /// The page store has not yet replayed the log up to the requested LSN
    /// and the caller asked not to wait.
    ReplayLag { applied: Lsn, requested: Lsn },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::LsnMismatch {
                log,
                expected,
                current,
            } => write!(
                f,
                "conditional append on {log} failed: expected LSN {expected}, log is at {current}"
            ),
            StorageError::NoSuchLog(log) => write!(f, "log {log} does not exist"),
            StorageError::NoSuchPage => write!(f, "page has never been written"),
            StorageError::ReplayLag { applied, requested } => write!(
                f,
                "page store replay at LSN {applied}, behind requested {requested}"
            ),
        }
    }
}

impl Error for StorageError {}

/// Errors raised by the transaction layer (user and reconfiguration txns).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnError {
    /// The granule is not owned by the node that received the request; the
    /// client should redirect to `owner` (Algorithm 1 lines 5-6).
    WrongNode { granule: GranuleId, owner: NodeId },
    /// 2PL `NO_WAIT`: a lock conflict aborts the requester immediately.
    LockConflict { granule: GranuleId },
    /// MarlinCommit aborted because a cross-node modification was detected
    /// on one of the participant logs (TryLog returned ABORT).
    CommitConflict { log: LogId, current: Lsn },
    /// A participant voted NO or could not be reached in 2PC.
    VoteNo,
    /// The transaction was aborted because its node is shutting down or
    /// has been removed from the membership.
    NodeUnavailable(NodeId),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::WrongNode { granule, owner } => {
                write!(f, "granule {granule} is owned by {owner}, not this node")
            }
            TxnError::LockConflict { granule } => {
                write!(f, "NO_WAIT lock conflict on granule {granule}")
            }
            TxnError::CommitConflict { log, current } => {
                write!(
                    f,
                    "cross-node modification detected on {log} (now at LSN {current})"
                )
            }
            TxnError::VoteNo => write!(f, "a 2PC participant voted NO"),
            TxnError::NodeUnavailable(n) => write!(f, "node {n} is unavailable"),
        }
    }
}

impl Error for TxnError {}

/// Errors raised by coordination (reconfiguration) operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoordError {
    /// `AddNodeTxn` found the node already present in MTable.
    NodeAlreadyExist(NodeId),
    /// `DeleteNodeTxn` found the node absent from MTable.
    NodeNotExist(NodeId),
    /// `MigrationTxn`/`RecoveryMigrTxn` data-effectiveness check failed:
    /// the granule is not currently owned by the expected source node.
    WrongOwner {
        granule: GranuleId,
        expected: NodeId,
        actual: NodeId,
    },
    /// The underlying commit aborted (cross-node modification); retryable.
    Aborted(TxnError),
    /// A coordination request gave up without a result: `LocalCluster`'s
    /// membership and scan retries exhausted, or a scan read before it
    /// finished.
    ServiceError(String),
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::NodeAlreadyExist(n) => write!(f, "node {n} already in membership"),
            CoordError::NodeNotExist(n) => write!(f, "node {n} not in membership"),
            CoordError::WrongOwner {
                granule,
                expected,
                actual,
            } => write!(
                f,
                "granule {granule} expected owner {expected} but found {actual}"
            ),
            CoordError::Aborted(e) => write!(f, "reconfiguration aborted: {e}"),
            CoordError::ServiceError(msg) => write!(f, "coordination service error: {msg}"),
        }
    }
}

impl Error for CoordError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoordError::Aborted(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TxnError> for CoordError {
    fn from(e: TxnError) -> Self {
        CoordError::Aborted(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::LsnMismatch {
            log: LogId::SysLog,
            expected: Lsn(2),
            current: Lsn(3),
        };
        let msg = e.to_string();
        assert!(msg.contains("SysLog"));
        assert!(msg.contains("expected LSN 2"));
        assert!(msg.contains("at 3"));
    }

    #[test]
    fn wrong_node_names_the_owner() {
        let e = TxnError::WrongNode {
            granule: GranuleId(9),
            owner: NodeId(4),
        };
        assert!(e.to_string().contains("N4"));
        assert!(e.to_string().contains("G9"));
    }

    #[test]
    fn coord_error_chains_source() {
        let inner = TxnError::CommitConflict {
            log: LogId::GLog(NodeId(1)),
            current: Lsn(7),
        };
        let outer: CoordError = inner.clone().into();
        assert_eq!(outer, CoordError::Aborted(inner));
        assert!(Error::source(&outer).is_some());
    }
}
