//! Sans-io protocol drivers.
//!
//! Protocol logic is expressed as state machines that emit [`Effect`]s and
//! consume [`Input`]s. A *runner* fulfills effects and feeds results back:
//! the synchronous [`crate::runtime`] used by tests/examples against real
//! storage, and the discrete-event cluster simulator's effect pricer
//! against its logs and stations in virtual time. For migration
//! (`MigrationTxn`) and membership (`AddNodeTxn`/`DeleteNodeTxn`) both
//! runners execute the *same* protocol code, so the protocol being
//! benchmarked is the protocol being tested. The simulator still models
//! a crash as a drain rather than running `RecoveryMigrTxn`, and prices
//! user commits analytically.
//!
//! [`commit`] implements MarlinCommit (Algorithm 2); [`reconfig`]
//! implements the five reconfiguration transactions (Table 1, Algorithm 1).

pub mod commit;
pub mod reconfig;

pub use commit::{CommitDriver, CommitOutcome, Participant, Updates};
pub use reconfig::{
    AddNodeDriver, DeleteNodeDriver, MigrationDriver, RecoveryMigrDriver, ScanGTableDriver,
};

use bytes::Bytes;
use marlin_common::{LogId, Lsn, NodeId, TxnId};

/// An action a driver asks its runner to perform.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// `Append@LSN` — conditional append of `payload` to `log`, succeeding
    /// only if the log is at `expected` (TryLog's storage operation).
    ConditionalAppend {
        log: LogId,
        payload: Bytes,
        expected: Lsn,
    },
    /// Unconditional append (decision broadcast to a log participant).
    Append { log: LogId, payload: Bytes },
    /// Check that `log`'s current LSN equals `expected` without appending
    /// (read-only participants of `ScanGTableTxn`).
    ValidateLsn { log: LogId, expected: Lsn },
    /// Send a `VOTE-REQ` carrying the peer's prepared record; the peer
    /// performs TryLog on its own log and replies with its vote.
    SendVoteReq {
        to: NodeId,
        txn: TxnId,
        payload: Bytes,
    },
    /// Broadcast the decision to a peer participant node.
    SendDecision {
        to: NodeId,
        txn: TxnId,
        commit: bool,
    },
    /// Invalidate the local cache of the system table backed by `log`
    /// (Algorithm 2 `ClearMetaCache`): SysLog ⇒ MTable cache, `GLog(n)` ⇒
    /// node `n`'s GTable partition cache.
    ClearMetaCache { log: LogId },
    /// Synchronously read (and write-lock, NO_WAIT) the GTable entries of
    /// `granules` at a peer node — MigrationTxn's data-effectiveness check
    /// (Algorithm 1 lines 20-21).
    ReadOwnersRemote {
        at: NodeId,
        txn: TxnId,
        granules: Vec<marlin_common::GranuleId>,
    },
    /// Release any locks the runner acquired on behalf of this txn at a
    /// peer (abort path of cross-node reconfigurations).
    ReleaseRemote { at: NodeId, txn: TxnId },
    /// Request a GTable partition scan from a peer (`ScanGTableTxn`). The
    /// peer validates its own GLog LSN (its TryLog-style vote) before
    /// answering.
    SendScanReq { to: NodeId, txn: TxnId },
}

/// A result the runner feeds back into a driver.
#[derive(Clone, Debug, PartialEq)]
pub enum Input {
    /// A (conditional or unconditional) append completed.
    AppendOk { log: LogId, new_lsn: Lsn },
    /// A conditional append failed; `current` is the log's actual LSN.
    AppendConflict { log: LogId, current: Lsn },
    /// LSN validation passed.
    ValidateOk { log: LogId },
    /// LSN validation failed; the log moved to `current`.
    ValidateConflict { log: LogId, current: Lsn },
    /// A peer's vote (its TryLog outcome).
    VoteResp { from: NodeId, yes: bool },
    /// Reply to [`Effect::ReadOwnersRemote`]: each granule's entry per the
    /// peer's GTable partition (granules with no entry are omitted), or
    /// `None` overall if the peer aborted the read (NO_WAIT lock conflict).
    OwnersAt {
        from: NodeId,
        owners: Option<Vec<(marlin_common::GranuleId, crate::gtable::GranuleMeta)>>,
    },
    /// Reply to [`Effect::SendScanReq`].
    ScanResp {
        from: NodeId,
        entries: Vec<(marlin_common::GranuleId, crate::gtable::GranuleMeta)>,
    },
    /// The peer did not answer within the runner's timeout (failure path).
    Timeout { from: NodeId },
}
