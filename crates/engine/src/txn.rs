//! Per-transaction execution context.
//!
//! A [`TxnCtx`] accumulates the locks, reads, and writes of one transaction
//! as it executes, then hands its write set to the commit path (group
//! commit → WAL append) and releases locks. State transitions follow the
//! usual lifecycle: `Active → Committing → Committed` or `→ Aborted`.

use crate::locks::LockTarget;
use crate::wal::RowWrite;
use marlin_common::TxnId;

/// Lifecycle state of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnState {
    /// Executing: acquiring locks, buffering writes.
    Active,
    /// Commit initiated (votes or log append in flight).
    Committing,
    /// Durably committed.
    Committed,
    /// Aborted (NO_WAIT conflict, wrong node, or commit conflict).
    Aborted,
}

/// Execution context of one transaction on one node.
#[derive(Clone, Debug)]
pub struct TxnCtx<'a> {
    /// Transaction identity.
    pub id: TxnId,
    /// Current lifecycle state.
    pub state: TxnState,
    /// Locks acquired (released wholesale at end of transaction).
    pub locks: Vec<LockTarget>,
    /// Buffered writes, applied and logged only at commit.
    pub writes: Vec<RowWrite<'a>>,
    /// Number of read operations performed (statistics).
    pub reads: u64,
}

impl<'a> TxnCtx<'a> {
    /// Begin a transaction.
    #[must_use]
    pub fn begin(id: TxnId) -> Self {
        TxnCtx {
            id,
            state: TxnState::Active,
            locks: Vec::new(),
            writes: Vec::new(),
            reads: 0,
        }
    }

    /// Record an acquired lock.
    pub fn track_lock(&mut self, target: LockTarget) {
        self.locks.push(target);
    }

    /// Buffer a write.
    pub fn buffer_write(&mut self, write: RowWrite<'a>) {
        debug_assert_eq!(self.state, TxnState::Active, "writes only while active");
        self.writes.push(write);
    }

    /// Move to the committing state (no more execution).
    pub fn start_commit(&mut self) {
        debug_assert_eq!(self.state, TxnState::Active);
        self.state = TxnState::Committing;
    }

    /// Mark durably committed.
    pub fn mark_committed(&mut self) {
        debug_assert_eq!(self.state, TxnState::Committing);
        self.state = TxnState::Committed;
    }

    /// Mark aborted (valid from any non-terminal state).
    pub fn mark_aborted(&mut self) {
        debug_assert_ne!(
            self.state,
            TxnState::Committed,
            "cannot abort a committed txn"
        );
        self.state = TxnState::Aborted;
    }

    /// Whether the transaction reached a terminal state.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.state, TxnState::Committed | TxnState::Aborted)
    }

    /// Whether the transaction wrote anything (read-only txns skip logging).
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_common::{GranuleId, NodeId, TableId};

    fn w(key: u64) -> RowWrite<'static> {
        RowWrite {
            table: TableId(0),
            granule: GranuleId(0),
            key,
            page_index: 0,
            value: b"v",
        }
    }

    #[test]
    fn lifecycle_commit_path() {
        let mut t = TxnCtx::begin(TxnId::new(NodeId(0), 1));
        assert_eq!(t.state, TxnState::Active);
        t.buffer_write(w(1));
        t.start_commit();
        assert_eq!(t.state, TxnState::Committing);
        t.mark_committed();
        assert!(t.is_done());
        assert!(!t.is_read_only());
    }

    #[test]
    fn lifecycle_abort_path() {
        let mut t = TxnCtx::begin(TxnId::new(NodeId(0), 2));
        t.mark_aborted();
        assert_eq!(t.state, TxnState::Aborted);
        assert!(t.is_done());
    }

    #[test]
    fn read_only_detection() {
        let mut t = TxnCtx::begin(TxnId::new(NodeId(0), 3));
        t.reads += 5;
        assert!(t.is_read_only());
        t.buffer_write(w(9));
        assert!(!t.is_read_only());
    }
}
