//! Shared write-ahead logs with conditional append (`Append@LSN`).
//!
//! A [`SharedLog`] is the ground truth of the database (log-as-the-database,
//! §3.1). The coordination-critical primitive is
//! [`SharedLog::conditional_append`]: an atomic compare-and-swap on the log
//! tail. MarlinCommit's `TryLog` is built entirely on this operation
//! (Algorithm 2), so its semantics here are written to match the paper and
//! the Azure/S3/GCS contracts described in §5:
//!
//! - If the log's current LSN equals the caller's expected LSN, all records
//!   are appended **atomically** (one log operation — this is what makes
//!   group commit a single CAS) and the new LSN is returned.
//! - Otherwise nothing is appended and the *current* LSN is returned so the
//!   caller can refresh its tracker.

use bytes::Bytes;
use marlin_common::{Lsn, StorageError};
use parking_lot::Mutex;
use std::sync::Arc;

/// One record in a shared log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// LSN of this record: the log's version *after* the record. The first
    /// record of a log has `Lsn(1)`.
    pub lsn: Lsn,
    /// Opaque payload (the storage layer does not interpret it; the replay
    /// service decodes page updates from it via [`crate::wire`]).
    pub payload: Bytes,
}

/// Result of a successful append.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendOutcome {
    /// The log's LSN after the append.
    pub new_lsn: Lsn,
}

#[derive(Debug, Default)]
struct LogInner {
    records: Vec<LogRecord>,
    /// Bytes appended over the log's lifetime (stats/bandwidth accounting).
    bytes: u64,
    /// Failed CAS attempts observed (contention signal, Figure 15).
    cas_failures: u64,
    /// Conditional appends attempted (successes + failures) — the
    /// coordination-op count `Append@LSN` accounting reads.
    cas_attempts: u64,
}

/// A shared, append-only log in disaggregated storage.
///
/// Cheaply clonable (`Arc` inside); all clones view the same log. Thread
/// safe: the internal mutex models the atomicity the storage service
/// guarantees for a single conditional-append operation.
#[derive(Clone, Debug, Default)]
pub struct SharedLog {
    inner: Arc<Mutex<LogInner>>,
}

impl SharedLog {
    /// Create an empty log at [`Lsn::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        SharedLog::default()
    }

    /// Current LSN (number of records appended).
    #[must_use]
    pub fn end_lsn(&self) -> Lsn {
        Lsn(self.inner.lock().records.len() as u64)
    }

    /// Unconditional `Append(updates)`: always succeeds, appending each
    /// payload as one record, atomically.
    pub fn append(&self, payloads: Vec<Bytes>) -> AppendOutcome {
        let mut inner = self.inner.lock();
        Self::push_all(&mut inner, payloads)
    }

    /// Conditional `Append(updates, LSN)` — the paper's `Append@LSN`.
    ///
    /// Appends all payloads atomically iff the log's current LSN equals
    /// `expected`. On mismatch, returns [`StorageError::LsnMismatch`]
    /// carrying the log's current LSN (the paper's API returns the newest
    /// LSN to let the caller retry with an updated target).
    pub fn conditional_append(
        &self,
        payloads: Vec<Bytes>,
        expected: Lsn,
    ) -> Result<AppendOutcome, StorageError> {
        let mut inner = self.inner.lock();
        inner.cas_attempts += 1;
        let current = Lsn(inner.records.len() as u64);
        if current != expected {
            inner.cas_failures += 1;
            return Err(StorageError::LsnMismatch {
                log: marlin_common::LogId::SysLog, // overwritten by the service wrapper
                expected,
                current,
            });
        }
        Ok(Self::push_all(&mut inner, payloads))
    }

    fn push_all(inner: &mut LogInner, payloads: Vec<Bytes>) -> AppendOutcome {
        for payload in payloads {
            let lsn = Lsn(inner.records.len() as u64 + 1);
            inner.bytes += payload.len() as u64;
            inner.records.push(LogRecord { lsn, payload });
        }
        AppendOutcome {
            new_lsn: Lsn(inner.records.len() as u64),
        }
    }

    /// Read all records with LSN strictly greater than `after`, i.e. the
    /// suffix the caller has not yet observed.
    #[must_use]
    pub fn read_after(&self, after: Lsn) -> Vec<LogRecord> {
        let inner = self.inner.lock();
        let start = (after.0 as usize).min(inner.records.len());
        inner.records[start..].to_vec()
    }

    /// Read a single record by LSN (1-based).
    #[must_use]
    pub fn read_at(&self, lsn: Lsn) -> Option<LogRecord> {
        if lsn == Lsn::ZERO {
            return None;
        }
        let inner = self.inner.lock();
        inner.records.get(lsn.0 as usize - 1).cloned()
    }

    /// Total bytes appended over the log's lifetime.
    #[must_use]
    pub fn bytes_appended(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Number of failed conditional appends (cross-node contention signal).
    #[must_use]
    pub fn cas_failures(&self) -> u64 {
        self.inner.lock().cas_failures
    }

    /// Number of conditional appends attempted (successes + failures).
    #[must_use]
    pub fn cas_attempts(&self) -> u64 {
        self.inner.lock().cas_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn unconditional_append_advances_lsn() {
        let log = SharedLog::new();
        assert_eq!(log.end_lsn(), Lsn::ZERO);
        let out = log.append(vec![b("a"), b("b")]);
        assert_eq!(out.new_lsn, Lsn(2));
        assert_eq!(log.end_lsn(), Lsn(2));
    }

    #[test]
    fn conditional_append_succeeds_at_expected_lsn() {
        let log = SharedLog::new();
        let out = log.conditional_append(vec![b("x")], Lsn::ZERO).unwrap();
        assert_eq!(out.new_lsn, Lsn(1));
        let out = log.conditional_append(vec![b("y")], Lsn(1)).unwrap();
        assert_eq!(out.new_lsn, Lsn(2));
    }

    #[test]
    fn conditional_append_fails_with_current_lsn() {
        let log = SharedLog::new();
        log.append(vec![b("1"), b("2"), b("3")]);
        let err = log
            .conditional_append(vec![b("stale")], Lsn(1))
            .unwrap_err();
        match err {
            StorageError::LsnMismatch {
                expected, current, ..
            } => {
                assert_eq!(expected, Lsn(1));
                assert_eq!(current, Lsn(3));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Nothing was appended.
        assert_eq!(log.end_lsn(), Lsn(3));
        assert_eq!(log.cas_failures(), 1);
    }

    #[test]
    fn batch_conditional_append_is_all_or_nothing() {
        let log = SharedLog::new();
        log.conditional_append(vec![b("a"), b("b"), b("c")], Lsn::ZERO)
            .unwrap();
        assert_eq!(log.end_lsn(), Lsn(3));
        assert!(log
            .conditional_append(vec![b("d"), b("e")], Lsn(2))
            .is_err());
        assert_eq!(log.end_lsn(), Lsn(3));
        let records = log.read_after(Lsn::ZERO);
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].payload, b("c"));
    }

    #[test]
    fn read_after_returns_unseen_suffix() {
        let log = SharedLog::new();
        log.append(vec![b("a"), b("b"), b("c")]);
        let suffix = log.read_after(Lsn(1));
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].lsn, Lsn(2));
        assert_eq!(suffix[1].lsn, Lsn(3));
        assert!(log.read_after(Lsn(3)).is_empty());
        assert!(log.read_after(Lsn(99)).is_empty());
    }

    #[test]
    fn read_at_is_one_based() {
        let log = SharedLog::new();
        log.append(vec![b("first")]);
        assert_eq!(log.read_at(Lsn(1)).unwrap().payload, b("first"));
        assert!(log.read_at(Lsn::ZERO).is_none());
        assert!(log.read_at(Lsn(2)).is_none());
    }

    #[test]
    fn clones_share_state() {
        let log = SharedLog::new();
        let view = log.clone();
        log.append(vec![b("shared")]);
        assert_eq!(view.end_lsn(), Lsn(1));
    }

    /// The linchpin of MarlinCommit: under concurrent conditional appends
    /// with the same expected LSN, exactly one writer wins per round.
    #[test]
    fn concurrent_cas_has_exactly_one_winner_per_lsn() {
        use std::thread;
        let log = SharedLog::new();
        let threads = 8;
        let rounds = 50;
        let wins: Vec<u64> = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let log = log.clone();
                    scope.spawn(move || {
                        let mut wins = 0u64;
                        let mut known = Lsn::ZERO;
                        while log.end_lsn().0 < rounds {
                            match log
                                .conditional_append(vec![Bytes::copy_from_slice(&[t as u8])], known)
                            {
                                Ok(out) => {
                                    wins += 1;
                                    known = out.new_lsn;
                                }
                                Err(StorageError::LsnMismatch { current, .. }) => {
                                    known = current;
                                    thread::yield_now();
                                }
                                Err(e) => panic!("unexpected {e:?}"),
                            }
                        }
                        wins
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total: u64 = wins.iter().sum();
        // Threads race past `rounds`; every appended record corresponds to
        // exactly one win and LSNs are dense (no lost or duplicate slots).
        assert_eq!(total, log.end_lsn().0);
        let records = log.read_after(Lsn::ZERO);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.lsn, Lsn(i as u64 + 1));
        }
    }
}
