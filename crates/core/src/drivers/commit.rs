//! MarlinCommit (Algorithm 2): atomic commit with cross-node-modification
//! detection.
//!
//! MarlinCommit extends conventional 1PC/2PC in two ways:
//!
//! 1. `Log()` is replaced by `TryLog()` — a conditional append that
//!    succeeds only if the log's LSN still equals the node's last observed
//!    H-LSN. A failure means another node has modified shared state since;
//!    the transaction aborts and the corresponding system-table cache is
//!    invalidated (`ClearMetaCache`).
//! 2. Participants may be **log instances**, not just compute nodes: the
//!    log is the ground truth and "voting through a node is semantically
//!    identical to appending the vote directly to the log". This is what
//!    lets `RecoveryMigrTxn` commit to a *dead* node's GLog and makes the
//!    protocol non-blocking in the style of Cornus.
//!
//! The driver emits effects; the runner performs storage/network I/O and
//! feeds results back. Phase one of the 2PC path appends a `Prepared`
//! record (vote bundled with updates — one CAS is one vote); phase two
//! broadcasts `Decision` records (unconditional appends to log
//! participants, messages to node participants).

use super::{Effect, Input};
use crate::lsn_tracker::LsnTracker;
use crate::records::{GRecord, OwnershipSwap, SysRecord};
use bytes::Bytes;
use marlin_common::{LogId, NodeId, TxnId};

/// A MarlinCommit participant (Algorithm 2 line 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Participant {
    /// A log instance appended directly by the coordinator.
    Log(LogId),
    /// A peer compute node that votes by running TryLog on its own GLog.
    Node(NodeId),
}

/// The updates a transaction holds for one participant.
#[derive(Clone, Debug, PartialEq)]
pub enum Updates {
    /// A membership record (SysLog participants; always one-phase).
    Sys(SysRecord),
    /// Granule-ownership swaps (GLog participants).
    Granule(Vec<OwnershipSwap>),
    /// Pre-encoded payload (e.g. user data commits produced by the
    /// engine's WAL codec, batched by group commit).
    Raw(Bytes),
    /// Nothing to write — participate in validation only (`ScanGTableTxn`).
    ReadOnly,
}

impl Updates {
    /// Encode the record for a *final* (one-phase) commit.
    fn encode_final(&self, txn: TxnId) -> Option<Bytes> {
        match self {
            Updates::Sys(r) => Some(r.encode()),
            Updates::Granule(swaps) => Some(GRecord::encode_one_phase(txn, swaps)),
            Updates::Raw(b) => Some(b.clone()),
            Updates::ReadOnly => None,
        }
    }

    /// Encode the phase-one (`VOTE-YES` + updates) record. `participants`
    /// lists all participant logs so third parties can run the Cornus-style
    /// termination protocol.
    fn encode_phase1(&self, txn: TxnId, participants: &[LogId]) -> Option<Bytes> {
        match self {
            Updates::Sys(_) => {
                unreachable!("membership transactions are single-participant (SysLog only)")
            }
            Updates::Granule(swaps) => Some(GRecord::encode_prepared(txn, swaps, participants)),
            Updates::Raw(b) => Some(b.clone()),
            Updates::ReadOnly => None,
        }
    }
}

/// Outcome of MarlinCommit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// All participants logged their votes/updates; the transaction is
    /// durable.
    Committed,
    /// A cross-node modification (or peer NO vote / timeout) aborted the
    /// transaction. `conflict` names the log whose CAS failed, if that was
    /// the cause.
    Aborted { conflict: Option<LogId> },
}

// "OnePhase" is the paper's protocol term, not a naming accident.
#[allow(clippy::enum_variant_names)]
#[derive(Clone, Debug, PartialEq)]
enum Phase {
    /// Waiting for the single TryLog/validation of the one-phase path.
    OnePhase { log: LogId },
    /// Collecting phase-one responses.
    Voting,
    /// Decision reached and broadcast; terminal.
    Done,
}

#[derive(Clone, Debug)]
struct LogPart {
    log: LogId,
    /// Payload appended in phase one (`None` for read-only validation).
    prepared: Option<Bytes>,
    responded: bool,
    voted_yes: bool,
}

#[derive(Clone, Debug)]
struct NodePart {
    node: NodeId,
    responded: bool,
    voted_yes: bool,
}

/// The MarlinCommit protocol state machine for one transaction.
#[derive(Clone, Debug)]
pub struct CommitDriver {
    txn: TxnId,
    phase: Phase,
    logs: Vec<LogPart>,
    nodes: Vec<NodePart>,
    outcome: Option<CommitOutcome>,
    conflict: Option<LogId>,
}

impl CommitDriver {
    /// Start MarlinCommit for `txn`, coordinated by `coordinator`.
    ///
    /// `participants` follows the paper's notation: node entries that name
    /// the coordinator itself are resolved to the coordinator's own GLog
    /// (an RPC to self is just a local TryLog). `tracker` supplies the
    /// expected LSN of every log the coordinator appends to.
    ///
    /// Returns the driver plus the initial effects to execute.
    pub fn new(
        txn: TxnId,
        coordinator: NodeId,
        participants: Vec<(Participant, Updates)>,
        tracker: &LsnTracker,
    ) -> (Self, Vec<Effect>) {
        assert!(
            !participants.is_empty(),
            "commit needs at least one participant"
        );
        let mut log_parts: Vec<(LogId, Updates)> = Vec::new();
        let mut node_parts: Vec<(NodeId, Updates)> = Vec::new();
        for (p, updates) in participants {
            match p {
                Participant::Node(n) if n == coordinator => {
                    log_parts.push((LogId::GLog(n), updates));
                }
                Participant::Node(n) => node_parts.push((n, updates)),
                Participant::Log(l) => log_parts.push((l, updates)),
            }
        }

        let mut effects = Vec::new();
        if node_parts.is_empty() && log_parts.len() == 1 {
            // One-phase commit: a single conditional append whose success
            // *is* the commit (Algorithm 2 line 4).
            let (log, updates) = log_parts.into_iter().next().expect("one participant");
            let prepared = updates.encode_final(txn);
            match &prepared {
                Some(p) => effects.push(Effect::ConditionalAppend {
                    log,
                    payload: p.clone(),
                    expected: tracker.get(log),
                }),
                None => effects.push(Effect::ValidateLsn {
                    log,
                    expected: tracker.get(log),
                }),
            }
            let driver = CommitDriver {
                txn,
                phase: Phase::OnePhase { log },
                logs: vec![LogPart {
                    log,
                    prepared,
                    responded: false,
                    voted_yes: false,
                }],
                nodes: Vec::new(),
                outcome: None,
                conflict: None,
            };
            return (driver, effects);
        }

        // Two-phase commit (Algorithm 2 lines 6-12): log participants get
        // TryLog(VOTE-YES ∪ updates) directly; node participants get
        // asynchronous VOTE-REQs carrying their prepared record.
        let all_logs: Vec<LogId> = log_parts
            .iter()
            .map(|(l, _)| *l)
            .chain(node_parts.iter().map(|(n, _)| LogId::GLog(*n)))
            .collect();
        // Participants holding the same swaps (MigrationTxn's two GLogs)
        // carry the same phase-one record: encode it once.
        let mut last: Option<(Updates, Option<Bytes>)> = None;
        let mut phase1 = |updates: Updates| {
            let prepared = match (&last, &updates) {
                (Some((Updates::Granule(a), bytes)), Updates::Granule(b)) if a == b => {
                    bytes.clone()
                }
                _ => updates.encode_phase1(txn, &all_logs),
            };
            last = Some((updates, prepared.clone()));
            prepared
        };
        let mut logs = Vec::with_capacity(log_parts.len());
        for (log, updates) in log_parts {
            let prepared = phase1(updates);
            match &prepared {
                Some(p) => effects.push(Effect::ConditionalAppend {
                    log,
                    payload: p.clone(),
                    expected: tracker.get(log),
                }),
                None => effects.push(Effect::ValidateLsn {
                    log,
                    expected: tracker.get(log),
                }),
            }
            logs.push(LogPart {
                log,
                prepared,
                responded: false,
                voted_yes: false,
            });
        }
        let mut nodes = Vec::with_capacity(node_parts.len());
        for (node, updates) in node_parts {
            let payload = phase1(updates).unwrap_or_default();
            effects.push(Effect::SendVoteReq {
                to: node,
                txn,
                payload,
            });
            nodes.push(NodePart {
                node,
                responded: false,
                voted_yes: false,
            });
        }
        let driver = CommitDriver {
            txn,
            phase: Phase::Voting,
            logs,
            nodes,
            outcome: None,
            conflict: None,
        };
        (driver, effects)
    }

    /// The transaction this driver commits.
    #[must_use]
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// Feed a runner result; returns follow-up effects.
    pub fn on_input(&mut self, input: Input) -> Vec<Effect> {
        let mut effects = Vec::new();
        match &self.phase {
            Phase::OnePhase { log } => {
                let log = *log;
                match input {
                    Input::AppendOk { log: l, .. } | Input::ValidateOk { log: l } if l == log => {
                        self.outcome = Some(CommitOutcome::Committed);
                        self.phase = Phase::Done;
                    }
                    Input::AppendConflict { log: l, .. }
                    | Input::ValidateConflict { log: l, .. }
                        if l == log =>
                    {
                        // TryLog failure: cross-node modification detected.
                        // Abort and invalidate the backing cache
                        // (Algorithm 2 lines 15-18).
                        effects.push(Effect::ClearMetaCache { log: l });
                        self.outcome = Some(CommitOutcome::Aborted { conflict: Some(l) });
                        self.phase = Phase::Done;
                    }
                    _ => {}
                }
            }
            Phase::Voting => {
                match input {
                    Input::AppendOk { log, .. } | Input::ValidateOk { log } => {
                        if let Some(part) = self.logs.iter_mut().find(|p| p.log == log) {
                            part.responded = true;
                            part.voted_yes = true;
                        }
                    }
                    Input::AppendConflict { log, .. } | Input::ValidateConflict { log, .. } => {
                        if let Some(part) = self.logs.iter_mut().find(|p| p.log == log) {
                            part.responded = true;
                            part.voted_yes = false;
                            self.conflict.get_or_insert(log);
                            effects.push(Effect::ClearMetaCache { log });
                        }
                    }
                    Input::VoteResp { from, yes } => {
                        if let Some(part) = self.nodes.iter_mut().find(|p| p.node == from) {
                            part.responded = true;
                            part.voted_yes = yes;
                        }
                    }
                    Input::Timeout { from } => {
                        // An unresponsive node participant counts as NO.
                        // (The failover path avoids this entirely by using
                        // the dead node's *log* as the participant.)
                        if let Some(part) = self.nodes.iter_mut().find(|p| p.node == from) {
                            part.responded = true;
                            part.voted_yes = false;
                        }
                    }
                    _ => {}
                }
                self.maybe_decide(&mut effects);
            }
            Phase::Done => {}
        }
        effects
    }

    /// Final outcome, once reached.
    #[must_use]
    pub fn outcome(&self) -> Option<&CommitOutcome> {
        self.outcome.as_ref()
    }

    /// Whether the protocol has terminated.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.outcome.is_some()
    }

    fn maybe_decide(&mut self, effects: &mut Vec<Effect>) {
        if self.phase != Phase::Voting
            || self.logs.iter().any(|p| !p.responded)
            || self.nodes.iter().any(|p| !p.responded)
        {
            return;
        }
        let commit =
            self.logs.iter().all(|p| p.voted_yes) && self.nodes.iter().all(|p| p.voted_yes);
        // Decision broadcast (Algorithm 2 line 12, asynchronous): append a
        // Decision record to every log participant holding a Prepared
        // record; message every node participant. Logs whose phase-one
        // append failed hold no Prepared record and need no decision.
        let decision = GRecord::Decision {
            txn: self.txn,
            commit,
        }
        .encode();
        for part in &self.logs {
            if part.voted_yes && part.prepared.is_some() {
                effects.push(Effect::Append {
                    log: part.log,
                    payload: decision.clone(),
                });
            }
        }
        for part in &self.nodes {
            effects.push(Effect::SendDecision {
                to: part.node,
                txn: self.txn,
                commit,
            });
        }
        self.outcome = Some(if commit {
            CommitOutcome::Committed
        } else {
            CommitOutcome::Aborted {
                conflict: self.conflict,
            }
        });
        self.phase = Phase::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_common::{GranuleId, KeyRange, Lsn, TableId};

    fn swap(g: u64, old: u32, new: u32) -> OwnershipSwap {
        OwnershipSwap {
            table: TableId(0),
            granule: GranuleId(g),
            range: KeyRange::new(g * 10, (g + 1) * 10),
            old: NodeId(old),
            new: NodeId(new),
        }
    }

    fn tracker_with(entries: &[(LogId, u64)]) -> LsnTracker {
        let mut t = LsnTracker::new();
        for (log, lsn) in entries {
            t.observe(*log, Lsn(*lsn));
        }
        t
    }

    #[test]
    fn one_phase_commit_on_append_ok() {
        let tracker = tracker_with(&[(LogId::SysLog, 2)]);
        let rec = SysRecord::AddNode {
            node: NodeId(3),
            addr: "n3".into(),
        };
        let (mut d, effects) = CommitDriver::new(
            TxnId(1),
            NodeId(3),
            vec![(Participant::Log(LogId::SysLog), Updates::Sys(rec.clone()))],
            &tracker,
        );
        assert_eq!(
            effects,
            vec![Effect::ConditionalAppend {
                log: LogId::SysLog,
                payload: rec.encode(),
                expected: Lsn(2),
            }]
        );
        let follow = d.on_input(Input::AppendOk {
            log: LogId::SysLog,
            new_lsn: Lsn(3),
        });
        assert!(follow.is_empty());
        assert_eq!(d.outcome(), Some(&CommitOutcome::Committed));
    }

    #[test]
    fn one_phase_abort_invalidates_cache() {
        let tracker = tracker_with(&[(LogId::SysLog, 2)]);
        let (mut d, _) = CommitDriver::new(
            TxnId(1),
            NodeId(0),
            vec![(
                Participant::Log(LogId::SysLog),
                Updates::Sys(SysRecord::DeleteNode { node: NodeId(1) }),
            )],
            &tracker,
        );
        let follow = d.on_input(Input::AppendConflict {
            log: LogId::SysLog,
            current: Lsn(4),
        });
        assert_eq!(follow, vec![Effect::ClearMetaCache { log: LogId::SysLog }]);
        assert_eq!(
            d.outcome(),
            Some(&CommitOutcome::Aborted {
                conflict: Some(LogId::SysLog)
            })
        );
    }

    #[test]
    fn coordinator_node_participant_becomes_local_log() {
        // MigrationTxn on dst=N3 with participants {src=N2, dst=N3}:
        // N3 resolves to Log(GLog(N3)), N2 stays a remote voter.
        let tracker = tracker_with(&[(LogId::GLog(NodeId(3)), 5)]);
        let (d, effects) = CommitDriver::new(
            TxnId(9),
            NodeId(3),
            vec![
                (
                    Participant::Node(NodeId(2)),
                    Updates::Granule(vec![swap(7, 2, 3)]),
                ),
                (
                    Participant::Node(NodeId(3)),
                    Updates::Granule(vec![swap(7, 2, 3)]),
                ),
            ],
            &tracker,
        );
        assert!(matches!(d.phase, Phase::Voting));
        let prepared = GRecord::Prepared {
            txn: TxnId(9),
            swaps: vec![swap(7, 2, 3)],
            participants: vec![LogId::GLog(NodeId(3)), LogId::GLog(NodeId(2))],
        }
        .encode();
        assert!(effects.contains(&Effect::ConditionalAppend {
            log: LogId::GLog(NodeId(3)),
            payload: prepared.clone(),
            expected: Lsn(5),
        }));
        assert!(effects.contains(&Effect::SendVoteReq {
            to: NodeId(2),
            txn: TxnId(9),
            payload: prepared,
        }));
    }

    #[test]
    fn two_phase_commits_after_all_yes() {
        let tracker = LsnTracker::new();
        let (mut d, _) = CommitDriver::new(
            TxnId(9),
            NodeId(3),
            vec![
                (
                    Participant::Node(NodeId(2)),
                    Updates::Granule(vec![swap(7, 2, 3)]),
                ),
                (
                    Participant::Node(NodeId(3)),
                    Updates::Granule(vec![swap(7, 2, 3)]),
                ),
            ],
            &tracker,
        );
        assert!(d
            .on_input(Input::AppendOk {
                log: LogId::GLog(NodeId(3)),
                new_lsn: Lsn(1)
            })
            .is_empty());
        assert!(d.outcome().is_none(), "must wait for the remote vote");
        let effects = d.on_input(Input::VoteResp {
            from: NodeId(2),
            yes: true,
        });
        assert_eq!(d.outcome(), Some(&CommitOutcome::Committed));
        // Decision: unconditional append to the local log + message to peer.
        let decision = GRecord::Decision {
            txn: TxnId(9),
            commit: true,
        }
        .encode();
        assert_eq!(
            effects,
            vec![
                Effect::Append {
                    log: LogId::GLog(NodeId(3)),
                    payload: decision
                },
                Effect::SendDecision {
                    to: NodeId(2),
                    txn: TxnId(9),
                    commit: true
                },
            ]
        );
    }

    #[test]
    fn two_phase_aborts_on_any_no() {
        let tracker = LsnTracker::new();
        let (mut d, _) = CommitDriver::new(
            TxnId(9),
            NodeId(3),
            vec![
                (
                    Participant::Node(NodeId(2)),
                    Updates::Granule(vec![swap(7, 2, 3)]),
                ),
                (
                    Participant::Node(NodeId(3)),
                    Updates::Granule(vec![swap(7, 2, 3)]),
                ),
            ],
            &tracker,
        );
        d.on_input(Input::AppendOk {
            log: LogId::GLog(NodeId(3)),
            new_lsn: Lsn(1),
        });
        let effects = d.on_input(Input::VoteResp {
            from: NodeId(2),
            yes: false,
        });
        assert_eq!(
            d.outcome(),
            Some(&CommitOutcome::Aborted { conflict: None })
        );
        // The local log holds a Prepared record that must be resolved with
        // an abort decision; the peer is told as well.
        let decision = GRecord::Decision {
            txn: TxnId(9),
            commit: false,
        }
        .encode();
        assert!(effects.contains(&Effect::Append {
            log: LogId::GLog(NodeId(3)),
            payload: decision,
        }));
        assert!(effects.contains(&Effect::SendDecision {
            to: NodeId(2),
            txn: TxnId(9),
            commit: false,
        }));
    }

    #[test]
    fn recovery_commit_uses_two_logs_no_votes() {
        // RecoveryMigrTxn on dst=N2 for dead src=N3:
        // MarlinCommit({src.GLog, dst}) — both participants are logs the
        // coordinator appends to directly; no RPC to the dead node.
        let tracker = tracker_with(&[(LogId::GLog(NodeId(2)), 2), (LogId::GLog(NodeId(3)), 1)]);
        let swaps = vec![swap(3, 3, 2), swap(4, 3, 2)];
        let (mut d, effects) = CommitDriver::new(
            TxnId(5),
            NodeId(2),
            vec![
                (
                    Participant::Log(LogId::GLog(NodeId(3))),
                    Updates::Granule(swaps.clone()),
                ),
                (
                    Participant::Node(NodeId(2)),
                    Updates::Granule(swaps.clone()),
                ),
            ],
            &tracker,
        );
        assert_eq!(effects.len(), 2);
        assert!(effects
            .iter()
            .all(|e| matches!(e, Effect::ConditionalAppend { .. })));
        assert!(!effects
            .iter()
            .any(|e| matches!(e, Effect::SendVoteReq { .. })));
        d.on_input(Input::AppendOk {
            log: LogId::GLog(NodeId(3)),
            new_lsn: Lsn(2),
        });
        let follow = d.on_input(Input::AppendOk {
            log: LogId::GLog(NodeId(2)),
            new_lsn: Lsn(3),
        });
        assert_eq!(d.outcome(), Some(&CommitOutcome::Committed));
        // Decisions are appended to both logs (the dead node's readers —
        // i.e. a recovering N3 — must see the resolution).
        assert_eq!(
            follow
                .iter()
                .filter(|e| matches!(e, Effect::Append { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn recovery_race_aborts_on_src_log_conflict() {
        // The Figure 7 race from the *recovering* node's perspective: N2's
        // append to GLog3 fails because N3 came back and appended first.
        let tracker = tracker_with(&[(LogId::GLog(NodeId(3)), 1)]);
        let (mut d, _) = CommitDriver::new(
            TxnId(5),
            NodeId(2),
            vec![
                (
                    Participant::Log(LogId::GLog(NodeId(3))),
                    Updates::Granule(vec![swap(3, 3, 2)]),
                ),
                (
                    Participant::Node(NodeId(2)),
                    Updates::Granule(vec![swap(3, 3, 2)]),
                ),
            ],
            &tracker,
        );
        let effects = d.on_input(Input::AppendConflict {
            log: LogId::GLog(NodeId(3)),
            current: Lsn(2),
        });
        assert!(effects.contains(&Effect::ClearMetaCache {
            log: LogId::GLog(NodeId(3))
        }));
        assert!(d.outcome().is_none());
        let effects = d.on_input(Input::AppendOk {
            log: LogId::GLog(NodeId(2)),
            new_lsn: Lsn(1),
        });
        assert_eq!(
            d.outcome(),
            Some(&CommitOutcome::Aborted {
                conflict: Some(LogId::GLog(NodeId(3)))
            })
        );
        // Abort decision goes only to the log that holds a Prepared record
        // (N2's own); GLog3's append failed so nothing dangles there.
        let decision = GRecord::Decision {
            txn: TxnId(5),
            commit: false,
        }
        .encode();
        assert_eq!(
            effects,
            vec![Effect::Append {
                log: LogId::GLog(NodeId(2)),
                payload: decision
            }]
        );
    }

    #[test]
    fn read_only_scan_validates_all_participants() {
        // ScanGTableTxn: MarlinCommit({SysLog} ∪ nodes), nothing written.
        let tracker = tracker_with(&[(LogId::SysLog, 3), (LogId::GLog(NodeId(0)), 7)]);
        let (mut d, effects) = CommitDriver::new(
            TxnId(11),
            NodeId(0),
            vec![
                (Participant::Log(LogId::SysLog), Updates::ReadOnly),
                (Participant::Node(NodeId(0)), Updates::ReadOnly),
                (Participant::Node(NodeId(1)), Updates::ReadOnly),
            ],
            &tracker,
        );
        assert!(effects.contains(&Effect::ValidateLsn {
            log: LogId::SysLog,
            expected: Lsn(3)
        }));
        assert!(effects.contains(&Effect::ValidateLsn {
            log: LogId::GLog(NodeId(0)),
            expected: Lsn(7)
        }));
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::SendVoteReq { to, .. } if *to == NodeId(1))));
        d.on_input(Input::ValidateOk { log: LogId::SysLog });
        d.on_input(Input::ValidateOk {
            log: LogId::GLog(NodeId(0)),
        });
        let effects = d.on_input(Input::VoteResp {
            from: NodeId(1),
            yes: true,
        });
        assert_eq!(d.outcome(), Some(&CommitOutcome::Committed));
        // Read-only: no decision appends, just the async decision message.
        assert!(!effects.iter().any(|e| matches!(e, Effect::Append { .. })));
    }

    #[test]
    fn read_only_scan_aborts_on_stale_membership() {
        let tracker = tracker_with(&[(LogId::SysLog, 3)]);
        let (mut d, _) = CommitDriver::new(
            TxnId(11),
            NodeId(0),
            vec![
                (Participant::Log(LogId::SysLog), Updates::ReadOnly),
                (Participant::Node(NodeId(1)), Updates::ReadOnly),
            ],
            &tracker,
        );
        d.on_input(Input::ValidateConflict {
            log: LogId::SysLog,
            current: Lsn(5),
        });
        d.on_input(Input::VoteResp {
            from: NodeId(1),
            yes: true,
        });
        assert_eq!(
            d.outcome(),
            Some(&CommitOutcome::Aborted {
                conflict: Some(LogId::SysLog)
            })
        );
    }

    #[test]
    fn timeout_counts_as_no_vote() {
        let tracker = LsnTracker::new();
        let (mut d, _) = CommitDriver::new(
            TxnId(2),
            NodeId(0),
            vec![
                (
                    Participant::Node(NodeId(0)),
                    Updates::Granule(vec![swap(1, 1, 0)]),
                ),
                (
                    Participant::Node(NodeId(1)),
                    Updates::Granule(vec![swap(1, 1, 0)]),
                ),
            ],
            &tracker,
        );
        d.on_input(Input::AppendOk {
            log: LogId::GLog(NodeId(0)),
            new_lsn: Lsn(1),
        });
        d.on_input(Input::Timeout { from: NodeId(1) });
        assert_eq!(
            d.outcome(),
            Some(&CommitOutcome::Aborted { conflict: None })
        );
    }

    #[test]
    fn duplicate_and_unknown_inputs_are_ignored() {
        let tracker = LsnTracker::new();
        let (mut d, _) = CommitDriver::new(
            TxnId(1),
            NodeId(0),
            vec![(
                Participant::Log(LogId::SysLog),
                Updates::Sys(SysRecord::DeleteNode { node: NodeId(2) }),
            )],
            &tracker,
        );
        // Input for an unrelated log: ignored.
        d.on_input(Input::AppendOk {
            log: LogId::GLog(NodeId(5)),
            new_lsn: Lsn(1),
        });
        assert!(d.outcome().is_none());
        d.on_input(Input::AppendOk {
            log: LogId::SysLog,
            new_lsn: Lsn(1),
        });
        assert!(d.is_done());
        // Late duplicate after completion: ignored.
        let follow = d.on_input(Input::AppendConflict {
            log: LogId::SysLog,
            current: Lsn(9),
        });
        assert!(follow.is_empty());
        assert_eq!(d.outcome(), Some(&CommitOutcome::Committed));
    }
}
