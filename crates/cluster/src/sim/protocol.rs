//! The effect pricer: `marlin_core`'s sans-io reconfiguration drivers in
//! virtual time. [`ClusterSim::run_driver`] fulfils every [`Effect`] a
//! driver emits against the simulator's own logs, trackers and stations,
//! prices it, and feeds the resulting [`Input`] back at the virtual time
//! it arrives — what `LocalCluster::pump` does against `marlin-storage`,
//! with a clock. Marlin's migrations (`MigrationDriver`) and membership
//! updates (`AddNodeDriver`/`DeleteNodeDriver`) run through here; user
//! commits stay analytic in `walk`, and a crash is still a drain.

use super::migration::SourceCheck;
use super::*;
use marlin_common::{KeyRange, TableId};
use marlin_core::drivers::reconfig::ReconfigResult;
use marlin_core::drivers::{AddNodeDriver, DeleteNodeDriver, Effect, Input, MigrationDriver};
use marlin_core::{GranuleMeta, SysRecord};

/// Whose protocol a driver runs: a simulated compute node's, or a
/// Figure 15 virtual member's (which only ever writes the SysLog).
#[derive(Clone, Copy)]
pub(super) enum Coordinator {
    /// A compute node, by index.
    Node(usize),
    /// A virtual member of the membership stress, by index.
    Member(usize),
}

/// A reconfiguration driver the pricer can run to its result.
pub(super) trait Driver {
    /// Feed one input; `tracker` is the coordinator's current one.
    fn on_input(&mut self, input: Input, tracker: &LsnTracker) -> Vec<Effect>;
    /// The terminal result, once reached.
    fn result(&self) -> Option<&ReconfigResult>;
}

impl Driver for MigrationDriver {
    fn on_input(&mut self, input: Input, tracker: &LsnTracker) -> Vec<Effect> {
        MigrationDriver::on_input(self, input, tracker)
    }

    fn result(&self) -> Option<&ReconfigResult> {
        MigrationDriver::result(self)
    }
}

impl Driver for AddNodeDriver {
    fn on_input(&mut self, input: Input, _: &LsnTracker) -> Vec<Effect> {
        AddNodeDriver::on_input(self, input)
    }

    fn result(&self) -> Option<&ReconfigResult> {
        AddNodeDriver::result(self)
    }
}

impl Driver for DeleteNodeDriver {
    fn on_input(&mut self, input: Input, _: &LsnTracker) -> Vec<Effect> {
        DeleteNodeDriver::on_input(self, input)
    }

    fn result(&self) -> Option<&ReconfigResult> {
        DeleteNodeDriver::result(self)
    }
}

/// Effects addressed to another node. A batch prices these before the
/// coordinator's own log effects, whatever order the driver emitted it
/// in: that is the order a migration's random draws (vote leg, then the
/// source's append jitter, then the destination's) are pinned to by the
/// run digests.
fn to_peer(effect: &Effect) -> bool {
    matches!(
        effect,
        Effect::ReadOwnersRemote { .. }
            | Effect::ReleaseRemote { .. }
            | Effect::SendVoteReq { .. }
            | Effect::SendDecision { .. }
            | Effect::SendScanReq { .. }
    )
}

impl ClusterSim {
    /// Run a started driver — `(driver, effects)` as its constructor
    /// returned them, issued at `start` — to its result.
    ///
    /// Inputs are fed earliest arrival first, and the effects an input
    /// provokes are issued when it arrives, so a 2PC's decision goes out
    /// at the slowest phase-one completion. Returns the driver's result
    /// (`None` only if it starved, which no simulated driver does) and
    /// when the coordinator may go on: the arrival that decided the
    /// driver, or the end of the cache refresh an abort asks for.
    /// Decisions are broadcast off that path.
    pub(super) fn run_driver(
        &mut self,
        coord: Coordinator,
        (mut driver, effects): (impl Driver, Vec<Effect>),
        start: Nanos,
    ) -> (Option<ReconfigResult>, Nanos) {
        let mut arrivals: Vec<(Nanos, Input)> = Vec::new();
        let mut ready = start;
        self.price(coord, &effects, start, &mut arrivals, &mut ready);
        while driver.result().is_none() {
            // `min_by_key` keeps the first of equal arrivals.
            let Some(next) = (0..arrivals.len()).min_by_key(|&i| arrivals[i].0) else {
                break;
            };
            let (at, input) = arrivals.remove(next);
            ready = ready.max(at);
            let effects = driver.on_input(input, self.tracker_mut(coord));
            self.price(coord, &effects, at, &mut arrivals, &mut ready);
        }
        debug_assert!(driver.result().is_some(), "a driver starved of inputs");
        (driver.result().cloned(), ready)
    }

    /// Fulfil and price one batch of effects issued at `at`, peers' first.
    fn price(
        &mut self,
        coord: Coordinator,
        effects: &[Effect],
        at: Nanos,
        arrivals: &mut Vec<(Nanos, Input)>,
        ready: &mut Nanos,
    ) {
        let peers = effects.iter().filter(|e| to_peer(e));
        for effect in peers.chain(effects.iter().filter(|e| !to_peer(e))) {
            let arrival = match (to_peer(effect), coord) {
                (false, _) => self.fulfil_own(coord, effect, at, ready),
                (true, Coordinator::Node(c)) => self.fulfil_peer(c, effect, at),
                (true, Coordinator::Member(_)) => {
                    debug_assert!(false, "a virtual member only writes the SysLog");
                    None
                }
            };
            arrivals.extend(arrival);
        }
    }

    /// One of the coordinator's own log effects. A lost CAS costs nothing
    /// here: its round trip is priced by the cache refresh that follows.
    fn fulfil_own(
        &mut self,
        coord: Coordinator,
        effect: &Effect,
        at: Nanos,
        ready: &mut Nanos,
    ) -> Option<(Nanos, Input)> {
        match effect {
            Effect::ConditionalAppend {
                log,
                payload,
                expected,
            } => {
                let outcome = self.log_mut(*log).conditional_append(*expected);
                let (Ok(lsn) | Err(lsn)) = outcome;
                self.tracker_mut(coord).observe(*log, lsn);
                self.count_cas(*log, outcome.is_err());
                Some(match outcome {
                    Ok(new_lsn) => {
                        if let (LogId::SysLog, Some(record)) = (log, SysRecord::decode(payload)) {
                            self.mtable.apply(new_lsn, &record);
                        }
                        let done = self.storage_append_done(*log, at).0;
                        (done, Input::AppendOk { log: *log, new_lsn })
                    }
                    Err(current) => (at, Input::AppendConflict { log: *log, current }),
                })
            }
            Effect::Append { log, .. } => {
                let new_lsn = self.log_mut(*log).append();
                self.tracker_mut(coord).observe(*log, new_lsn);
                let done = self.storage_append_done(*log, at).0;
                Some((done, Input::AppendOk { log: *log, new_lsn }))
            }
            Effect::ClearMetaCache { .. } => {
                // Re-read the table from storage, then back off before
                // the retry (the OCC contention path of Figure 15).
                let rtt = self.params.storage_rtt;
                let refresh = rtt + self.params.mtable_refresh + self.rng.range(0, 4 * rtt);
                *ready = (*ready).max(at + refresh);
                None
            }
            _ => {
                debug_assert!(false, "no simulated driver emits {effect:?}");
                None
            }
        }
    }

    /// One effect the coordinator node `c` addresses to a peer.
    fn fulfil_peer(&mut self, c: usize, effect: &Effect, at: Nanos) -> Option<(Nanos, Input)> {
        match effect {
            Effect::ReadOwnersRemote {
                at: src, granules, ..
            } => {
                let t = self.owner_read_done(at, src.0 as usize, c);
                // The source's answer: each granule's owner, or nothing
                // at all when a user transaction holds one (NO_WAIT).
                let owners = granules
                    .iter()
                    .map(|&g| {
                        let owner = match self.source_check(g.0 as usize, src.0, t) {
                            SourceCheck::Moved(owner) => owner,
                            SourceCheck::Busy => return None,
                            SourceCheck::Free => src.0,
                        };
                        let meta = GranuleMeta {
                            table: TableId(0),
                            range: KeyRange::new(g.0, g.0 + 1),
                            owner: NodeId(owner),
                        };
                        Some((g, meta))
                    })
                    .collect();
                Some((t, Input::OwnersAt { from: *src, owners }))
            }
            // The simulator holds no lock on the source's behalf.
            Effect::ReleaseRemote { .. } => None,
            Effect::SendVoteReq { to, .. } => {
                // The peer runs TryLog on its own GLog with its own
                // tracker; the request and the vote ride the network
                // (Algorithm 2 line 10).
                let p = to.0 as usize;
                let vote_rtt = 2 * self.one_way(self.nodes[c].region, self.nodes[p].region);
                let won = self.nodes[p].append_at_tracked_lsn(p).is_ok();
                self.count_cas(LogId::GLog(*to), !won);
                let done = if won {
                    self.storage_append_done(LogId::GLog(*to), at + vote_rtt / 2)
                        .0
                        + vote_rtt / 2
                } else {
                    at + vote_rtt
                };
                let vote = Input::VoteResp {
                    from: *to,
                    yes: won,
                };
                Some((done, vote))
            }
            Effect::SendDecision { to, .. } => {
                // The peer appends the decision to its own GLog.
                let p = to.0 as usize;
                let lsn = self.nodes[p].glog.append();
                self.nodes[p].tracker.observe(LogId::GLog(*to), lsn);
                self.storage_append_done(LogId::GLog(*to), at);
                None
            }
            _ => {
                debug_assert!(false, "no simulated driver emits {effect:?}");
                None
            }
        }
    }

    /// A fresh per-origin sequence number for a driver's transaction id.
    pub(super) fn next_txn_seq(&mut self) -> u32 {
        self.txn_seq = self.txn_seq.wrapping_add(1);
        self.txn_seq
    }

    /// The simulated log behind `log`.
    fn log_mut(&mut self, log: LogId) -> &mut SimLog {
        match log {
            LogId::SysLog => &mut self.syslog,
            LogId::GLog(n) | LogId::DataWal(n) => &mut self.nodes[n.0 as usize].glog,
        }
    }

    /// The coordinator's H-LSN tracker.
    fn tracker_mut(&mut self, coord: Coordinator) -> &mut LsnTracker {
        match coord {
            Coordinator::Node(c) => &mut self.nodes[c].tracker,
            Coordinator::Member(m) => &mut self.member_trackers[m],
        }
    }

    /// Count one `Append@LSN` that ran: on the SysLog a membership CAS,
    /// on a GLog a migration CAS.
    fn count_cas(&mut self, log: LogId, lost: bool) {
        let coord = &mut self.metrics.coord;
        let (attempts, retries) = match log {
            LogId::SysLog => (
                &mut coord.membership_cas_attempts,
                &mut coord.membership_cas_retries,
            ),
            _ => (
                &mut coord.migration_cas_attempts,
                &mut coord.migration_cas_retries,
            ),
        };
        *attempts += 1;
        *retries += u64::from(lost);
    }
}
