//! The Figure 15 membership stress: virtual members joining and leaving
//! through `AddNodeDriver`/`DeleteNodeDriver` on the SysLog, or writing
//! through the external coordination service.

use super::protocol::Coordinator;
use super::*;
use marlin_common::TxnId;
use marlin_core::drivers::{AddNodeDriver, DeleteNodeDriver};

impl ClusterSim {
    /// Configure the Figure 15 membership stress: `members` virtual nodes
    /// each committing one membership update every `period`.
    pub fn schedule_membership_stress(&mut self, members: u32, period: Nanos) {
        self.member_trackers = (0..members).map(|_| LsnTracker::new()).collect();
        self.membership_starts = vec![None; members as usize];
        self.membership_origins = Vec::with_capacity(members as usize);
        // Monitoring threads share the same period but are phase-spread
        // over a 500 ms window (process start skew); each keeps its phase
        // on subsequent ticks. The burst density — and with it the OCC
        // retry rate — therefore grows with the member count, which is
        // what produces the Figure 15 knee.
        let stagger = 500 * 1_000_000;
        for m in 0..members {
            let first = period + self.rng.range(0, stagger);
            self.membership_origins.push(first);
            self.queue
                .schedule_at(first, ActorId(0), Event::MembershipTick { member: m });
        }
        self.membership_period = period;
    }

    pub(super) fn handle_membership(&mut self, now: Nanos, member: u32) {
        // One membership update: under Marlin the member alternates
        // between joining and leaving, each an `AddNodeTxn` or
        // `DeleteNodeTxn` CAS-appending to the SysLog with the member's
        // tracker (retrying through refreshes on conflicts); baselines
        // write through the service.
        let m = member as usize;
        let node = NodeId(10_000 + member);
        let started = *self.membership_starts[m].get_or_insert(now);
        let done = match &mut self.backend {
            CoordBackend::Marlin => {
                let txn = TxnId::new(node, self.next_txn_seq());
                let (mtable, tracker) = (&self.mtable, &self.member_trackers[m]);
                let coord = Coordinator::Member(m);
                let (result, at) = if mtable.exists(node) {
                    let started = DeleteNodeDriver::new(txn, node, node, mtable, tracker);
                    self.run_driver(coord, started, now)
                } else {
                    let started = AddNodeDriver::new(txn, node, String::new(), mtable, tracker);
                    self.run_driver(coord, started, now)
                };
                if let Some(Ok(())) = result {
                    Some(at)
                } else {
                    // TryLog failure: the MTable cache was refreshed;
                    // retry after the backoff (the OCC contention path of
                    // Figure 15).
                    self.metrics.membership_retries += 1;
                    self.queue
                        .schedule_at(at, ActorId(0), Event::MembershipTick { member });
                    None
                }
            }
            CoordBackend::Service(svc) => {
                self.metrics.coord.service_writes += 1;
                // One intra-region reply leg per client round trip the
                // service needs (ZooKeeper 1, FDB 2).
                let legs = u64::from(svc.client_round_trips) * self.params.intra_rtt;
                Some(svc.write(now, &mut self.rng) + legs)
            }
        };
        if let Some(done) = done {
            self.metrics.membership_commits += 1;
            self.membership_latency_sum += done.saturating_sub(started);
            self.membership_starts[m] = None;
            // Next update one period after this one *started*.
            self.membership_origins[m] += self.membership_period;
            let next = self.membership_origins[m];
            self.queue
                .schedule_at(next.max(done), ActorId(0), Event::MembershipTick { member });
        }
    }

    /// Mean latency of committed membership updates.
    #[must_use]
    pub fn membership_mean_latency(&self) -> f64 {
        if self.metrics.membership_commits == 0 {
            0.0
        } else {
            self.membership_latency_sum as f64 / self.metrics.membership_commits as f64
        }
    }
}
