//! The Figure 15 membership stress: virtual members CAS-appending to the
//! SysLog, or writing through the external coordination service.

use super::*;

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
        // One membership update: Marlin CAS-appends to the SysLog with the
        // member's tracker (retrying through refreshes on conflicts);
        // baselines write through the service.
        let m = member as usize;
        let started = *self.membership_starts[m].get_or_insert(now);
        let done = match &mut self.backend {
            CoordBackend::Marlin => {
                let expected = self.member_trackers[m].get(LogId::SysLog);
                self.metrics.coord.membership_cas_attempts += 1;
                match self.syslog.conditional_append(expected) {
                    Ok(new_lsn) => {
                        self.member_trackers[m].observe(LogId::SysLog, new_lsn);
                        let svc = self.jittered(self.params.append_service);
                        let arrive = now + self.params.storage_rtt / 2;
                        let station_done = arrive + self.syslog_station.charge(arrive, svc);
                        Some(station_done + self.params.storage_rtt / 2)
                    }
                    Err(current) => {
                        // TryLog failure: refresh the MTable cache and
                        // retry after backoff (the OCC contention path of
                        // Figure 15).
                        self.member_trackers[m].observe(LogId::SysLog, current);
                        self.metrics.coord.membership_cas_retries += 1;
                        self.metrics.membership_retries += 1;
                        let retry = self.params.storage_rtt
                            + self.params.mtable_refresh
                            + self.rng.range(0, 4 * self.params.storage_rtt);
                        self.queue
                            .schedule(retry, ActorId(0), Event::MembershipTick { member });
                        None
                    }
                }
            }
            CoordBackend::Service(svc) => {
                let node = NodeId(10_000 + member);
                let req = if member.is_multiple_of(2) {
                    CoordRequest::AddNode { node }
                } else {
                    CoordRequest::DeleteNode { node }
                };
                self.metrics.coord.service_writes += 1;
                // One intra-region reply leg per client round trip the
                // service needs (ZooKeeper 1, FDB 2).
                let legs = u64::from(svc.client_round_trips(&req)) * self.params.intra_rtt;
                Some(svc.submit(now, &req, &mut self.rng).done_at + legs)
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
