//! The cohort client engine: every client of a region advanced as one
//! flow, priced by a handful of sampled [`ClusterSim::walk`]s per step.

use super::*;

/// One flow-level client cohort: every client of one region, advanced
/// together by [`Event::CohortStep`] instead of one event per client
/// ([`ClientEngine::Cohort`]).
pub(super) struct Cohort {
    /// The region whose clients this cohort aggregates.
    pub(super) region: RegionId,
    /// Clients the cohort *could* activate (its share of the peak).
    pub(super) members: u32,
    /// Currently active clients.
    pub(super) active: u32,
    /// Representative workload stream (forked per cohort, so workload
    /// draws are independent of every other deterministic stream).
    pub(super) gen: ClientGen,
    /// Fractional transactions carried between steps, so the long-run
    /// rate is exact despite integer per-step counts.
    pub(super) carry: f64,
}

impl ClusterSim {
    /// Cohort step cadence: each cohort advances its whole client batch
    /// once per 100 ms of virtual time.
    pub(super) const COHORT_STEP: Nanos = 100 * 1_000_000;

    /// Representative transaction walks priced per cohort step. Each is
    /// one [`Self::walk`] — an exact client's timeline, through the same
    /// stations and logs; the batch's other transactions ride as weights.
    const COHORT_SAMPLES: u32 = 8;

    /// Advance one cohort by a full step: price [`Self::COHORT_SAMPLES`]
    /// representative walks, derive the step's transaction count from
    /// the closed-loop rate (`active clients × step / mean cycle`, with
    /// a fractional carry so the long-run rate is exact), then book each
    /// walk's outcome with its share of that count and bulk-offer the
    /// demand of its unpriced copies to the stations it visited.
    /// Strikes don't exist at cohort granularity, so retry backoff uses
    /// the first-strike floor.
    pub(super) fn handle_cohort_step(&mut self, now: Nanos, cohort: u32) {
        self.queue
            .schedule(Self::COHORT_STEP, ActorId(0), Event::CohortStep { cohort });
        let i = cohort as usize;
        let active = self.cohorts[i].active;
        if active == 0 {
            self.cohorts[i].carry = 0.0;
            return;
        }
        let region = self.cohorts[i].region;

        let mut walks = std::mem::take(&mut self.cohort_walks);
        walks.resize_with(Self::COHORT_SAMPLES as usize, Walk::default);
        for walk in &mut walks {
            let template = self.cohorts[i].gen.next_txn();
            self.walk(now, &template, region, 0, walk);
        }
        let mean_cycle =
            (walks.iter().map(|w| w.cycle as f64).sum::<f64>() / walks.len() as f64).max(1.0);
        let offered =
            f64::from(active) * (Self::COHORT_STEP as f64 / mean_cycle) + self.cohorts[i].carry;
        let txns = offered.floor();
        self.cohorts[i].carry = offered - txns;
        let txns = txns as u64;
        let base = txns / u64::from(Self::COHORT_SAMPLES);
        let rem = (txns % u64::from(Self::COHORT_SAMPLES)) as usize;

        let mut latest_commit = 0;
        for (s, walk) in walks.iter().enumerate() {
            let w = base + u64::from(s < rem);
            if w == 0 {
                continue;
            }
            let committed = walk.end == WalkEnd::Commit;
            if committed {
                self.book_commit(walk, w, region, walk.cycle, &walk.blame);
                latest_commit = latest_commit.max(walk.at);
            } else {
                self.book_abort(walk, w);
            }
            // The walk priced one copy; the other `w - 1` only offer their
            // demand (offering 0 would still move a station's decay clock).
            if w > 1 {
                for &(n, svc) in &walk.node_service {
                    self.nodes[n].cpu.offer(now, svc.saturating_mul(w - 1));
                }
                if committed {
                    let append = self.params.append_service.saturating_mul(w - 1);
                    for &p in &walk.participants {
                        self.nodes[p].append_station.offer(now, append);
                    }
                }
            }
        }
        self.lat_window.prune(latest_commit);
        self.cohort_walks = walks;
    }
}
