//! The external coordination baselines (§6.1.2) as the simulator uses
//! them: a priced write pipeline.
//!
//! The paper compares Marlin against ZooKeeper (S-ZK, L-ZK) and
//! FoundationDB. The simulator sends these services only writes — a
//! migration's ownership update and a membership change — after its
//! shared `source_check` has already decided staleness, so no reply ever
//! changes a time and the services keep no state beyond their stages'
//! busy horizons. A baseline is:
//!
//! - a chain of single-server FIFO stages (ZooKeeper's leader;
//!   FoundationDB's GetReadVersion proxy, resolver and transaction log),
//!   each a fixed service time with ±10 % jitter. The slowest stage caps
//!   write throughput no matter how large the coordinated database grows,
//!   the scalability wall of Figures 8 and 12c;
//! - a commit round after the last stage (ZAB quorum, FDB replication);
//! - the client round trips one write needs (ZooKeeper 1; FDB 2, its
//!   GetReadVersion then its commit), which the caller multiplies by the
//!   client-to-service RTT, the dominating term across regions (§6.5,
//!   Figure 13);
//! - the hourly price of its fixed 3-VM cluster (Meta Cost, §6.1.5).
//!
//! The three hardware profiles are the arms of [`CoordKind::service`].
//!
//! [`CoordKind::service`]: crate::params::CoordKind::service

use marlin_sim::{DetRng, Nanos};

/// One single-server FIFO stage: a request arriving at `t` starts at
/// `max(t, free_at)`, which is exact for one server.
struct Stage {
    service: Nanos,
    free_at: Nanos,
}

/// An external coordination service's write pipeline.
pub(crate) struct CoordService {
    /// Hourly cost of the service cluster in dollars (Meta Cost).
    pub(crate) hourly_rate: f64,
    /// Client→service round trips one write needs.
    pub(crate) client_round_trips: u32,
    stages: Vec<Stage>,
    /// The intra-service commit round after the last stage.
    commit_rtt: Nanos,
}

impl CoordService {
    /// A pipeline of one stage per entry of `stages` (service times, in
    /// order), then `commit_rtt`.
    pub(crate) fn new(
        stages: &[Nanos],
        commit_rtt: Nanos,
        client_round_trips: u32,
        hourly_rate: f64,
    ) -> Self {
        CoordService {
            hourly_rate,
            client_round_trips,
            stages: stages
                .iter()
                .map(|&service| Stage {
                    service,
                    free_at: 0,
                })
                .collect(),
            commit_rtt,
        }
    }

    /// A write arriving at the service at `arrival`: each stage's jitter
    /// is drawn in stage order, and the write is acknowledged after the
    /// last stage plus the commit round.
    pub(crate) fn write(&mut self, arrival: Nanos, rng: &mut DetRng) -> Nanos {
        let mut t = arrival;
        for stage in &mut self.stages {
            t = t.max(stage.free_at) + rng.jittered(stage.service);
            stage.free_at = t;
        }
        t + self.commit_rtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CoordKind;
    use marlin_sim::{MILLISECOND, SECOND};

    fn service(kind: CoordKind) -> CoordService {
        kind.service().expect("a baseline")
    }

    /// Completion of the last of `n` writes all offered at t = 0.
    fn burst(kind: CoordKind, n: u32, rng: &mut DetRng) -> Nanos {
        let mut svc = service(kind);
        (0..n).map(|_| svc.write(0, rng)).last().unwrap_or(0)
    }

    #[test]
    fn writes_serialize_through_the_leader() {
        // A burst of 1000 writes at t = 0: completions are spaced by the
        // leader's service time (one server).
        let mut svc = service(CoordKind::ZkSmall);
        let mut rng = DetRng::seed(1);
        let completions: Vec<Nanos> = (0..1000).map(|_| svc.write(0, &mut rng)).collect();
        let per_op = (completions[999] - completions[0]) as f64 / 999.0;
        // ~350 µs ± jitter.
        assert!(
            (300_000.0..400_000.0).contains(&per_op),
            "per-op {per_op}ns"
        );
    }

    #[test]
    fn large_profile_is_faster_but_not_double() {
        let mut rng = DetRng::seed(2);
        let small = burst(CoordKind::ZkSmall, 500, &mut rng);
        let large = burst(CoordKind::ZkLarge, 500, &mut rng);
        let ratio = small as f64 / large as f64;
        assert!((1.1..1.6).contains(&ratio), "S/L completion ratio {ratio}");
    }

    #[test]
    fn quorum_rtt_floors_write_latency() {
        let mut svc = service(CoordKind::ZkSmall);
        let done = svc.write(5 * SECOND, &mut DetRng::seed(4));
        assert!(done >= 5 * SECOND + MILLISECOND, "ZAB round floors latency");
    }

    #[test]
    fn fdb_sustains_higher_write_throughput_than_szk() {
        // The Figure 12 relationship: FDB's pipelined commit beats the
        // ZooKeeper leader under a migration storm.
        let mut rng = DetRng::seed(2);
        let fdb = burst(CoordKind::Fdb, 2_000, &mut rng);
        let zk = burst(CoordKind::ZkSmall, 2_000, &mut rng);
        assert!(
            fdb < zk,
            "FDB ({fdb}ns) must finish the storm before S-ZK ({zk}ns)"
        );
    }

    #[test]
    fn fdb_needs_more_client_round_trips_than_zk() {
        assert!(
            service(CoordKind::Fdb).client_round_trips
                > service(CoordKind::ZkSmall).client_round_trips
        );
    }

    #[test]
    fn late_arrival_resets_start() {
        // An idle pipeline starts a write on arrival: the second write,
        // long after the first, finishes exactly as a first one would.
        let mut rng = DetRng::seed(5);
        let mut svc = service(CoordKind::Fdb);
        svc.write(0, &mut rng);
        let mut fresh = service(CoordKind::Fdb);
        let mut twin = rng.clone();
        assert_eq!(svc.write(SECOND, &mut rng), fresh.write(SECOND, &mut twin));
    }
}
