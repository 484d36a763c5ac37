//! Measurement state collected during a run, feeding every figure.

use marlin_sim::{Histogram, Nanos, RateSeries, Summary, TimeSeries, SECOND};
use marlin_telemetry::CoordOps;

/// Where a committed transaction's sojourn went: the tail-latency
/// attribution record. Every nanosecond between a transaction's start
/// and its commit acknowledgement lands in exactly one component, so
/// the components sum to the commit latency (the instrumentation sites
/// in `ClusterSim` maintain that invariant; the cohort engine's
/// sampled walks carry the same decomposition per weighted walk).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Blame {
    /// Time queued behind other requests at CPU and append stations
    /// (sojourn minus service).
    pub queue_wait: Nanos,
    /// Productive service time: CPU request processing, page fetch
    /// service, storage append service.
    pub service: Nanos,
    /// Base network time: intra/cross-region hops, storage round trips,
    /// group-commit batching wait.
    pub network: Nanos,
    /// The migration-overlay surcharge on network hops (warm-up
    /// interference windows) — separated from `network` so overlay
    /// pressure is visible in the tail.
    pub network_overlay: Nanos,
    /// Time lost to migration-induced aborts: the misroute window after
    /// an ownership move.
    pub migration_stall: Nanos,
    /// Queue wait accrued while a scale-out was ordered but its nodes
    /// had not yet joined (the provisioning lead): backlog the policy
    /// already paid for but capacity hasn't absorbed.
    pub provision_lead: Nanos,
    /// Client-side exponential backoff between abort and retry.
    pub retry_backoff: Nanos,
}

impl Blame {
    /// Sum of all components (equals the commit latency for a committed
    /// transaction's accumulated blame).
    #[must_use]
    pub fn total(&self) -> Nanos {
        self.queue_wait
            .saturating_add(self.service)
            .saturating_add(self.network)
            .saturating_add(self.network_overlay)
            .saturating_add(self.migration_stall)
            .saturating_add(self.provision_lead)
            .saturating_add(self.retry_backoff)
    }

    /// Accumulate another record, component-wise and saturating.
    pub fn add(&mut self, other: &Blame) {
        self.add_weighted(other, 1);
    }

    /// Accumulate `weight` copies of another record (the cohort
    /// engine's bulk path), component-wise and saturating.
    pub fn add_weighted(&mut self, other: &Blame, weight: u64) {
        self.queue_wait = self
            .queue_wait
            .saturating_add(other.queue_wait.saturating_mul(weight));
        self.service = self
            .service
            .saturating_add(other.service.saturating_mul(weight));
        self.network = self
            .network
            .saturating_add(other.network.saturating_mul(weight));
        self.network_overlay = self
            .network_overlay
            .saturating_add(other.network_overlay.saturating_mul(weight));
        self.migration_stall = self
            .migration_stall
            .saturating_add(other.migration_stall.saturating_mul(weight));
        self.provision_lead = self
            .provision_lead
            .saturating_add(other.provision_lead.saturating_mul(weight));
        self.retry_backoff = self
            .retry_backoff
            .saturating_add(other.retry_backoff.saturating_mul(weight));
    }
}

/// One of the run's slowest commits, with its blame breakdown — the
/// "why did p99 breach at tick T" record carried in the report JSON.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TailExemplar {
    /// Commit time (virtual ns).
    pub at: Nanos,
    /// Commit latency (virtual ns).
    pub latency: Nanos,
    /// The transaction's anchor granule (its first access).
    pub granule: u64,
    /// The home node that served the transaction.
    pub node: u32,
    /// The client's region.
    pub region: u16,
    /// Commits sharing this timeline (1 on the exact path; the cohort
    /// walk weight on the aggregate path).
    pub weight: u64,
    /// Where the latency went.
    pub blame: Blame,
}

/// Deterministic top-K table of the slowest commits.
///
/// Ordering is total: latency descending, then commit time ascending,
/// then anchor granule ascending — so the table is identical for a
/// fixed (scenario, seed) regardless of offer batching.
#[derive(Clone, Debug)]
pub struct TailExemplars {
    k: usize,
    entries: Vec<TailExemplar>,
}

impl TailExemplars {
    /// The report's exemplar-table size.
    pub const DEFAULT_K: usize = 8;

    /// An empty table keeping the `k` slowest offers.
    #[must_use]
    pub fn new(k: usize) -> Self {
        TailExemplars {
            k,
            entries: Vec::with_capacity(k + 1),
        }
    }

    /// Offer a commit; it is kept iff it ranks among the `k` slowest
    /// seen so far.
    pub fn offer(&mut self, e: TailExemplar) {
        if self.k == 0 {
            return;
        }
        let rank = |x: &TailExemplar| {
            (
                core::cmp::Reverse(x.latency),
                x.at,
                x.granule,
                x.node,
                x.region,
            )
        };
        let pos = self.entries.partition_point(|have| rank(have) <= rank(&e));
        if pos >= self.k {
            return;
        }
        self.entries.insert(pos, e);
        self.entries.truncate(self.k);
    }

    /// The kept exemplars, slowest first.
    #[must_use]
    pub fn entries(&self) -> &[TailExemplar] {
        &self.entries
    }
}

impl Default for TailExemplars {
    fn default() -> Self {
        TailExemplars::new(Self::DEFAULT_K)
    }
}

/// All instruments for one simulated run.
#[derive(Debug)]
pub struct RunMetrics {
    /// Committed user transactions per time bucket (Figures 9, 11, 14c).
    pub user_commits: RateSeries,
    /// User aborts (NO_WAIT conflicts, misroutes, commit conflicts) per
    /// bucket (abort-ratio panels).
    pub user_aborts: RateSeries,
    /// Committed user transaction latency (Figure 14d).
    pub user_latency: Histogram,
    /// Migration transaction completions per bucket (Figures 8, 14a).
    pub migrations: RateSeries,
    /// Migration transaction latency (Figure 10a).
    pub migration_latency: Histogram,
    /// Migration aborts/retries (contention with user transactions).
    pub migration_retries: u64,
    /// Membership updates committed (Figure 15).
    pub membership_commits: u64,
    /// Membership update CAS retries (the OCC contention signal).
    pub membership_retries: u64,
    /// Live node count over time (cost accounting, Figure 14b).
    pub node_count: TimeSeries,
    /// First and last migration completion (reconfiguration window).
    pub migration_window: Option<(Nanos, Nanos)>,
    /// Coordination-op counters: what the scalar Meta Cost is made of
    /// (Append@LSN CAS traffic for Marlin, service writes/reads for the
    /// ZK/FDB baselines, route-watch notifications for all).
    pub coord: CoordOps,
    /// Cumulative commit-latency blame across all committed user
    /// transactions (each commit's decomposition summed, weighted by
    /// cohort walk weight on the aggregate path).
    pub blame: Blame,
}

impl RunMetrics {
    /// Fresh instruments with one-second buckets.
    #[must_use]
    pub fn new() -> Self {
        RunMetrics::with_bucket(SECOND)
    }

    /// Fresh instruments with a custom bucket width.
    #[must_use]
    pub fn with_bucket(bucket: Nanos) -> Self {
        RunMetrics {
            user_commits: RateSeries::new(bucket),
            user_aborts: RateSeries::new(bucket),
            user_latency: Histogram::new(),
            migrations: RateSeries::new(bucket),
            migration_latency: Histogram::new(),
            migration_retries: 0,
            membership_commits: 0,
            membership_retries: 0,
            node_count: TimeSeries::new(),
            migration_window: None,
            coord: CoordOps::default(),
            blame: Blame::default(),
        }
    }

    /// Accumulate a committed transaction's blame decomposition,
    /// weighted (the cohort engine's bulk path passes the walk weight).
    pub fn blame_n(&mut self, blame: &Blame, n: u64) {
        self.blame.add_weighted(blame, n);
    }

    /// Record a committed user transaction.
    pub fn commit(&mut self, at: Nanos, latency: Nanos) {
        self.commit_n(at, latency, 1);
    }

    /// Record `n` committed user transactions sharing one timeline.
    ///
    /// Exactly `n` repetitions of [`RunMetrics::commit`] — the cohort
    /// engine's bulk path for a batch of clients advanced as one flow.
    pub fn commit_n(&mut self, at: Nanos, latency: Nanos, n: u64) {
        self.user_commits.record_n(at, n);
        self.user_latency.record_n(latency, n);
    }

    /// Record a user abort.
    pub fn abort(&mut self, at: Nanos) {
        self.abort_n(at, 1);
    }

    /// Record `n` user aborts at one instant (cohort bulk path).
    pub fn abort_n(&mut self, at: Nanos, n: u64) {
        self.user_aborts.record_n(at, n);
    }

    /// Record a completed migration.
    pub fn migration(&mut self, at: Nanos, latency: Nanos) {
        self.migrations.record(at);
        self.migration_latency.record(latency);
        self.migration_window = Some(match self.migration_window {
            None => (at, at),
            Some((first, last)) => (first.min(at), last.max(at)),
        });
    }

    /// Duration of the reconfiguration (first to last migration commit).
    #[must_use]
    pub fn migration_duration(&self) -> Nanos {
        match self.migration_window {
            Some((first, last)) => last - first,
            None => 0,
        }
    }

    /// Total committed user transactions.
    #[must_use]
    pub fn total_commits(&self) -> u64 {
        self.user_commits.total()
    }

    /// Abort ratio over the whole run.
    #[must_use]
    pub fn abort_ratio(&self) -> f64 {
        let commits = self.user_commits.total();
        let aborts = self.user_aborts.total();
        if commits + aborts == 0 {
            0.0
        } else {
            aborts as f64 / (commits + aborts) as f64
        }
    }

    /// Migration latency summary.
    #[must_use]
    pub fn migration_summary(&self) -> Summary {
        self.migration_latency.summary()
    }

    /// Mean migration throughput over the reconfiguration window
    /// (migrations per second).
    #[must_use]
    pub fn migration_throughput(&self) -> f64 {
        let total = self.migrations.total();
        let dur = self.migration_duration();
        if dur == 0 {
            0.0
        } else {
            total as f64 / (dur as f64 / SECOND as f64)
        }
    }
}

impl Default for RunMetrics {
    fn default() -> Self {
        RunMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_abort_accounting() {
        let mut m = RunMetrics::new();
        m.commit(SECOND, 10 * 1_000_000);
        m.commit(SECOND + 1, 20 * 1_000_000);
        m.abort(SECOND + 2);
        assert_eq!(m.total_commits(), 2);
        assert!((m.abort_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn bulk_commit_equals_repeated_commit() {
        let mut a = RunMetrics::new();
        let mut b = RunMetrics::new();
        for _ in 0..7 {
            a.commit(SECOND, 10 * 1_000_000);
        }
        for _ in 0..3 {
            a.abort(SECOND + 1);
        }
        b.commit_n(SECOND, 10 * 1_000_000, 7);
        b.abort_n(SECOND + 1, 3);
        assert_eq!(a.total_commits(), b.total_commits());
        assert_eq!(a.user_latency.count(), b.user_latency.count());
        assert!((a.user_latency.mean() - b.user_latency.mean()).abs() < 1e-9);
        assert!((a.abort_ratio() - b.abort_ratio()).abs() < 1e-12);
    }

    #[test]
    fn blame_components_sum_and_accumulate() {
        let b = Blame {
            queue_wait: 10,
            service: 20,
            network: 30,
            network_overlay: 5,
            migration_stall: 7,
            provision_lead: 3,
            retry_backoff: 25,
        };
        assert_eq!(b.total(), 100);
        let mut acc = Blame::default();
        acc.add(&b);
        acc.add_weighted(&b, 3);
        assert_eq!(acc.total(), 400);
        assert_eq!(acc.queue_wait, 40);
        let mut m = RunMetrics::new();
        m.blame_n(&b, 2);
        assert_eq!(m.blame.total(), 200);
    }

    #[test]
    fn exemplar_table_keeps_the_k_slowest_in_total_order() {
        let mk = |latency: Nanos, at: Nanos, granule: u64| TailExemplar {
            at,
            latency,
            granule,
            node: 0,
            region: 0,
            weight: 1,
            blame: Blame::default(),
        };
        let mut t = TailExemplars::new(3);
        for &(l, at, g) in &[
            (50, 9, 1),
            (90, 5, 2),
            (10, 1, 3),
            (90, 2, 4),
            (70, 3, 5),
            (90, 2, 1),
        ] {
            t.offer(mk(l, at, g));
        }
        let got: Vec<(Nanos, Nanos, u64)> = t
            .entries()
            .iter()
            .map(|e| (e.latency, e.at, e.granule))
            .collect();
        // Latency desc, then at asc, then granule asc.
        assert_eq!(got, vec![(90, 2, 1), (90, 2, 4), (90, 5, 2)]);
        // Offer order must not matter: re-offer in reverse.
        let mut r = TailExemplars::new(3);
        for &(l, at, g) in &[
            (90, 2, 1),
            (70, 3, 5),
            (90, 2, 4),
            (10, 1, 3),
            (90, 5, 2),
            (50, 9, 1),
        ] {
            r.offer(mk(l, at, g));
        }
        assert_eq!(t.entries(), r.entries());
    }

    #[test]
    fn migration_window_tracks_extremes() {
        let mut m = RunMetrics::new();
        assert_eq!(m.migration_duration(), 0);
        m.migration(5 * SECOND, 1_000_000);
        m.migration(2 * SECOND, 1_000_000);
        m.migration(9 * SECOND, 1_000_000);
        assert_eq!(m.migration_window, Some((2 * SECOND, 9 * SECOND)));
        assert_eq!(m.migration_duration(), 7 * SECOND);
        let tput = m.migration_throughput();
        assert!((tput - 3.0 / 7.0).abs() < 1e-9);
    }
}
