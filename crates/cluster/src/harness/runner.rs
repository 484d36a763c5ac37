//! The [`Runner`] trait: the one surface every execution backend exposes
//! to the generic experiment driver.
//!
//! A runner owns a cluster-under-test and a clock. The driver never
//! touches backend-specific machinery — it advances time, observes,
//! actuates policy decisions, and injects faults through this trait
//! alone, which is what lets the same [`Scenario`](crate::harness::Scenario)
//! execute unchanged on the synchronous `LocalCluster` (real
//! reconfiguration transactions, invariants checked after every step) and
//! on the discrete-event `ClusterSim` (queueing, cold caches, migration
//! contention).

use crate::metrics::{Blame, TailExemplar};
use marlin_autoscaler::{Observation, ScaleAction};
use marlin_common::{NodeId, RegionId};
use marlin_sim::{Nanos, Summary};
use marlin_telemetry::{CoordBreakdown, MetricsSeries, ProfileSummary};

/// A fault the driver can inject mid-run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The node dies abruptly. `LocalCluster` runs the full §4.4.2
    /// recovery (kill → `RecoveryMigrTxn` onto the dead node's GLog →
    /// `DeleteNodeTxn`); the simulator models the recovery storm as an
    /// immediate drain of the victim onto the survivors.
    Crash(NodeId),
    /// Every network hop touching `region` (including intra-region hops)
    /// takes `extra` additional one-way latency until the absolute
    /// virtual time `until`. Models a degraded AZ or an overloaded
    /// inter-region link. Only the simulator has a network model; the
    /// synchronous runtime records the fault as a traced no-op.
    RegionLatencySpike {
        /// The degraded region.
        region: RegionId,
        /// Extra one-way latency per hop, ns.
        extra: Nanos,
        /// Absolute virtual time the degradation heals.
        until: Nanos,
    },
    /// Cross-region traffic to/from `region` is effectively severed
    /// until the absolute virtual time `until`: such hops take a
    /// multi-second penalty so in-flight coordination stalls but the
    /// simulation keeps making progress. Intra-region traffic is
    /// unaffected. A traced no-op on the synchronous runtime.
    RegionPartition {
        /// The partitioned region.
        region: RegionId,
        /// Absolute virtual time the partition heals.
        until: Nanos,
    },
    /// The next provisioning order (scale-out) takes `extra` additional
    /// lead time before its nodes come up — a one-shot "the cloud
    /// control plane is slow today" jitter. A traced no-op on the
    /// synchronous runtime, which provisions instantly.
    ProvisionLeadJitter {
        /// Extra lead time added to the next scale-out, ns.
        extra: Nanos,
    },
}

/// One region's slice of the end-of-run totals: where the nodes ended
/// up, how much work the region's clients committed, and what the
/// region's share of the compute bill was (§6.5's per-region split).
#[derive(Clone, Debug, PartialEq)]
pub struct RegionBreakdown {
    /// The region.
    pub region: u16,
    /// Live members placed in the region at the end of the run.
    pub live_nodes: u32,
    /// Their node ids (the placement report).
    pub nodes: Vec<u32>,
    /// Committed user transactions attributed to the region's clients
    /// (0 where the runner has no load generator).
    pub commits: u64,
    /// Region share of DB Cost, $.
    pub db_cost: f64,
}

/// End-of-run totals every runner can produce.
///
/// Counters a runner cannot measure are zero (e.g. the synchronous
/// runtime has no load generator, so its commit counters stay at zero
/// while its migration and cost accounting are real).
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Live member count at the end of the run.
    pub live_nodes: u32,
    /// Committed user transactions.
    pub commits: u64,
    /// Aborts over (commits + aborts).
    pub abort_ratio: f64,
    /// Mean committed-transaction latency, ns.
    pub mean_latency: f64,
    /// p99 committed-transaction latency.
    pub p99_latency: Nanos,
    /// Completed granule migrations.
    pub migrations: u64,
    /// First-to-last migration commit (the paper's migration duration).
    pub migration_duration: Nanos,
    /// Migrations per second over that window.
    pub migration_throughput: f64,
    /// MigrationTxn latency stats (Figure 10a).
    pub migration_latency: Summary,
    /// Committed membership updates (Figure 15).
    pub membership_commits: u64,
    /// Membership CAS retries (the OCC contention signal).
    pub membership_retries: u64,
    /// Mean membership-update latency, ns.
    pub membership_mean_latency: f64,
    /// Compute spend, $ (§6.1.5 DB Cost).
    pub db_cost: f64,
    /// Coordination-service spend, $ (§6.1.5 Meta Cost; 0 for Marlin).
    pub meta_cost: f64,
    /// What the Meta Cost scalar is made of: per-subsystem coordination-op
    /// counts with the dollars attributed across them (sums back to
    /// `meta_cost`; all-zero dollars for Marlin).
    pub coordination: CoordBreakdown,
    /// DB + Meta.
    pub total_cost: f64,
    /// Cost per million committed user transactions.
    pub cost_per_mtxn: f64,
    /// Live node count over time (exact, from the runner's own series).
    pub node_count: Vec<(Nanos, f64)>,
    /// Per-region node/throughput/cost split (one entry per region the
    /// runner placed nodes in; a single entry for region 0 otherwise).
    pub region_breakdown: Vec<RegionBreakdown>,
    /// Cumulative commit-latency attribution across every committed user
    /// transaction: where the run's latency went, component by component
    /// (all-zero where the runner has no load generator).
    pub blame: Blame,
    /// The run's slowest commits with their blame breakdowns, slowest
    /// first (empty where the runner has no load generator).
    pub tail_exemplars: Vec<TailExemplar>,
}

impl MetricsSnapshot {
    /// The breakdown entry for `region`, if any.
    #[must_use]
    pub fn region(&self, region: u16) -> Option<&RegionBreakdown> {
        self.region_breakdown.iter().find(|r| r.region == region)
    }

    /// Peak live node count over the run.
    #[must_use]
    pub fn peak_nodes(&self) -> u32 {
        self.node_count
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max) as u32
    }

    /// When the node count first returned to `base` after `after` — the
    /// scale-in release lag the paper reports (12 s for Marlin vs
    /// 45 s/32 s for S-ZK/L-ZK in §6.6).
    #[must_use]
    pub fn release_lag(&self, base: u32, after: Nanos) -> Option<Nanos> {
        self.node_count
            .iter()
            .find(|&&(t, v)| t >= after && v <= f64::from(base))
            .map(|&(t, _)| t - after)
    }
}

/// Observability numbers a runner attaches to its report when telemetry
/// was on for the run. `None` (and an omitted JSON key) otherwise, so
/// telemetry-off reports stay bit-identical to historical ones — the
/// profiler's wall-clock numbers measure the host, not the model, and
/// must never leak into the deterministic surface by default.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySection {
    /// Trace events currently buffered (post ring-overwrite).
    pub trace_events: usize,
    /// Events the ring buffer overwrote (0 unless the run outgrew it).
    pub trace_dropped: u64,
    /// Wall-time self-profile (all zero when only tracing was on).
    pub profile: ProfileSummary,
    /// Virtual nanoseconds the run covered.
    pub virtual_nanos: Nanos,
}

impl TelemetrySection {
    /// Virtual seconds simulated per wall second — the sim's speedup
    /// factor (0 when no wall time was recorded).
    #[must_use]
    pub fn virtual_per_wall(&self) -> f64 {
        if self.profile.total_wall_nanos == 0 {
            0.0
        } else {
            self.virtual_nanos as f64 / self.profile.total_wall_nanos as f64
        }
    }
}

/// One execution backend for [`run`](crate::harness::run).
pub trait Runner {
    /// Short name for reports ("cluster-sim", "local-cluster").
    fn name(&self) -> &'static str;

    /// Current virtual (or logical) time.
    fn now(&self) -> Nanos;

    /// Advance the clock by `dt`, processing everything scheduled within.
    fn advance(&mut self, dt: Nanos);

    /// Snapshot cluster health over the trailing `window`.
    fn observe(&mut self, window: Nanos) -> Observation;

    /// Apply one scale action at the current time.
    fn actuate(&mut self, action: &ScaleAction);

    /// Inject a fault at the current time.
    fn inject(&mut self, fault: &Fault);

    /// Final bookkeeping once the horizon is reached (cost settlement).
    fn finish(&mut self);

    /// End-of-run totals.
    fn metrics(&self) -> MetricsSnapshot;

    /// Append this backend's vitals to the current tick row of the run's
    /// metrics recorder. The driver opens the row (one per control tick,
    /// after `observe`) and appends its own SLO series afterwards; the
    /// default emits nothing. Implementations must emit a deterministic
    /// point set — static names, fixed order, values derived only from
    /// virtual-time state — so the exported timeline is byte-identical
    /// for a fixed (Scenario, seed).
    fn metrics_tick(&mut self, _at: Nanos, _series: &mut MetricsSeries) {}

    /// Telemetry numbers for the report, when tracing/profiling was on
    /// for the run (`None` otherwise — the JSON key is then omitted).
    fn telemetry(&self) -> Option<TelemetrySection> {
        None
    }

    /// The run's Chrome trace-event JSON, when tracing was on (the
    /// driver writes it to the `MARLIN_TRACE` path after `finish`).
    fn trace_json(&self) -> Option<String> {
        None
    }
}
