//! Calibrated simulator constants.
//!
//! Each constant is tied to the paper's testbed (§6.1.1): compute nodes
//! are Standard D4s v3 (4 vCPU, 16 GB, 2 Gbps) in Azure West US 2; the
//! storage account is standard general-purpose v2 with Append Blobs; the
//! client runs interactive transactions over gRPC. Absolute values are
//! calibrated so the *shapes* of the paper's figures reproduce (who wins,
//! scaling trends, crossover points); EXPERIMENTS.md records the measured
//! ratios next to the paper's.

use marlin_baselines::{CoordinationService, FdbProfile, FdbService, ZkProfile, ZkService};
use marlin_sim::{Nanos, RegionMatrix, MICROSECOND, MILLISECOND};

/// Which coordination mechanism the cluster uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordKind {
    /// Marlin: coordination through the database's own logs (no service).
    Marlin,
    /// ZooKeeper ensemble on D4s v3 hardware.
    ZkSmall,
    /// ZooKeeper ensemble on D8s v3 hardware.
    ZkLarge,
    /// FoundationDB cluster on D4s v3-comparable hardware.
    Fdb,
}

impl CoordKind {
    /// Display name used in reports (matches the paper's legends).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CoordKind::Marlin => "Marlin",
            CoordKind::ZkSmall => "S-ZK",
            CoordKind::ZkLarge => "L-ZK",
            CoordKind::Fdb => "FDB",
        }
    }

    /// All four systems in the paper's plotting order.
    #[must_use]
    pub fn all() -> [CoordKind; 4] {
        [
            CoordKind::Marlin,
            CoordKind::ZkSmall,
            CoordKind::ZkLarge,
            CoordKind::Fdb,
        ]
    }

    /// The three systems of Figures 8/9/11/14 (no FDB).
    #[must_use]
    pub fn zk_comparison() -> [CoordKind; 3] {
        [CoordKind::Marlin, CoordKind::ZkSmall, CoordKind::ZkLarge]
    }

    /// A fresh instance of the external coordination service behind this
    /// kind, on the paper's hardware profile; `None` for Marlin, which
    /// coordinates through the database's own logs.
    pub(crate) fn service(self) -> Option<Box<dyn CoordinationService>> {
        match self {
            CoordKind::Marlin => None,
            CoordKind::ZkSmall => Some(Box::new(ZkService::new(ZkProfile::small()))),
            CoordKind::ZkLarge => Some(Box::new(ZkService::new(ZkProfile::large()))),
            CoordKind::Fdb => Some(Box::new(FdbService::new(FdbProfile::paper_default()))),
        }
    }
}

/// Which CPU congestion model each simulated node runs.
///
/// The simulator executes a transaction's whole timeline in one event,
/// so CPU demands reach a node's station out of chronological order.
/// Two models handle that, with different fidelity/cost trade-offs:
///
/// - [`CpuModel::Analytic`] (the default) — the historical EMA station:
///   each request is charged its service time plus an M/M/c-style
///   congestion delay derived from an exponentially-averaged utilization
///   estimate. Fast, smooth, and bit-identical to every decision log
///   produced before this enum existed — but latency is an
///   *approximation*: the congestion factor is clamped below saturation,
///   so p99s under a sustained overload flatten instead of growing with
///   the real backlog.
/// - [`CpuModel::PerRequest`] — a true per-request queueing station:
///   every request books a concrete service slot on a concrete worker
///   (earliest-fit over per-worker reservation calendars), and its
///   latency is the *exact sojourn time* — waiting plus service. Queue
///   build-up appears in p99s immediately and without a ceiling, which
///   is what makes scaling-policy comparisons around latency SLOs
///   credible (the Marlin §6 tail-latency claims, the autoscaler's
///   `p99_ceiling` escape hatch). Costs O(in-flight bookings) per charge
///   instead of O(1).
///
/// Use `Analytic` for cheap sweeps and anywhere historical decision-log
/// parity matters; use `PerRequest` when the experiment's subject is
/// latency under load (tail-latency figures, latency-triggered scaling).
/// See `docs/ARCHITECTURE.md` for the full guidance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CpuModel {
    /// Analytic EMA congestion model (historical behavior, O(1) per
    /// request, approximate latency).
    #[default]
    Analytic,
    /// Per-request queueing station (exact sojourn times, real queue
    /// lengths in observations).
    PerRequest,
}

impl CpuModel {
    /// Stable lowercase name used in reports and JSON artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CpuModel::Analytic => "analytic",
            CpuModel::PerRequest => "per-request",
        }
    }

    /// Both models, in comparison order (the model-comparison preset).
    #[must_use]
    pub fn all() -> [CpuModel; 2] {
        [CpuModel::Analytic, CpuModel::PerRequest]
    }
}

/// How `ClusterSim` scales: the simulator's one scale switch.
///
/// - [`ClientEngine::Exact`] (the default) — one `ClientTxn` event per
///   client transaction, an exact per-granule heat vector and an exact
///   `(commit time, latency, region, weight)` window for p99. Every §6
///   decision log and report digest comes from this engine.
/// - [`ClientEngine::Cohort`] — the scale engine, for
///   `million_clients`-scale runs where per-client events would
///   dominate wall time. Clients sharing a region advance as one cohort
///   in fixed virtual steps: each step samples a handful of
///   representative transaction walks with the cohort's own forked
///   [`DetRng`](marlin_sim::DetRng) stream and offers the remaining
///   demand to the CPU stations in bulk, so demand redistributes on the
///   step after any migration. Windowed p99 comes from log-bucketed
///   histograms (an underestimate within 1/32), and granule heat from a
///   count-min sketch once the table reaches
///   [`SKETCH_MIN_KEYS`](marlin_sim::sketch::SKETCH_MIN_KEYS) granules
///   (below that the exact vector is cheaper and is used).
///
/// See `docs/ARCHITECTURE.md` ("Scale engine").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ClientEngine {
    /// One event per client transaction, exact heat and latency window.
    #[default]
    Exact,
    /// Flow-level cohorts, histogram latency window, sketched heat on
    /// large tables.
    Cohort,
}

impl ClientEngine {
    /// Stable lowercase name used in reports and repro artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ClientEngine::Exact => "exact",
            ClientEngine::Cohort => "cohort",
        }
    }

    /// Both engines, in comparison order (exact first: it is the oracle).
    #[must_use]
    pub fn all() -> [ClientEngine; 2] {
        [ClientEngine::Exact, ClientEngine::Cohort]
    }
}

/// All tunable constants of the simulated testbed.
#[derive(Clone, Debug)]
pub struct SimParams {
    // -- network -----------------------------------------------------------
    /// Intra-region round trip between any two VMs (Azure same-AZ TCP/gRPC
    /// round trip including serialization: ~1.5-3 ms at the message sizes
    /// of interactive OLTP; calibrated 3 ms so 800 closed-loop clients
    /// saturate 8 nodes near the paper's pre-scale-out throughput).
    pub intra_rtt: Nanos,
    /// Round trip to the storage service for one append/page read.
    pub storage_rtt: Nanos,
    /// Cross-region one-way latencies (geo scenarios); single region by
    /// default.
    pub regions: RegionMatrix,

    // -- compute node (Standard D4s v3: 4 vCPU) -----------------------------
    /// Worker threads per node serving requests.
    pub cpu_workers: usize,
    /// How each node's CPU congestion is modeled (see [`CpuModel`]).
    pub cpu_model: CpuModel,
    /// CPU service time per user request (parse, index, lock, buffer).
    pub req_service: Nanos,
    /// CPU service time per migration step at src/dst.
    pub migration_service: Nanos,
    /// Mean extra wait introduced by group commit batching (half the
    /// paper's batch window).
    pub group_commit_wait: Nanos,

    // -- storage service -----------------------------------------------------
    /// Storage-side service time per log append operation (batched group
    /// commits count as one operation).
    pub append_service: Nanos,
    /// GetPage@LSN service time on a cache miss (page store lookup).
    pub get_page_service: Nanos,

    // -- data / cache ----------------------------------------------------------
    /// Cold-granule accesses that miss before the granule is warm when no
    /// proactive warm-up has completed (pages per granule).
    pub cold_misses_per_granule: u32,
    /// Time to warm one migrated granule via the Squall-style scan (64 KB
    /// over a shared 2 Gbps NIC, plus request overhead).
    pub warmup_per_granule: Nanos,

    // -- client behavior ----------------------------------------------------------
    /// Requests per YCSB transaction (paper: 16).
    pub reqs_per_txn: usize,
    /// Exponential backoff floor after an abort.
    pub backoff_base: Nanos,
    /// Backoff cap (paper: 100 ms).
    pub backoff_cap: Nanos,
    /// Delay until a migrated granule's new owner appears in the routing
    /// tier via the periodic ownership broadcast (§4.2). Misrouted
    /// requests in this window abort with a redirect.
    pub route_broadcast_delay: Nanos,

    // -- membership ---------------------------------------------------------------
    /// Cost of refreshing the MTable cache after a SysLog CAS failure
    /// (read the log suffix from storage).
    pub mtable_refresh: Nanos,

    // -- provisioning ------------------------------------------------------------
    /// Wall-clock (virtual) time between an `AddNodes` actuation and the
    /// moment the new nodes join the membership and begin accepting
    /// load: VM allocation, boot, engine start (a D4s v3 lands in tens
    /// of seconds on Azure). Applies to scale-*outs* only — drains act
    /// on nodes that already exist.
    ///
    /// Default 0 (instant capacity, the historical behavior — every
    /// pre-existing decision log stays bit-identical). A non-zero lead
    /// is what makes prediction matter: a reactive policy that scales
    /// on the breach eats the whole lead as queue build-up, while a
    /// [`PredictivePolicy`](marlin_autoscaler::PredictivePolicy) orders
    /// capacity `lead` ahead so it lands as the demand does.
    pub provision_lead_time: Nanos,

    // -- cost (§6.1.5) ---------------------------------------------------------------
    /// Hourly price of one compute node (Standard D4s v3, $0.192/h).
    pub node_hourly: f64,

    // -- scale engine (docs/ARCHITECTURE.md, "Scale engine") ----------------------
    /// Exact simulation or the scale engine (see [`ClientEngine`]).
    pub client_engine: ClientEngine,

    /// RNG seed for the run.
    pub seed: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            intra_rtt: 3 * MILLISECOND,
            storage_rtt: 800 * MICROSECOND,
            // Diagonal = intra_rtt/2 so the coordination-service path sees
            // the same one-way latency as any other intra-region hop.
            regions: RegionMatrix::single(1_500 * MICROSECOND),
            cpu_workers: 4,
            cpu_model: CpuModel::default(),
            req_service: 180 * MICROSECOND,
            migration_service: 60 * MICROSECOND,
            group_commit_wait: 500 * MICROSECOND,
            append_service: 25 * MICROSECOND,
            get_page_service: 150 * MICROSECOND,
            cold_misses_per_granule: 4,
            warmup_per_granule: 400 * MICROSECOND,
            reqs_per_txn: 16,
            backoff_base: MILLISECOND,
            backoff_cap: 100 * MILLISECOND,
            route_broadcast_delay: 200 * MILLISECOND,
            mtable_refresh: 900 * MICROSECOND,
            provision_lead_time: 0,
            node_hourly: 0.192,
            client_engine: ClientEngine::default(),
            seed: 42,
        }
    }
}

impl SimParams {
    /// Parameters for the four-region geo deployment of §6.5.
    #[must_use]
    pub fn geo() -> Self {
        SimParams {
            regions: RegionMatrix::paper_geo(),
            ..SimParams::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(CoordKind::Marlin.name(), "Marlin");
        assert_eq!(CoordKind::ZkSmall.name(), "S-ZK");
        assert_eq!(CoordKind::ZkLarge.name(), "L-ZK");
        assert_eq!(CoordKind::Fdb.name(), "FDB");
    }

    #[test]
    fn profiles_exist_only_for_matching_kinds() {
        assert!(CoordKind::Marlin.service().is_none());
        for kind in [CoordKind::ZkSmall, CoordKind::ZkLarge, CoordKind::Fdb] {
            let svc = kind.service().expect("an external service");
            assert_eq!(svc.name(), kind.name());
        }
    }

    #[test]
    fn default_params_are_sane() {
        let p = SimParams::default();
        assert!(p.intra_rtt > p.storage_rtt / 4);
        assert!(p.backoff_cap >= p.backoff_base);
        assert_eq!(p.regions.regions(), 1);
        assert_eq!(SimParams::geo().regions.regions(), 4);
        // Instant capacity by default: every historical decision log was
        // produced without a provisioning delay, and the parity suites
        // pin those logs bit-for-bit.
        assert_eq!(p.provision_lead_time, 0);
    }

    #[test]
    fn client_engine_defaults_to_exact_for_decision_log_parity() {
        // The default must stay `Exact`: every historical decision log
        // and fuzz digest was produced by the per-client event loop over
        // the exact heat vector and the exact latency window.
        let p = SimParams::default();
        assert_eq!(p.client_engine, ClientEngine::Exact);
        assert_eq!(ClientEngine::Exact.name(), "exact");
        assert_eq!(ClientEngine::Cohort.name(), "cohort");
        assert_eq!(
            ClientEngine::all(),
            [ClientEngine::Exact, ClientEngine::Cohort]
        );
    }

    #[test]
    fn cpu_model_defaults_to_analytic_for_decision_log_parity() {
        // The default must stay `Analytic`: every historical decision log
        // (and the runner-parity pins) was produced by the EMA station.
        assert_eq!(SimParams::default().cpu_model, CpuModel::Analytic);
        assert_eq!(CpuModel::Analytic.name(), "analytic");
        assert_eq!(CpuModel::PerRequest.name(), "per-request");
        assert_eq!(CpuModel::all(), [CpuModel::Analytic, CpuModel::PerRequest]);
    }
}
