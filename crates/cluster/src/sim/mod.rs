//! The cluster simulator: the paper's testbed in virtual time.
//!
//! The simulator combines **real coordination state** with **modeled
//! time**:
//!
//! - Every node owns the CAS state of its GLog (which doubles as its
//!   data WAL) — the log's LSN, compared and advanced exactly as
//!   `SharedLog::conditional_append` does — and a real `LsnTracker`.
//!   Marlin's reconfigurations run `marlin_core`'s own drivers against
//!   it: each migration is a `MigrationDriver` and each membership
//!   update an `AddNodeDriver`/`DeleteNodeDriver`, their effects
//!   fulfilled and priced by `protocol`. So CAS conflicts, retries and
//!   the Figure 15 contention collapse on the SysLog *emerge* from the
//!   protocol rather than being scripted. A GLog CAS cannot fail in the
//!   simulator today: each GLog is appended only under its owner's own
//!   tracker (user commits, and a migration's prepared record and vote
//!   on the two nodes' own logs). What is not kept is the records:
//!   nothing reads a simulated log back, so a log is its LSN and memory
//!   does not grow with a run's commits.
//! - Network hops, CPU service, storage appends and page reads are priced
//!   through latency models ([`marlin_sim`]) and queueing stations; the
//!   baseline coordination services through their write pipelines
//!   (`service`).
//!
//! Transactions are simulated at flow level: each interactive transaction
//! computes its full timeline (16 request round trips through the node's
//! CPU station, cold-page fetches, group commit, log CAS) in one event and
//! schedules its own completion; NO_WAIT conflicts are enforced through
//! per-granule busy windows, which a migration's owner read checks. This
//! keeps 100K-migration scale-outs tractable while preserving queueing
//! behavior (stations are work-conserving across interleaved offers).
//!
//! This file holds the state, `new`, the accessors, `run*` and the event
//! dispatch; the layers are child modules (so every field stays private):
//! `station` — the two node CPU models [`SimParams::cpu_model`] selects,
//! [`CpuStation`] and [`PerRequestStation`] (trade-off: [`CpuModel`]);
//! `walk` — the one transaction timeline, its commit/abort booking, the
//! exact client engine; `cohort` — the cohort engine over the same walk;
//! `migration` — actuation, plans, the migration worker; `membership` —
//! the Figure 15 stress; `protocol` — the effect pricer that runs the
//! reconfiguration drivers in virtual time; `service` — the ZooKeeper and
//! FoundationDB baselines' write pipeline; `observe` — what the
//! autoscaler sees.

use crate::cost::CostModel;
use crate::metrics::{Blame, RunMetrics, TailExemplar, TailExemplars};
use crate::params::{ClientEngine, CoordKind, CpuModel, SimParams};
use marlin_autoscaler::{GranuleLoad, GranuleMove, NodeLoad, Observation, ScaleAction};
use marlin_common::{GranuleId, LogId, Lsn, NodeId, RegionId};
use marlin_core::{LsnTracker, MTable};
use marlin_sim::sketch::SKETCH_MIN_KEYS;
use marlin_sim::{ActorId, DetRng, EventQueue, HeatTracker, Nanos, TimeSeries, SECOND};
use marlin_telemetry::{CoordBreakdown, CoordOps, LatencyHist, ProfileSummary, Profiler, Tracer};
use marlin_workload::{
    interleaved_share, TpccConfig, TpccGenerator, TxnTemplate, YcsbConfig, YcsbGenerator,
};
use std::collections::VecDeque;

mod cohort;
mod membership;
mod migration;
mod observe;
mod protocol;
mod service;
mod station;
mod walk;

use cohort::Cohort;
use migration::PendingPlan;
use observe::LatencyWindow;
use station::NodeCpu;
use walk::{Walk, WalkEnd};

pub(crate) use service::CoordService;
pub use station::{CpuStation, PerRequestStation};

/// Fork label of the heat sketch's row-seed stream (pure fork: drawing
/// it consumes nothing from the main stream, so exact-path RNG
/// trajectories are unchanged whether or not the sketch is on).
const FORK_SKETCH: u64 = 7001;

/// Fork label of the cohort engine's generator base stream; per-cohort
/// generator streams are derived from it by region index.
const FORK_COHORT: u64 = 7002;

/// A shared log as the simulator keeps it: the LSN, which is all of a
/// log's state that `Append@LSN` compares against and all the simulator
/// ever reads back. Payloads are not modeled, so no record is retained
/// and memory does not grow with the commits of a run.
#[derive(Default)]
struct SimLog(Lsn);

impl SimLog {
    /// Unconditional append of one record; returns the new LSN.
    fn append(&mut self) -> Lsn {
        self.0 = Lsn(self.0 .0 + 1);
        self.0
    }

    /// `Append@LSN`: appends one record iff the log is at `expected`,
    /// otherwise fails with the log's current LSN (what
    /// `StorageError::LsnMismatch` carries) so the caller can refresh
    /// its tracker.
    fn conditional_append(&mut self, expected: Lsn) -> Result<Lsn, Lsn> {
        if self.0 == expected {
            Ok(self.append())
        } else {
            Err(self.0)
        }
    }
}

/// One simulated compute node.
struct NodeSim {
    /// Region the node runs in.
    region: RegionId,
    /// CPU congestion station (4 vCPU), in whichever [`CpuModel`] the
    /// run's [`SimParams`] selected.
    cpu: NodeCpu,
    /// The node's GLog (metadata + data WAL): real CAS state, no payloads.
    glog: SimLog,
    /// The node's H-LSN tracker.
    tracker: LsnTracker,
    /// Storage-side append station for this log. Always analytic: append
    /// bandwidth is not the subject of the per-request model, and user
    /// commits book at out-of-order future times (see [`CpuStation`]).
    append_station: CpuStation,
    /// Whether the node is a live member.
    alive: bool,
    /// Whether its removal was ordered (it still serves until released).
    leaving: bool,
}

impl NodeSim {
    /// `Append@LSN` on this node's GLog (node index `id`) at the LSN its
    /// tracker last saw. Either way the tracker learns where the log is:
    /// the new LSN, or on a lost CAS the current one.
    fn append_at_tracked_lsn(&mut self, id: usize) -> Result<Lsn, Lsn> {
        let log = LogId::GLog(NodeId(id as u32));
        let outcome = self.glog.conditional_append(self.tracker.get(log));
        let (Ok(lsn) | Err(lsn)) = outcome;
        self.tracker.observe(log, lsn);
        outcome
    }
}

/// One granule's dynamic state.
#[derive(Clone, Copy)]
struct GranuleSim {
    /// Authoritative owner (node index).
    owner: u32,
    /// Latest completion time of any user transaction touching it
    /// (NO_WAIT lock horizon).
    busy_until: Nanos,
    /// Cold-page fetches remaining before the granule is warm at its
    /// current owner (0 = warm).
    cold_left: u32,
}

/// The per-client workload stream.
enum ClientGen {
    Ycsb(YcsbGenerator),
    Tpcc(TpccGenerator),
}

impl ClientGen {
    fn next_txn(&mut self) -> TxnTemplate {
        match self {
            ClientGen::Ycsb(g) => g.next_txn(),
            ClientGen::Tpcc(g) => g.next_txn(),
        }
    }
}

/// One closed-loop interactive client.
struct ClientSim {
    region: RegionId,
    gen: ClientGen,
    /// Consecutive aborts (drives exponential backoff, capped 100 ms §6.1.4).
    strikes: u32,
    /// Clients beyond the active count idle until re-activated (dynamic
    /// workload scenario).
    active: bool,
    /// First dispatch time of the transaction currently being retried
    /// (client-perceived latency includes retries).
    attempt_started: Option<Nanos>,
    /// Blame accrued by aborted attempts of the in-flight transaction;
    /// folded into the commit's attribution so the components sum to
    /// the client-perceived latency (which includes retries).
    attempt_blame: Blame,
}

/// The external coordination service, if any.
enum CoordBackend {
    Marlin,
    Service(CoordService),
}

/// Simulator events.
enum Event {
    /// A client dispatches its next transaction (or retries).
    ClientTxn { client: u32 },
    /// A client cohort advances one flow-level step (cohort engine).
    CohortStep { cohort: u32 },
    /// A migration worker thread picks up its next task.
    MigWorker { worker: u32 },
    /// A granule's proactive warm-up finished.
    WarmupDone { granule: u64 },
    /// The periodic ownership broadcast reached the routing tier (§4.2:
    /// "compute nodes can periodically broadcast updates of their owned
    /// GTable partitions to routers, thereby reducing redirections").
    RouteUpdate { granule: u64 },
    /// Periodic cost sampling.
    CostTick,
    /// One virtual member fires its membership update (Figure 15).
    MembershipTick { member: u32 },
    /// Dynamic scenario: change the number of active clients.
    SetClients { count: u32 },
    /// Geo scenario: change one region's active client count (clients are
    /// interleaved over regions; region `r`'s clients are `r, r+R, ...`).
    SetRegionClients { region: u16, count: u32 },
    /// Dynamic scenario: start (or hold) a scale-out or rebalance plan.
    StartPlan { plan_idx: usize },
    /// Dynamic scenario: drain `victims` onto survivors, or hold the
    /// drain (the plan is built at start time against current ownership).
    StartDrain {
        victims: Vec<u32>,
        threads_per_victim: u32,
    },
    /// Scale-in bookkeeping: remove nodes that have been fully drained.
    ReleaseDrained,
    /// An injected network-latency overlay (region latency spike or
    /// partition) heals: drop the overlay with this token.
    EndNetworkOverlay { token: u64 },
}

/// The simulated cluster. [`SimParams::client_engine`] is read once, in
/// [`ClusterSim::new`], and fixes how clients advance, how heat is
/// counted and how the latency window is kept (see [`ClientEngine`]).
pub struct ClusterSim {
    params: SimParams,
    kind: CoordKind,
    queue: EventQueue<Event>,
    rng: DetRng,
    nodes: Vec<NodeSim>,
    granules: Vec<GranuleSim>,
    /// Granules owned per node slot: set from the block bounds in `new`,
    /// moved at the ownership flip in `handle_mig_worker`, never recounted.
    owned: Vec<u64>,
    /// Routing-tier cache granule → node index (stale entries fixed by
    /// redirects, as in §4.2).
    routes: Vec<u32>,
    clients: Vec<ClientSim>,
    active_clients: u32,
    backend: CoordBackend,
    /// The global SysLog (membership; real CAS state).
    syslog: SimLog,
    syslog_station: CpuStation,
    /// Per-virtual-member SysLog trackers (membership stress test).
    member_trackers: Vec<LsnTracker>,
    /// The membership the SysLog holds: every SysLog CAS that wins is
    /// applied here, and membership drivers check against it.
    mtable: MTable,
    /// Sequence number of the last driver transaction started.
    txn_seq: u32,
    membership_latency_sum: Nanos,
    /// Membership stress cadence and per-member tick origins.
    membership_period: Nanos,
    membership_origins: Vec<Nanos>,
    /// First attempt time of each member's in-flight update (latency
    /// includes OCC retries — the Figure 15 degradation signal).
    membership_starts: Vec<Option<Nanos>>,
    /// Migration worker state: (queue, cursor). A finished worker's
    /// queue is freed; its cursor keeps the count of tasks it ran.
    workers: Vec<(Vec<GranuleMove>, usize)>,
    /// Workers whose final event (queue exhausted) has not fired yet.
    active_workers: u32,
    /// Plans scheduled but not yet started (scale-out task lists are
    /// built when the plan starts; see [`PendingPlan`]).
    pending_plans: Vec<PendingPlan>,
    /// `StartPlan`/`StartDrain` events that fired while another plan's
    /// workers were active, in firing order: plans run one at a time, as
    /// `LocalRunner` runs each actuation to completion.
    held: VecDeque<Event>,
    /// Flow-level client cohorts (cohort engine only; empty otherwise).
    cohorts: Vec<Cohort>,
    /// Walk buffers — the exact engine's, the cohort engine's `COHORT_SAMPLES`:
    /// empty until a first walk grows them, then cleared and reused.
    exact_walk: Walk,
    cohort_walks: Vec<Walk>,
    /// Committed user transactions in the recent past, what `observe`
    /// reads throughput and p99 from: exact tuples, or histograms under
    /// the cohort engine.
    lat_window: LatencyWindow,
    /// The run's slowest commits with their blame breakdowns.
    exemplars: TailExemplars,
    /// Committed user transactions per client region (the §6.5 per-region
    /// throughput split).
    region_commits: Vec<u64>,
    /// Live-node-nanoseconds accrued per region (the per-region DB Cost
    /// split; mirrors the global `CostModel` accounting).
    region_node_ns: Vec<f64>,
    /// Last time `region_node_ns` was brought current.
    region_accrued_at: Nanos,
    /// Accesses per granule since the last observation (heat sampling
    /// for the rebalance planner): exact counters, or a deterministic
    /// count-min sketch under the cohort engine when the granule table
    /// is large enough.
    heat: HeatTracker,
    /// Nodes whose drain has started; each is released once empty.
    draining: Vec<u32>,
    /// Active network overlays from injected region faults:
    /// `(token, region, extra one-way latency, cross_region_only)`.
    /// Empty in every non-fuzzed run, so `one_way` costs one `is_empty`
    /// check and existing timestamp streams stay bit-identical.
    net_overlays: Vec<(u64, u16, Nanos, bool)>,
    /// Monotonic token source for overlay heal events.
    overlay_seq: u64,
    /// One-shot extra provisioning lead consumed by the next scale-out
    /// order (injected [`jitter_provision_lead`](Self::jitter_provision_lead)).
    lead_extra_once: Nanos,
    /// Granules initially owned by each region's nodes (geo deployments
    /// keep clients local: "each client accessing only local compute
    /// nodes", §6.5 — and migrations stay within a region), as blocks:
    /// per region, each of its initial nodes' non-empty blocks as
    /// `(offset in the region, first granule)`, in node order, closed by
    /// `(granules in the region, 0)`.
    region_blocks: Vec<Vec<(u64, u64)>>,
    /// Measurement state.
    pub metrics: RunMetrics,
    /// The §6.1.5 cost model (DB Cost + Meta Cost accrual).
    pub cost: CostModel,
    /// Cumulative cost over time (Figure 14b).
    pub cost_series: TimeSeries,
    /// Virtual-time tracer (enabled by `MARLIN_TRACE`, or explicitly).
    tracer: Tracer,
    /// Wall-time self-profiler (enabled by `MARLIN_BENCH_JSON`, or
    /// explicitly). Its numbers measure the host and are therefore kept
    /// out of the deterministic report surface unless requested.
    profiler: Profiler,
    /// End of simulated time.
    horizon: Nanos,
}

/// Which workload the clients run.
#[derive(Clone, Debug)]
pub enum Workload {
    /// YCSB over `granules` granules (64 tuples each). `zipfian:
    /// Some(theta)` skews the anchor-granule distribution (hot granules at
    /// the low ids); `None` is the paper's uniform access.
    Ycsb {
        /// Number of granules the table spans.
        granules: u64,
        /// Zipfian skew θ of the anchor-granule distribution, if any.
        zipfian: Option<f64>,
    },
    /// TPC-C with one warehouse per granule.
    Tpcc {
        /// Number of warehouses (= granules).
        warehouses: u64,
    },
}

impl Workload {
    /// Uniform YCSB over `granules` granules (the paper's default).
    #[must_use]
    pub fn ycsb(granules: u64) -> Self {
        Workload::Ycsb {
            granules,
            zipfian: None,
        }
    }

    /// Zipfian-skewed YCSB (hot granules concentrated at the low ids).
    #[must_use]
    pub fn ycsb_zipfian(granules: u64, theta: f64) -> Self {
        Workload::Ycsb {
            granules,
            zipfian: Some(theta),
        }
    }

    /// TPC-C with one warehouse per granule.
    #[must_use]
    pub fn tpcc(warehouses: u64) -> Self {
        Workload::Tpcc { warehouses }
    }

    /// Number of granules the workload spans.
    #[must_use]
    pub fn granule_count(&self) -> u64 {
        match self {
            Workload::Ycsb { granules, .. } => *granules,
            Workload::Tpcc { warehouses } => *warehouses,
        }
    }
}

/// Granule `g` of `count` starts on node `floor(g · nodes / count)`: node
/// `n` holds the block `[ceil(n · count / nodes), ceil((n + 1) · count /
/// nodes))`, empty when there are more nodes than granules. Filling the
/// blocks takes one division per node, not one per granule.
fn initial_blocks(count: u64, nodes: u32) -> Vec<GranuleSim> {
    let block_end =
        |n: u32| (u128::from(n + 1) * u128::from(count)).div_ceil(u128::from(nodes)) as usize;
    let mut granules = Vec::with_capacity(count as usize);
    for owner in 0..nodes {
        granules.resize(
            block_end(owner),
            GranuleSim {
                owner,
                busy_until: 0,
                cold_left: 0,
            },
        );
    }
    granules
}

impl ClusterSim {
    /// Build a cluster of `initial_nodes` nodes with the given workload,
    /// client count, and coordination backend. Granules start contiguously
    /// assigned (block partitioning) and warm.
    #[must_use]
    pub fn new(
        params: SimParams,
        kind: CoordKind,
        workload: &Workload,
        initial_nodes: u32,
        clients: u32,
        horizon: Nanos,
    ) -> Self {
        let rng = DetRng::seed(params.seed);
        let granule_count = workload.granule_count();
        let regions = params.regions.regions() as u16;

        // Nodes: spread across regions round-robin (geo scenarios place
        // equal node counts per region, §6.5).
        let nodes: Vec<NodeSim> = (0..initial_nodes)
            .map(|i| NodeSim {
                region: RegionId(i as u16 % regions),
                cpu: NodeCpu::new(params.cpu_model, params.cpu_workers),
                glog: SimLog::default(),
                tracker: LsnTracker::new(),
                append_station: CpuStation::new(1),
                alive: true,
                leaving: false,
            })
            .collect();

        // Granules: contiguous blocks per node, all warm.
        let granules = initial_blocks(granule_count, initial_nodes);
        let routes = granules.iter().map(|g| g.owner).collect();
        // Blocks are contiguous: a node owns from its block's start to the next one's.
        let start = |n: usize| granules.partition_point(|g| (g.owner as usize) < n) as u64;
        let owned: Vec<u64> = (0..nodes.len()).map(|n| start(n + 1) - start(n)).collect();
        // The blocks follow node order, so a region's granules are its
        // nodes' blocks one after the other.
        let mut region_blocks: Vec<Vec<(u64, u64)>> = vec![Vec::new(); regions as usize];
        let mut totals = vec![0; regions as usize];
        let mut first = 0;
        for (node, &count) in nodes.iter().zip(&owned) {
            let r = node.region.0 as usize;
            if count > 0 {
                region_blocks[r].push((totals[r], first));
                totals[r] += count;
                first += count;
            }
        }
        for (blocks, total) in region_blocks.iter_mut().zip(totals) {
            blocks.push((total, 0));
        }

        // The one scale switch: `Cohort` means cohort stepping, the
        // histogram latency window and (on large tables) sketched heat.
        let cohort = params.client_engine == ClientEngine::Cohort;

        let make_gen = |stream: DetRng| match workload {
            Workload::Ycsb { granules, zipfian } => ClientGen::Ycsb(YcsbGenerator::new(
                YcsbConfig {
                    zipfian: *zipfian,
                    ..YcsbConfig::paper_default(YcsbConfig::paper_layout(
                        marlin_common::TableId(0),
                        *granules,
                    ))
                },
                stream,
            )),
            Workload::Tpcc { warehouses } => ClientGen::Tpcc(TpccGenerator::new(
                TpccConfig::paper_default(*warehouses),
                stream,
            )),
        };

        // Clients: one generator stream each, distributed over regions —
        // unless the cohort engine aggregates them, in which case no
        // per-client state is materialized at all.
        let client_sims: Vec<ClientSim> = if cohort {
            Vec::new()
        } else {
            (0..clients)
                .map(|c| ClientSim {
                    region: RegionId(c as u16 % regions),
                    gen: make_gen(rng.fork(1000 + u64::from(c))),
                    strikes: 0,
                    active: true,
                    attempt_started: None,
                    attempt_blame: Blame::default(),
                })
                .collect()
        };
        // Cohorts: one per region, sized by the same round-robin deal
        // the exact engine uses (`client % regions`), with generator
        // streams forked off a dedicated label.
        let cohorts: Vec<Cohort> = if cohort {
            let base = rng.fork(FORK_COHORT);
            (0..regions)
                .map(|r| Cohort {
                    region: RegionId(r),
                    members: interleaved_share(clients, u32::from(regions), u32::from(r)),
                    active: interleaved_share(clients, u32::from(regions), u32::from(r)),
                    gen: make_gen(base.fork(u64::from(r))),
                    carry: 0.0,
                })
                .collect()
        } else {
            Vec::new()
        };

        let (backend, meta_hourly) = match kind.service() {
            None => (CoordBackend::Marlin, 0.0),
            Some(svc) => {
                let hourly = svc.hourly_rate;
                (CoordBackend::Service(svc), hourly)
            }
        };

        // Heat-sketch seeding uses a *pure* fork: it consumes nothing
        // from the main stream, so every exact-path RNG trajectory is
        // unchanged whether or not the sketch is on.
        let mut sketch_rng = rng.fork(FORK_SKETCH);
        let heat = HeatTracker::new(
            granule_count as usize,
            cohort,
            SKETCH_MIN_KEYS,
            &mut sketch_rng,
        );

        let mut sim = ClusterSim {
            cost: CostModel::new(params.node_hourly, meta_hourly, initial_nodes),
            params,
            kind,
            queue: EventQueue::new(),
            rng,
            nodes,
            granules,
            owned,
            routes,
            clients: client_sims,
            active_clients: clients,
            backend,
            syslog: SimLog::default(),
            syslog_station: CpuStation::new(1),
            member_trackers: Vec::new(),
            mtable: MTable::new(),
            txn_seq: 0,
            membership_latency_sum: 0,
            membership_period: SECOND,
            membership_origins: Vec::new(),
            membership_starts: Vec::new(),
            workers: Vec::new(),
            active_workers: 0,
            pending_plans: Vec::new(),
            held: VecDeque::new(),
            cohorts,
            exact_walk: Walk::default(),
            cohort_walks: Vec::new(),
            lat_window: LatencyWindow::new(cohort, regions),
            exemplars: TailExemplars::default(),
            region_commits: vec![0; regions as usize],
            region_node_ns: vec![0.0; regions as usize],
            region_accrued_at: 0,
            heat,
            draining: Vec::new(),
            net_overlays: Vec::new(),
            overlay_seq: 0,
            lead_extra_once: 0,
            region_blocks,
            metrics: RunMetrics::new(),
            cost_series: TimeSeries::new(),
            tracer: Tracer::from_env(),
            profiler: Profiler::from_env(),
            horizon,
        };
        // Kick off the client loops (staggered within the first 100 ms so
        // the closed loops don't phase-lock) and cost sampling. The
        // cohort engine instead starts one step loop per cohort, phased
        // across the step so region steps don't all land on one event.
        if cohort {
            for r in 0..sim.cohorts.len() as u32 {
                let phase = Self::COHORT_STEP * u64::from(r + 1) / sim.cohorts.len().max(1) as u64;
                sim.queue
                    .schedule(phase, ActorId(0), Event::CohortStep { cohort: r });
            }
        } else {
            for c in 0..clients {
                let jitter = sim.rng.range(0, 100 * 1_000_000);
                sim.queue
                    .schedule(jitter, ActorId(0), Event::ClientTxn { client: c });
            }
        }
        sim.queue.schedule(SECOND, ActorId(0), Event::CostTick);
        sim.metrics.node_count.push(0, f64::from(initial_nodes));
        sim
    }

    /// Coordination backend name.
    #[must_use]
    pub fn kind(&self) -> CoordKind {
        self.kind
    }

    /// Which CPU congestion model this run's nodes use.
    #[must_use]
    pub fn cpu_model(&self) -> CpuModel {
        self.params.cpu_model
    }

    /// Which client engine this run was configured with.
    #[must_use]
    pub fn client_engine(&self) -> ClientEngine {
        self.params.client_engine
    }

    /// Whether clients run as flow-level cohorts ([`ClientEngine::Cohort`]).
    #[must_use]
    pub fn cohort_active(&self) -> bool {
        self.params.client_engine == ClientEngine::Cohort
    }

    /// Whether granule heat is tracked by the count-min sketch rather
    /// than exact counters: the cohort engine on a table of at least
    /// [`SKETCH_MIN_KEYS`] granules.
    #[must_use]
    pub fn heat_sketched(&self) -> bool {
        self.heat.is_sketched()
    }

    /// Granules the next observation's heat ranking will look at.
    #[must_use]
    pub fn heat_touched(&self) -> usize {
        self.heat.touched()
    }

    /// Whether windowed throughput and p99 come from log-bucketed
    /// histograms (the cohort engine) rather than exact tuples.
    #[must_use]
    pub fn hist_active(&self) -> bool {
        self.lat_window.is_hist()
    }

    /// The run's slowest commits with their blame breakdowns, slowest
    /// first.
    #[must_use]
    pub fn tail_exemplars(&self) -> &[TailExemplar] {
        self.exemplars.entries()
    }

    /// Currently active clients (exact per-client state or cohort
    /// aggregate, whichever engine runs).
    #[must_use]
    pub fn active_clients(&self) -> u32 {
        self.active_clients
    }

    /// Live node count.
    #[must_use]
    pub fn live_nodes(&self) -> u32 {
        self.nodes.iter().filter(|n| n.alive).count() as u32
    }

    /// Indices of the live nodes.
    #[must_use]
    pub fn live_node_ids(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].alive)
            .collect()
    }

    /// Current granule owners (for assertions).
    #[must_use]
    pub fn owners(&self) -> Vec<u32> {
        self.granules.iter().map(|g| g.owner).collect()
    }

    /// Live node indices with the region each is placed in.
    #[must_use]
    pub fn live_nodes_by_region(&self) -> Vec<(u32, RegionId)> {
        (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].alive)
            .map(|i| (i, self.nodes[i as usize].region))
            .collect()
    }

    /// Granule ids homed in `region` (its §6.5 client-locality set), in
    /// ascending order: the blocks its nodes held when the run started.
    pub fn region_granules(&self, region: RegionId) -> impl Iterator<Item = u64> + '_ {
        self.region_blocks[region.0 as usize]
            .windows(2)
            .flat_map(|pair| pair[0].1..pair[0].1 + (pair[1].0 - pair[0].0))
    }

    /// Committed user transactions attributed to each client region.
    #[must_use]
    pub fn region_commits(&self) -> &[u64] {
        &self.region_commits
    }

    /// DB Cost split per region, from the per-region node-time accrual.
    #[must_use]
    pub fn region_db_cost(&self) -> Vec<f64> {
        self.region_node_ns
            .iter()
            .map(|ns| ns / (3600.0 * SECOND as f64) * self.params.node_hourly)
            .collect()
    }

    /// The coordination-op counters accumulated so far (they live in
    /// [`RunMetrics`] with the rest of the run instruments).
    #[must_use]
    pub fn coordination(&self) -> CoordOps {
        self.metrics.coord
    }

    /// The coordination-op counters with the accrued Meta Cost dollars
    /// attributed across them (sums back to `cost.meta_cost()`; exactly
    /// 0 for Marlin).
    #[must_use]
    pub fn coordination_breakdown(&self) -> CoordBreakdown {
        self.cost.attribute_meta(self.metrics.coord)
    }

    /// Record a fault-injection marker in the trace (the runner calls
    /// this when the driver injects a crash).
    pub fn trace_fault(&mut self, at: Nanos, node: u32) {
        if self.tracer.is_enabled() {
            self.tracer
                .instant_args("fault", "crash", at, [("node", i64::from(node)), ("", 0)]);
        }
    }

    /// One-way penalty a hop pays when sent over a partitioned link: long
    /// enough that cross-region coordination visibly stalls, short enough
    /// that clients keep retrying and the run completes.
    pub const PARTITION_ONE_WAY: Nanos = 5 * SECOND;

    /// Inject a network-latency overlay on `region` at `now`, healing at
    /// the absolute time `until`: every affected one-way hop pays `extra`
    /// additional latency. With `cross_only` the overlay hits only
    /// cross-region hops (a partition); otherwise it hits every hop
    /// touching the region (a latency spike, meaningful even in
    /// single-region runs).
    ///
    /// The overlay is pure arithmetic — it draws no randomness and costs
    /// nothing while no overlay is active, so runs that never inject one
    /// keep bit-identical event streams.
    pub fn inject_latency_overlay(
        &mut self,
        now: Nanos,
        region: u16,
        extra: Nanos,
        cross_only: bool,
        until: Nanos,
    ) {
        let token = self.overlay_seq;
        self.overlay_seq += 1;
        self.net_overlays.push((token, region, extra, cross_only));
        self.queue.schedule_at(
            until.max(now),
            ActorId(0),
            Event::EndNetworkOverlay { token },
        );
        if self.tracer.is_enabled() {
            let kind = if cross_only {
                "region_partition"
            } else {
                "latency_spike"
            };
            self.tracer.instant_args(
                "fault",
                kind,
                now,
                [
                    ("region", i64::from(region)),
                    ("extra_ms", (extra / 1_000_000) as i64),
                ],
            );
        }
    }

    /// Add a one-shot `extra` to the provisioning lead of the *next*
    /// scale-out order — the injected "cloud control plane is slow today"
    /// fault. Consumed by the next `schedule_scale_out_in`; zero effect
    /// on runs that never inject it.
    pub fn jitter_provision_lead(&mut self, now: Nanos, extra: Nanos) {
        self.lead_extra_once += extra;
        if self.tracer.is_enabled() {
            self.tracer.instant_args(
                "fault",
                "lead_jitter",
                now,
                [("extra_ms", (extra / 1_000_000) as i64), ("", 0)],
            );
        }
    }

    /// The extra one-way latency active overlays impose on an `a → b` hop.
    fn overlay_penalty(&self, a: RegionId, b: RegionId) -> Nanos {
        if self.net_overlays.is_empty() {
            return 0;
        }
        let mut extra = 0;
        for &(_, region, pen, cross_only) in &self.net_overlays {
            let touches = a.0 == region || b.0 == region;
            if touches && (!cross_only || a != b) {
                extra += pen;
            }
        }
        extra
    }

    /// Turn on the virtual-time tracer with room for `capacity` events
    /// (tests enable tracing explicitly instead of mutating the
    /// process-wide `MARLIN_TRACE` environment).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Tracer::enabled(capacity);
    }

    /// Turn on the wall-time self-profiler explicitly.
    pub fn enable_profiling(&mut self) {
        self.profiler = Profiler::enabled();
    }

    /// The tracer (export via [`Tracer::to_chrome_json`]).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Is either telemetry instrument (tracer/profiler) live?
    #[must_use]
    pub fn telemetry_active(&self) -> bool {
        self.tracer.is_enabled() || self.profiler.is_enabled()
    }

    /// The profiler's numbers so far.
    #[must_use]
    pub fn profile_summary(&self) -> ProfileSummary {
        self.profiler.summary()
    }

    /// Bring the per-region node-time accrual current. Must run *before*
    /// any `alive` flag flips, mirroring `CostModel::advance`.
    fn accrue_region_time(&mut self, now: Nanos) {
        let dt = now.saturating_sub(self.region_accrued_at);
        if dt > 0 {
            for n in &self.nodes {
                if n.alive {
                    self.region_node_ns[n.region.0 as usize] += dt as f64;
                }
            }
            self.region_accrued_at = now;
        }
    }

    /// Schedule a change of the active client count (dynamic workloads).
    pub fn schedule_client_count(&mut self, at: Nanos, count: u32) {
        self.queue
            .schedule_at(at, ActorId(0), Event::SetClients { count });
    }

    /// Schedule a change of one region's active client count (per-region
    /// load traces; clients are interleaved over regions, so region `r`'s
    /// `k`-th client is client `r + k·R`).
    pub fn schedule_region_client_count(&mut self, at: Nanos, region: u16, count: u32) {
        self.queue
            .schedule_at(at, ActorId(0), Event::SetRegionClients { region, count });
    }

    /// Apply a region's client count immediately (the t=0 step of a
    /// per-region trace, before any event has run).
    pub fn set_region_clients_now(&mut self, region: u16, count: u32) {
        self.apply_region_clients(region, count);
    }

    fn apply_region_clients(&mut self, region: u16, count: u32) {
        if self.cohort_active() {
            if let Some(cohort) = self.cohorts.iter_mut().find(|c| c.region.0 == region) {
                cohort.active = count.min(cohort.members);
            }
            self.active_clients = self.cohorts.iter().map(|c| c.active).sum();
            return;
        }
        let regions = self.params.regions.regions() as u32;
        for (i, c) in self.clients.iter_mut().enumerate() {
            if c.region.0 != region {
                continue;
            }
            let index_in_region = i as u32 / regions;
            let was = c.active;
            c.active = index_in_region < count;
            if !was && c.active {
                self.queue
                    .schedule(0, ActorId(0), Event::ClientTxn { client: i as u32 });
            }
        }
        self.active_clients = self.clients.iter().filter(|c| c.active).count() as u32;
    }

    /// Run to the horizon.
    pub fn run(&mut self) {
        self.run_until(self.horizon);
        self.finish();
    }

    /// Process events up to virtual time `t` (clamped to the horizon),
    /// then stop so an external controller can observe and actuate. The
    /// closed-loop runners interleave `run_until` with
    /// [`ClusterSim::observe`] / [`ClusterSim::apply_action`].
    pub fn run_until(&mut self, t: Nanos) {
        let prof = self.profiler.start();
        let t = t.min(self.horizon);
        while let Some(ev) = self.queue.pop_until(t) {
            self.dispatch(ev.at, ev.msg);
        }
        self.profiler.record_total(prof);
    }

    /// Final cost accounting once the horizon is reached.
    pub fn finish(&mut self) {
        let final_nodes = self.live_nodes();
        self.cost.advance(self.horizon, final_nodes);
        self.accrue_region_time(self.horizon);
        self.cost.sample_into(&mut self.cost_series, self.horizon);
    }

    /// The profiler phase an event books under.
    fn phase_of(ev: &Event) -> &'static str {
        match ev {
            Event::ClientTxn { .. } => "event:client_txn",
            Event::CohortStep { .. } => "event:cohort_step",
            Event::MigWorker { .. } => "event:mig_worker",
            Event::WarmupDone { .. } => "event:warmup",
            Event::RouteUpdate { .. } => "event:route_update",
            Event::CostTick => "event:cost_tick",
            Event::MembershipTick { .. } => "event:membership",
            Event::SetClients { .. } | Event::SetRegionClients { .. } => "event:set_clients",
            Event::StartPlan { .. } => "event:start_plan",
            Event::StartDrain { .. } => "event:start_drain",
            Event::ReleaseDrained => "event:release_drained",
            Event::EndNetworkOverlay { .. } => "event:overlay",
        }
    }

    fn dispatch(&mut self, now: Nanos, ev: Event) {
        let prof = self.profiler.start();
        let phase = Self::phase_of(&ev);
        self.profiler.count_event();
        match ev {
            Event::ClientTxn { client } => self.handle_client_txn(now, client),
            Event::CohortStep { cohort } => self.handle_cohort_step(now, cohort),
            Event::MigWorker { worker } => self.handle_mig_worker(now, worker),
            Event::WarmupDone { granule } => {
                self.granules[granule as usize].cold_left = 0;
            }
            Event::RouteUpdate { granule } => {
                // The ownership broadcast reaching the routing tier — a
                // watch notification in service-backed deployments.
                self.metrics.coord.watch_notifications += 1;
                self.routes[granule as usize] = self.granules[granule as usize].owner;
            }
            Event::CostTick => {
                let live = self.live_nodes();
                self.cost.advance(now, live);
                self.accrue_region_time(now);
                self.cost.sample_into(&mut self.cost_series, now);
                self.metrics.node_count.push(now, f64::from(live));
                let depth = self.queue.pending() as u64;
                self.profiler.sample_depth(depth);
                self.queue.schedule(SECOND, ActorId(0), Event::CostTick);
            }
            Event::MembershipTick { member } => self.handle_membership(now, member),
            Event::SetClients { count } => {
                if self.cohort_active() {
                    // The round-robin deal means the first `count`
                    // clients split over regions exactly as
                    // `interleaved_share` computes.
                    let capacity: u32 = self.cohorts.iter().map(|c| c.members).sum();
                    self.active_clients = count.min(capacity);
                    let groups = self.cohorts.len() as u32;
                    for (r, cohort) in self.cohorts.iter_mut().enumerate() {
                        cohort.active = interleaved_share(self.active_clients, groups, r as u32);
                    }
                } else {
                    self.active_clients = count.min(self.clients.len() as u32);
                    for (i, c) in self.clients.iter_mut().enumerate() {
                        let was = c.active;
                        c.active = (i as u32) < self.active_clients;
                        if !was && c.active {
                            self.queue.schedule(
                                0,
                                ActorId(0),
                                Event::ClientTxn { client: i as u32 },
                            );
                        }
                    }
                }
            }
            Event::SetRegionClients { region, count } => self.apply_region_clients(region, count),
            start @ (Event::StartPlan { .. } | Event::StartDrain { .. }) => {
                self.start_or_hold(now, start);
            }
            Event::ReleaseDrained => self.release_drained(now),
            Event::EndNetworkOverlay { token } => {
                self.net_overlays.retain(|&(t, ..)| t != token);
            }
        }
        self.profiler.record(phase, prof);
    }
}

#[cfg(test)]
mod tests {
    use super::migration::MigrationPlan;
    use super::observe::sorted_window_stats;
    use super::station::{deposit, ring_slot, Slot, BUCKET, CPU_TAU};
    use super::*;

    /// The per-node block fill gives every granule the owner of the
    /// per-granule division it replaced — more nodes than granules,
    /// counts that do not divide, one node, one granule.
    #[test]
    fn initial_blocks_are_the_per_granule_division() {
        for count in [0u64, 1, 2, 3, 7, 10, 64, 97, 1000] {
            for nodes in [1u32, 2, 3, 5, 8, 13, 64, 100, 1001] {
                let owners: Vec<u32> = initial_blocks(count, nodes)
                    .iter()
                    .map(|g| g.owner)
                    .collect();
                let divided: Vec<u32> = (0..count)
                    .map(|g| (u128::from(g) * u128::from(nodes) / u128::from(count)) as u32)
                    .collect();
                assert_eq!(owners, divided, "{count} granules over {nodes} nodes");
            }
        }
    }

    /// The per-region granule lists the block table stands for: every
    /// granule under its initial owner's region, in granule order.
    fn reference_region_lists(sim: &ClusterSim, regions: usize) -> Vec<Vec<u64>> {
        let mut lists = vec![Vec::new(); regions];
        for (g, gran) in sim.granules.iter().enumerate() {
            lists[sim.nodes[gran.owner as usize].region.0 as usize].push(g as u64);
        }
        lists
    }

    /// The block table folds every key as the lists did, and lists the
    /// same sets — one to four regions, more nodes than granules, and
    /// regions no initial node is placed in.
    #[test]
    fn granule_of_key_folds_as_the_per_region_lists_did() {
        let template = TxnTemplate {
            ops: Vec::new(),
            kind: 0,
            anchor: 0,
            anchor_table: marlin_common::TableId(0),
        };
        let row = [marlin_sim::MILLISECOND; 4];
        for regions in 1..=4 {
            let table = vec![&row[..regions]; regions];
            let params = SimParams {
                regions: marlin_sim::RegionMatrix::from_table(&table),
                ..SimParams::default()
            };
            for nodes in 1..=16u32 {
                for granules in [1u64, 5, 13, 64, 1_000 + u64::from(nodes)] {
                    let sim = ClusterSim::new(
                        params.clone(),
                        CoordKind::Marlin,
                        &Workload::ycsb(granules),
                        nodes,
                        0,
                        SECOND,
                    );
                    let lists = reference_region_lists(&sim, regions);
                    for (r, list) in lists.iter().enumerate() {
                        let region = RegionId(r as u16);
                        let listed: Vec<u64> = sim.region_granules(region).collect();
                        assert_eq!(&listed, list, "{nodes} nodes, {regions} regions");
                        for g in 0..granules {
                            let want = match list.as_slice() {
                                local if regions > 1 && !local.is_empty() => {
                                    local[(g % local.len() as u64) as usize]
                                }
                                _ => g,
                            };
                            assert_eq!(
                                sim.granule_of_key(&template, g * 64, region),
                                want,
                                "granule {g} of {granules}, region {r}, {nodes} nodes, \
                                 {regions} regions"
                            );
                        }
                    }
                }
            }
        }
    }

    // -- CpuStation (analytic EMA) boundary behavior ------------------------

    #[test]
    fn rho_at_time_zero_on_an_idle_station_is_zero() {
        let s = CpuStation::new(4);
        assert_eq!(s.rho_at(0), 0.0);
        // Still zero arbitrarily far in the future: nothing to decay.
        assert_eq!(s.rho_at(3600 * SECOND), 0.0);
    }

    #[test]
    fn rho_at_decays_to_nothing_over_a_huge_gap() {
        let mut s = CpuStation::new(1);
        // Saturate the station hard at t=0.
        for _ in 0..100 {
            s.charge(0, 10 * 1_000_000);
        }
        let rho_now = s.rho_at(0);
        assert!(rho_now > 1.0, "station must read overloaded: {rho_now}");
        // One EMA time constant halves-ish; a huge gap extinguishes it.
        assert!(s.rho_at(SECOND) < rho_now);
        let after_gap = s.rho_at(1_000 * SECOND);
        assert!(
            after_gap < 1e-12,
            "load must fully decay over a huge gap: {after_gap}"
        );
    }

    #[test]
    fn rho_at_before_the_last_arrival_reads_the_undecayed_load() {
        let mut s = CpuStation::new(1);
        s.charge(SECOND, 100 * 1_000_000);
        // Observing at an earlier instant than the last charge must not
        // decay (and must not panic on the negative gap).
        assert_eq!(s.rho_at(0), s.rho_at(SECOND));
    }

    #[test]
    fn back_to_back_arrivals_accumulate_without_decay() {
        let mut s = CpuStation::new(1);
        let svc = 50 * 1_000_000; // 50 ms on a 0.5 s EMA
        s.charge(SECOND, svc);
        let one = s.rho_at(SECOND);
        s.charge(SECOND, svc);
        let two = s.rho_at(SECOND);
        assert!((two - 2.0 * one).abs() < 1e-12, "same-instant arrivals add");
        // Each charge contributes service/TAU worker units.
        assert!((one - svc as f64 / CPU_TAU).abs() < 1e-12);
    }

    #[test]
    fn charge_grows_with_congestion_and_is_clamped_at_saturation() {
        let mut s = CpuStation::new(1);
        let svc = 20 * 1_000_000;
        let idle = s.charge(0, svc);
        assert!(idle >= svc, "sojourn includes at least the service time");
        // Pile on work at the same instant: the congestion delay grows but
        // the rho clamp (0.98) caps it at 49x the service time.
        let mut last = idle;
        for _ in 0..200 {
            last = s.charge(0, svc);
        }
        assert!(last > idle);
        assert!(last <= svc + svc * 49 + 1, "analytic delay is clamped");
    }

    // -- PerRequestStation: exact sojourn times -----------------------------

    /// One charge as `(arrival, service, sojourn)`. The request departs
    /// at `arrival + sojourn` and its service starts `service` earlier.
    fn charged(
        s: &mut PerRequestStation,
        now: Nanos,
        at: Nanos,
        service: Nanos,
    ) -> (Nanos, Nanos, Nanos) {
        (at, service, s.charge(now, at, service))
    }

    /// Requests in the system at `t`: arrived, not yet departed.
    fn in_system(charges: &[(Nanos, Nanos, Nanos)], t: Nanos) -> usize {
        charges
            .iter()
            .filter(|&&(at, _, sojourn)| at <= t && t < at + sojourn)
            .count()
    }

    /// Requests queued at `t`: arrived, service not yet started.
    fn waiting(charges: &[(Nanos, Nanos, Nanos)], t: Nanos) -> usize {
        charges
            .iter()
            .filter(|&&(at, service, sojourn)| at <= t && t < at + sojourn - service)
            .count()
    }

    #[test]
    fn idle_station_serves_at_the_bare_service_time() {
        let mut s = PerRequestStation::new(2);
        let c = [charged(&mut s, 0, 0, 100)];
        assert_eq!(c[0].2, 100);
        assert_eq!(waiting(&c, 0), 0);
        assert_eq!(slots(&s), vec![vec![(0, 100)], vec![]]);
    }

    #[test]
    fn sojourn_times_are_strictly_latency_ordered_under_backlog() {
        // One worker, three same-instant arrivals: FIFO slots give each
        // request a strictly larger sojourn than the one before it — the
        // "strictly latency-ordered" property the analytic clamp cannot
        // produce.
        let mut s = PerRequestStation::new(1);
        let c: Vec<_> = (0..3).map(|_| charged(&mut s, 0, 0, 100)).collect();
        assert_eq!(c.iter().map(|c| c.2).collect::<Vec<_>>(), [100, 200, 300]);
        assert_eq!(slots(&s), vec![vec![(0, 100), (100, 200), (200, 300)]]);
        // All three are in the system at t=0; two of them queue.
        assert_eq!(in_system(&c, 0), 3);
        assert_eq!(waiting(&c, 0), 2);
        // Queue drains as slots complete.
        assert_eq!(waiting(&c, 150), 1);
        assert_eq!(in_system(&c, 250), 1);
        assert_eq!(in_system(&c, 300), 0);
    }

    #[test]
    fn multi_worker_station_runs_requests_in_parallel() {
        let mut s = PerRequestStation::new(4);
        let mut c: Vec<_> = (0..4).map(|_| charged(&mut s, 0, 0, 100)).collect();
        assert!(c.iter().all(|c| c.2 == 100), "4 workers absorb 4 requests");
        assert_eq!(slots(&s), vec![vec![(0, 100)]; 4]);
        assert_eq!(waiting(&c, 0), 0);
        // The fifth waits for the first free worker, the lowest index on
        // a tie.
        c.push(charged(&mut s, 0, 0, 100));
        assert_eq!(c[4].2, 200);
        assert_eq!(slots(&s)[0], vec![(0, 100), (100, 200)]);
        assert_eq!(waiting(&c, 50), 1);
    }

    #[test]
    fn early_arrivals_fill_gaps_before_far_future_bookings() {
        // The out-of-order offer pattern the flow-level simulator
        // produces: one event books CPU far in the future, a later event
        // offers work now. The early request must not serialize behind
        // the future booking (work conservation across interleaved
        // offers).
        let mut s = PerRequestStation::new(1);
        assert_eq!(s.charge(0, 1_000_000, 100), 100, "future booking");
        assert_eq!(s.charge(0, 0, 100), 100, "early arrival fills the gap");
        // A request too large for the remaining gap (100 µs before the
        // future booking) waits for that booking to clear instead.
        assert_eq!(s.charge(0, 900_000, 200_000), 100_100 + 200_000);
    }

    #[test]
    fn pruning_drops_only_bookings_wholly_in_the_past() {
        let mut s = PerRequestStation::new(1);
        s.charge(0, 0, 100);
        s.charge(0, 200, 100);
        // Advance the event clock past the first booking: it is pruned,
        // the live one is kept and still visible to queries.
        s.charge(150, 150, 10);
        assert_eq!(slots(&s), vec![vec![(150, 160), (200, 300)]]);
        assert_eq!(s.bookings(), 2, "dead booking pruned, live ones kept");
        // A booking ending exactly at the clock is dead too; the prefix
        // stops at the first one still running.
        s.charge(160, 400, 10);
        assert_eq!(s.bookings(), 2, "[150,160) pruned, [200,300) kept");
        assert_eq!(s.workers[0].slots[0].end, 300);
    }

    /// Reference implementation: the historical `charge` — `retain` over
    /// every calendar, a scan from each calendar's front, insertion by
    /// start alone. It drives a second station through the same fields
    /// and also reports the worker and start it chose.
    fn reference_charge(
        s: &mut PerRequestStation,
        now: Nanos,
        at: Nanos,
        service: Nanos,
    ) -> (Nanos, usize, Nanos) {
        if now > s.pruned_at {
            for calendar in &mut s.workers {
                calendar.slots.retain(|b| b.end > now);
            }
            s.pruned_at = now;
        }
        let mut best: Option<(Nanos, usize)> = None;
        for (w, calendar) in s.workers.iter().enumerate() {
            let mut candidate = at;
            for b in &calendar.slots {
                if b.start >= candidate.saturating_add(service) {
                    break;
                }
                if b.end > candidate {
                    candidate = b.end;
                }
            }
            if best.is_none_or(|(s, _)| candidate < s) {
                best = Some((candidate, w));
            }
        }
        let (start, w) = best.unwrap();
        let end = start + service;
        deposit(&mut s.wait_ring, at, start);
        *ring_slot(&mut s.offered_ring, at / BUCKET) += service;
        let slots = &mut s.workers[w].slots;
        let pos = slots.partition_point(|b| b.start < start);
        slots.insert(pos, Slot { start, end });
        (end - at, w, start)
    }

    /// Each worker's slots as `(start, end)`, sorted: the two
    /// implementations may order equal-start slots differently.
    fn slots(s: &PerRequestStation) -> Vec<Vec<(Nanos, Nanos)>> {
        s.workers
            .iter()
            .map(|calendar| {
                let mut v: Vec<_> = calendar.slots.iter().map(|b| (b.start, b.end)).collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    #[test]
    fn zero_length_slot_sharing_a_start_keeps_both_orders() {
        // `[5,5)` first, then `[5,9)` on the same worker: inserting by
        // start alone would put the longer slot in front and break the
        // end order the binary search relies on.
        let mut s = PerRequestStation::new(1);
        assert_eq!(s.charge(0, 5, 0), 0);
        assert_eq!(s.charge(0, 5, 4), 4);
        let ends: Vec<Nanos> = s.workers[0].slots.iter().map(|b| b.end).collect();
        assert_eq!(ends, vec![5, 9]);
        // An arrival inside `[5,9)` must see it.
        assert_eq!(s.charge(0, 6, 1), 4);
        // A zero-length slot is an obstacle to what arrives before it,
        // not to what arrives at it.
        let mut s = PerRequestStation::new(1);
        s.charge(0, 6, 0);
        assert_eq!(s.charge(0, 4, 4), 6, "waits until 6, runs [6,10)");
        assert_eq!(s.charge(0, 10, 0), 0);
        assert_eq!(s.charge(0, 10, 3), 3);
    }

    /// Charge `indexed` and `reference` alike and check that they
    /// agree on the sojourn and on the worker and start of the slot.
    /// Returns `(worker, start)`.
    fn charge_both(
        indexed: &mut PerRequestStation,
        reference: &mut PerRequestStation,
        (now, at, service): (Nanos, Nanos, Nanos),
    ) -> (Nanos, usize, Nanos) {
        let sojourn = indexed.charge(now, at, service);
        let (ref_sojourn, w, start) = reference_charge(reference, now, at, service);
        assert_eq!(sojourn, ref_sojourn, "at {at}, service {service}");
        assert!(
            indexed.workers[w]
                .slots
                .iter()
                .any(|b| (b.start, b.end) == (start, start + service)),
            "slot [{start}, +{service}) not on worker {w}"
        );
        (sojourn, w, start)
    }

    /// The two stations hold the same slots, `indexed` in both orders,
    /// and read bit-equal windowed observables at `now`.
    fn assert_same_state(indexed: &PerRequestStation, reference: &PerRequestStation, now: Nanos) {
        assert_eq!(slots(indexed), slots(reference), "at {now}");
        for calendar in &indexed.workers {
            assert!(calendar
                .slots
                .windows(2)
                .all(|p| p[0].start <= p[1].start && p[0].end <= p[1].end));
        }
        for window in [BUCKET, SECOND, 4 * SECOND] {
            assert_eq!(
                indexed.rho_windowed(now, window).to_bits(),
                reference.rho_windowed(now, window).to_bits()
            );
            assert_eq!(
                indexed.queue_windowed(now, window).to_bits(),
                reference.queue_windowed(now, window).to_bits()
            );
        }
    }

    #[test]
    fn indexed_charge_matches_the_linear_scan_reference() {
        // Random out-of-order offers on quantized times, so equal starts
        // and ends are common, one service in ten is zero-length, and
        // the event clock sometimes stands still. Load is ~80% of
        // capacity with arrivals spread 500 ms ahead of the clock, which
        // holds several hundred live bookings.
        const Q: Nanos = 100_000;
        for seed in 0..16u64 {
            let workers = 1 + (seed % 8) as usize;
            let mut rng = DetRng::seed(seed);
            let mut indexed = PerRequestStation::new(workers);
            let mut reference = PerRequestStation::new(workers);
            let (mut now, mut deepest) = (0, 0);
            for _ in 0..1_500 {
                now += rng.range(0, 101) * Q;
                for _ in 0..rng.range(1, 16) {
                    let at = now + rng.range(0, 5_000) * Q;
                    let service = if rng.chance(0.1) {
                        0
                    } else {
                        rng.range(1, 10 * workers as u64) * Q
                    };
                    charge_both(&mut indexed, &mut reference, (now, at, service));
                }
                assert_same_state(&indexed, &reference, now);
                deepest = deepest.max(indexed.bookings());
            }
            assert!(deepest >= 300, "seed {seed}: calendars only {deepest} deep");
        }
    }

    #[test]
    fn hinted_charge_matches_the_reference_on_walk_shaped_traffic() {
        // The simulator's traffic: on each clock tick, 1-8 transactions
        // each walk 16 requests forward from the tick, one hop plus the
        // previous request's sojourn apart, so arrivals rise within a
        // walk and fall back at the next one. Load is ~90% of capacity,
        // one service in ten is zero-length, and one tick in five leaves
        // the clock where it was.
        const Q: Nanos = 10_000;
        let (mut off_worker_0, mut pass_2, mut resets) = (0, 0, 0);
        for seed in 0..16u64 {
            let workers = 1 + (seed % 6) as usize;
            let mut rng = DetRng::seed(seed);
            let mut indexed = PerRequestStation::new(workers);
            let mut reference = PerRequestStation::new(workers);
            let (mut now, mut last) = (0, (0, 0));
            for _ in 0..200 {
                if !rng.chance(0.2) {
                    now += rng.range(1, 200) * Q;
                }
                for _ in 0..rng.range(1, 9) {
                    let mut at = now;
                    for _ in 0..16 {
                        at += rng.range(1, 8) * Q;
                        let service = if rng.chance(0.1) {
                            0
                        } else {
                            rng.range(1, 2 * workers as u64) * Q
                        };
                        resets += u32::from(last.0 == now && at < last.1);
                        last = (now, at);
                        let (sojourn, w, start) =
                            charge_both(&mut indexed, &mut reference, (now, at, service));
                        off_worker_0 += u32::from(start == at && w > 0);
                        pass_2 += u32::from(start > at);
                        at += sojourn;
                    }
                }
                assert_same_state(&indexed, &reference, now);
            }
        }
        assert!(off_worker_0 > 0, "no pass-1 win on a worker past the first");
        assert!(pass_2 > 0, "no charge found every worker busy");
        assert!(resets > 0, "no arrival moved back without the clock moving");
    }

    #[test]
    fn future_bookings_are_invisible_to_observations() {
        // Three requests booked now to arrive 250 ms ahead on two
        // workers: one of them will wait.
        let mut s = PerRequestStation::new(2);
        let at = 2 * BUCKET + BUCKET / 2;
        let c: Vec<_> = (0..3).map(|_| charged(&mut s, 0, at, 100)).collect();
        assert_eq!(in_system(&c, 0), 0, "not yet arrived");
        assert_eq!((in_system(&c, at), waiting(&c, at)), (3, 1));
        // Neither windowed signal sees them before they arrive...
        assert_eq!(s.rho_windowed(2 * BUCKET, 2 * BUCKET), 0.0);
        assert_eq!(s.queue_windowed(2 * BUCKET, 2 * BUCKET), 0.0);
        // ...and both do once the window covers the arrival.
        assert!(s.rho_windowed(3 * BUCKET, BUCKET) > 0.0);
        assert!(s.queue_windowed(3 * BUCKET, BUCKET) > 0.0);
    }

    #[test]
    fn windowed_offered_load_and_queue_are_measured_exactly() {
        let mut s = PerRequestStation::new(1);
        // One 100 ms demand arriving at t=0: a window holding exactly
        // that much capacity reads offered load 1 (edge buckets are
        // prorated, so the denominator is the true window length); a
        // 1 s window reads 10%.
        s.charge(0, 0, BUCKET);
        assert!((s.rho_windowed(BUCKET, BUCKET) - 1.0).abs() < 1e-12);
        let tenth = s.rho_windowed(10 * BUCKET, 10 * BUCKET);
        assert!((tenth - 0.1).abs() < 1e-12, "{tenth}");
        // No second request yet → nothing ever waited.
        assert_eq!(s.queue_windowed(10 * BUCKET, 10 * BUCKET), 0.0);
        // A second same-instant request doubles the offered work and
        // waits a full bucket for the first to finish: offered stays
        // 2×BUCKET of demand over 2×BUCKET of capacity, and the
        // waiting-time integral reads half a request queued on average
        // over [0, 2×BUCKET].
        s.charge(0, 0, BUCKET);
        let rho = s.rho_windowed(2 * BUCKET, 2 * BUCKET);
        assert!((rho - 1.0).abs() < 1e-12, "{rho}");
        let queue = s.queue_windowed(2 * BUCKET, 2 * BUCKET);
        assert!((queue - 0.5).abs() < 1e-12, "{queue}");
        // An idle future window reads zero on both signals.
        assert_eq!(s.rho_windowed(100 * BUCKET, 10 * BUCKET), 0.0);
        assert_eq!(s.queue_windowed(100 * BUCKET, 10 * BUCKET), 0.0);
    }

    #[test]
    fn per_request_sojourns_grow_without_the_analytic_clamp() {
        // Under the same sustained overload, the analytic station's
        // per-request delay saturates at 49x service while the
        // per-request station's sojourn keeps growing with the real
        // backlog — the reason PerRequest p99s respond to queue build-up
        // first.
        let svc: Nanos = 1_000_000;
        let mut analytic = CpuStation::new(1);
        let mut exact = PerRequestStation::new(1);
        let mut last_analytic = 0;
        let mut last_exact = 0;
        for _ in 0..200 {
            last_analytic = analytic.charge(0, svc);
            last_exact = exact.charge(0, 0, svc);
        }
        assert!(last_analytic <= 50 * svc, "analytic is clamped");
        assert_eq!(last_exact, 200 * svc, "exact sojourn tracks the queue");
    }

    // -- observe(): maintained state against what it replaced --------------

    /// Reference implementation: the historical weighted p99, which
    /// collected and sorted its own `(latency, weight)` window — once for
    /// the whole cluster and once more per region.
    fn weighted_p99(lat: &mut [(Nanos, u64)]) -> Nanos {
        if lat.is_empty() {
            return 0;
        }
        lat.sort_unstable();
        let total: u64 = lat.iter().map(|&(_, w)| w).sum();
        let target = total.saturating_sub(1) * 99 / 100;
        let mut cum = 0u64;
        for &(l, w) in lat.iter() {
            cum += w;
            if cum > target {
                return l;
            }
        }
        lat.last().map_or(0, |&(l, _)| l)
    }

    #[test]
    fn once_sorted_window_matches_the_per_region_sort_reference() {
        assert_eq!(size_of::<(Nanos, u32, u16)>(), 16);
        assert_eq!(sorted_window_stats(&[], None), (0, 0));
        let mut past_u32 = 0;
        for seed in 0..64u64 {
            let mut rng = DetRng::seed(seed);
            let regions = 1 + (seed % 4) as u16;
            // Few distinct latencies, so equal latencies with unequal
            // weights are the rule; a region in two gets no sample; and
            // every third window has weights that sum past `u32::MAX`.
            let silent = (seed % 2 == 1).then_some(regions - 1);
            let heavy = seed % 3 == 0;
            let window: Vec<(Nanos, u32, u16)> = (0..rng.range(0, 400))
                .map(|_| {
                    let region = rng.range(0, u64::from(regions)) as u16;
                    let weight = match rng.range(0, 8) {
                        0 => 0,
                        1 if heavy => u32::MAX - rng.range(0, 3) as u32,
                        _ => rng.range(1, 50) as u32,
                    };
                    (rng.range(1, 12) * 1_000, weight, region)
                })
                .filter(|e| Some(e.2) != silent)
                .collect();
            let mut sorted = window.clone();
            sorted.sort_unstable_by_key(|&(l, _, _)| l);
            for region in std::iter::once(None).chain((0..regions).map(Some)) {
                let mut lat: Vec<(Nanos, u64)> = window
                    .iter()
                    .filter(|e| region.is_none_or(|r| e.2 == r))
                    .map(|&(l, w, _)| (l, u64::from(w)))
                    .collect();
                let total: u64 = lat.iter().map(|&(_, w)| w).sum();
                assert_eq!(
                    sorted_window_stats(&sorted, region),
                    (total, weighted_p99(&mut lat)),
                    "seed {seed}, region {region:?}"
                );
                past_u32 += u32::from(total > u64::from(u32::MAX));
            }
        }
        assert!(past_u32 >= 20, "only {past_u32} sums passed u32::MAX");
    }

    #[test]
    fn owned_counts_follow_every_ownership_flip_and_release() {
        use crate::harness::{Fault, Runner, Scenario, SimRunner};
        use marlin_workload::LoadTrace;

        const STEP: Nanos = SECOND / 20;
        let scenario = Scenario::new("owned-counts")
            .params(SimParams::geo())
            .workload(Workload::ycsb(2_000))
            .initial_nodes(8)
            .trace(LoadTrace::constant(16))
            .threads_per_node(2)
            .duration(60 * SECOND);
        let mut runner = SimRunner::new(&scenario);
        let idle = |runner: &SimRunner| {
            let sim = runner.sim();
            sim.active_workers == 0 && sim.held.is_empty()
        };
        // Step the run until its migration workers are done (or `steps`
        // ran out), comparing the maintained counts with the recount
        // (`observe` asserts the same in debug builds) and checking that
        // a release attempt drops exactly the victims left empty.
        let settle = |runner: &mut SimRunner, steps: u32, victims: &[u32]| {
            for step in 0..steps {
                runner.advance(STEP);
                let now = runner.now();
                runner.observe(SECOND);
                let sim = runner.sim_mut();
                sim.release_drained(now);
                let recount = sim.recount_owned();
                assert_eq!(sim.owned, recount, "at {now}");
                assert_eq!(sim.owned.len(), sim.nodes.len());
                assert_eq!(sim.owned.iter().sum::<u64>(), 2_000);
                for &v in victims {
                    assert_eq!(sim.nodes[v as usize].alive, recount[v as usize] > 0);
                    assert_eq!(sim.draining.contains(&v), recount[v as usize] > 0);
                }
                if step > 0 && idle(runner) {
                    return;
                }
            }
        };
        settle(&mut runner, 4, &[]);

        // Scale-out: slots 8..12 are pushed by `allocate_join_slots`.
        runner.actuate(&ScaleAction::add(4));
        assert_eq!(runner.sim().owned.len(), 12);
        settle(&mut runner, 10, &[]);
        // While its plan still runs, the same rebalance plan twice: each
        // granule moves once, the other plan's task for it is stale.
        assert!(!idle(&runner));
        let moves: Vec<GranuleMove> = (0..2_000u64)
            .filter(|&g| runner.sim().granules[g as usize].owner == 0)
            .take(40)
            .map(|g| GranuleMove {
                granule: GranuleId(g),
                src: NodeId(0),
                dst: NodeId(4),
            })
            .collect();
        assert_eq!(moves.len(), 40);
        runner.actuate(&ScaleAction::Rebalance {
            moves: moves.clone(),
        });
        runner.actuate(&ScaleAction::Rebalance { moves });
        settle(&mut runner, 400, &[]);
        assert!(idle(&runner));
        let tasks: usize = runner.sim().workers.iter().map(|&(_, ran)| ran).sum();
        let migrated = runner.sim().metrics.migrations.total();
        assert!(migrated + 40 <= tasks as u64, "stale tasks skipped");
        assert!(runner.sim().owned[8..].iter().all(|&n| n > 0));

        // Scale-in, region-local: nodes 1 and 9 (one initial, one joined)
        // drain onto node 5, the survivor in their region.
        let before = runner.sim().owned.clone();
        runner.actuate(&ScaleAction::RemoveNodes {
            victims: vec![NodeId(1), NodeId(9)],
        });
        settle(&mut runner, 400, &[1, 9]);
        let sim = runner.sim();
        assert!(!sim.nodes[1].alive && !sim.nodes[9].alive && sim.draining.is_empty());
        assert_eq!(sim.owned[5], before[1] + before[5] + before[9]);

        // Scale-out again: the three new nodes get fresh ids 12, 13 and
        // 14; the released nodes 1 and 9 stay released.
        runner.actuate(&ScaleAction::add(3));
        assert_eq!(runner.sim().owned.len(), 15);
        settle(&mut runner, 400, &[]);
        assert!(idle(&runner));
        let sim = runner.sim();
        assert!(!sim.nodes[1].alive && !sim.nodes[9].alive);
        assert_eq!(sim.owned[1] + sim.owned[9], 0);
        assert!((12..15).all(|n| sim.nodes[n].alive && sim.owned[n] > 0));

        // A crash is modeled as an immediate drain of the victim.
        runner.inject(&Fault::Crash(NodeId(12)));
        settle(&mut runner, 400, &[12]);
        assert_eq!(runner.sim().live_nodes(), 12);
        assert_eq!(runner.sim().owned[12], 0);
    }

    #[test]
    fn observe_sub_phases_sum_to_at_most_observe() {
        let mut sim = ClusterSim::new(
            SimParams::geo(),
            CoordKind::Marlin,
            &Workload::ycsb(2_000),
            8,
            64,
            4 * SECOND,
        );
        sim.enable_profiling();
        for tick in 1..=4 {
            sim.run_until(tick * SECOND);
            sim.observe(tick * SECOND, SECOND);
        }
        let profile = sim.profile_summary();
        let observe = profile.phase("observe").expect("observe ran");
        let mut children = 0;
        for name in ["latency", "placement", "heat", "regions"] {
            let phase = profile
                .phase(&format!("observe:{name}"))
                .unwrap_or_else(|| panic!("observe:{name} missing"));
            assert_eq!(phase.calls, observe.calls);
            children += phase.wall_nanos;
        }
        assert_eq!(observe.calls, 4);
        assert!(children <= observe.wall_nanos, "{children} > {observe:?}");
        assert!(children > 0);
    }

    // -- booking: one accounting for both client engines -------------------

    #[test]
    fn a_cas_conflict_counts_every_participants_attempt_at_any_weight() {
        let mut sim = ClusterSim::new(
            SimParams::default(),
            CoordKind::Marlin,
            &Workload::ycsb(64),
            2,
            1,
            SECOND,
        );
        // Two participants tried their CAS, one lost it.
        let walk = Walk {
            end: WalkEnd::CasConflict,
            participants: vec![0, 1],
            cas_failures: 1,
            ..Walk::default()
        };
        // The cohort engine's weight, then the exact engine's.
        for (w, attempts, retries) in [(5, 10, 5), (1, 2, 1)] {
            let before = (sim.metrics.coord, sim.metrics.user_aborts.total());
            sim.book_abort(&walk, w);
            let coord = sim.metrics.coord;
            assert_eq!(sim.metrics.user_aborts.total() - before.1, w);
            assert_eq!(
                coord.commit_cas_attempts - before.0.commit_cas_attempts,
                attempts
            );
            assert_eq!(
                coord.commit_cas_retries - before.0.commit_cas_retries,
                retries
            );
            assert_eq!(coord.service_reads, 0);
        }
    }

    // -- the effect pricer: Marlin's reconfigurations run the drivers -----

    /// A Marlin cluster with no clients, so nothing but the test touches
    /// the granules.
    fn quiet_marlin(nodes: u32) -> ClusterSim {
        ClusterSim::new(
            SimParams::default(),
            CoordKind::Marlin,
            &Workload::ycsb(64),
            nodes,
            0,
            10 * SECOND,
        )
    }

    #[test]
    fn a_task_whose_granule_moved_is_skipped_through_wrong_owner() {
        let mut sim = quiet_marlin(3);
        // The first task moves granule 0 off node 0; the second was
        // planned against the old owner and runs after the move.
        let move_to = |dst| GranuleMove {
            granule: GranuleId(0),
            src: NodeId(0),
            dst: NodeId(dst),
        };
        sim.start_workers(MigrationPlan {
            queues: vec![vec![move_to(1), move_to(2)]],
        });
        sim.run_until(SECOND);
        assert_eq!(sim.granules[0].owner, 1);
        assert_eq!(sim.workers[0].1, 2, "both tasks are done");
        assert_eq!(sim.metrics.migrations.total(), 1);
        assert_eq!(sim.metrics.migration_retries, 0);
        // The stale task ended at the owner read: no CAS ran for it.
        assert_eq!(sim.metrics.coord.migration_cas_attempts, 2);
    }

    #[test]
    fn a_task_on_a_busy_granule_aborts_no_wait_and_commits_on_retry() {
        let mut sim = quiet_marlin(2);
        // A user transaction holds granule 0 until 1 s.
        sim.granules[0].busy_until = SECOND;
        sim.start_workers(MigrationPlan {
            queues: vec![vec![GranuleMove {
                granule: GranuleId(0),
                src: NodeId(0),
                dst: NodeId(1),
            }]],
        });
        sim.run_until(SECOND / 2);
        assert_eq!(sim.metrics.migration_retries, 1);
        assert_eq!(sim.granules[0].owner, 0, "the abort left ownership alone");
        assert_eq!(sim.metrics.coord.migration_cas_attempts, 0);
        sim.run_until(2 * SECOND);
        assert_eq!(sim.metrics.migration_retries, 1);
        assert_eq!(sim.metrics.migrations.total(), 1);
        assert_eq!(sim.granules[0].owner, 1);
        assert!(sim
            .metrics
            .migration_window
            .is_some_and(|(at, _)| at > SECOND));
    }

    #[test]
    fn every_marlin_migration_runs_two_glog_cas() {
        let mut sim = ClusterSim::new(
            SimParams::default(),
            CoordKind::Marlin,
            &Workload::ycsb(256),
            2,
            8,
            5 * SECOND,
        );
        sim.apply_action(SECOND, &ScaleAction::add(2), 2);
        sim.run();
        let migrations = sim.metrics.migrations.total();
        assert!(migrations >= 100, "only {migrations} migrations");
        let coord = sim.metrics.coord;
        assert_eq!(coord.migration_cas_attempts, 2 * migrations);
        assert_eq!(coord.migration_cas_retries, 0);
    }

    /// On a quiet `nodes`-node simulator, order `first` at 0 and `then`
    /// at the first whole millisecond at which `ready` holds, while
    /// `first`'s plan still runs; run to the horizon. Returns the
    /// simulator and the owner map `LocalHarness` ends with after the same
    /// two actions, each run to completion.
    fn ordered_mid_plan(
        nodes: u32,
        first: &ScaleAction,
        then: &ScaleAction,
        ready: impl Fn(Nanos, &ClusterSim) -> bool,
    ) -> (ClusterSim, Vec<u32>) {
        use marlin_autoscaler::{Actuator, LocalHarness};
        let mut sim = quiet_marlin(nodes);
        sim.apply_action(0, first, 1);
        let mut t = 0;
        while t < sim.horizon && !ready(t, &sim) {
            t += SECOND / 1_000;
            sim.run_until(t);
        }
        assert!(sim.active_workers > 0, "the first plan has finished");
        sim.apply_action(t, then, 1);
        sim.run();
        let mut local = LocalHarness::bootstrap(nodes, 64);
        for action in [first, then] {
            match action {
                ScaleAction::AddNodes { count, region } => local.add_nodes(0, *count, *region),
                ScaleAction::RemoveNodes { victims } => local.remove_nodes(0, victims),
                ScaleAction::Rebalance { moves } => local.rebalance(0, moves),
            }
        }
        let local_owners = local.owners().values().map(|n| n.0).collect();
        (sim, local_owners)
    }

    #[test]
    fn a_drain_ordered_while_a_scale_out_onto_its_victim_runs_empties_it() {
        // Seed 1051's shape: node 2 joins, and its removal (naming a
        // node that does not exist, too) is ordered once some, not all,
        // of the scale-out's moves onto it have landed.
        let (sim, local) = ordered_mid_plan(
            2,
            &ScaleAction::add(1),
            &ScaleAction::RemoveNodes {
                victims: vec![NodeId(2), NodeId(4)],
            },
            |_, sim| sim.owned.get(2).is_some_and(|&n| n > 0),
        );
        assert!(!sim.nodes[2].alive && sim.owned[2] == 0 && sim.draining.is_empty());
        assert_eq!(sim.live_node_ids(), [0, 1]);
        assert_eq!(sim.owners(), local);
    }

    #[test]
    fn two_drains_ordered_63_ms_apart_run_one_after_the_other() {
        // Seed 1057's shape: the second removal is ordered while the
        // first drain still runs, and its plan waits for it.
        let remove = |v| ScaleAction::RemoveNodes {
            victims: vec![NodeId(v)],
        };
        let (sim, local) =
            ordered_mid_plan(4, &remove(1), &remove(2), |t, _| t >= 63 * SECOND / 1_000);
        assert!(!sim.nodes[1].alive && !sim.nodes[2].alive && sim.draining.is_empty());
        assert_eq!(sim.owned[1] + sim.owned[2], 0);
        assert_eq!(sim.owners(), local);
    }

    #[test]
    fn membership_cas_attempts_are_commits_plus_retries() {
        let mut sim = quiet_marlin(2);
        sim.schedule_membership_stress(2, SECOND / 100);
        sim.run_until(3 * SECOND);
        let coord = sim.metrics.coord;
        let commits = sim.metrics.membership_commits;
        assert!(commits > 0);
        assert!(
            coord.membership_cas_retries >= 1,
            "two members never collided"
        );
        assert_eq!(
            coord.membership_cas_attempts,
            commits + coord.membership_cas_retries
        );
        // One SysLog record per commit, each applied to the MTable: a
        // member joins on its odd commits and leaves on its even ones.
        assert_eq!(sim.syslog.0, Lsn(commits));
        assert_eq!(sim.mtable.applied_lsn(), Lsn(commits));
        assert!(sim.mtable.len() <= 2);
    }

    #[test]
    fn a_rebalance_move_onto_its_own_source_is_dropped() {
        let mut sim = quiet_marlin(2);
        let moves = vec![GranuleMove {
            granule: GranuleId(0),
            src: NodeId(0),
            dst: NodeId(0),
        }];
        sim.apply_action(0, &ScaleAction::Rebalance { moves }, 1);
        assert!(sim.pending_plans.is_empty());
        sim.run_until(SECOND);
        assert!(sim.workers.is_empty());
        assert_eq!(sim.metrics.migrations.total(), 0);
        assert_eq!(sim.granules[0].owner, 0);
    }

    // -- ClusterSim: memory follows the in-flight window, not the run ------

    #[test]
    fn an_idle_simulator_retains_no_move_queue() {
        let mut sim = quiet_marlin(2);
        // A scale-out sheds 16 granules from each node onto two joiners,
        // then a drain moves node 0's other 16.
        sim.apply_action(0, &ScaleAction::add(2), 2);
        let victims = vec![NodeId(0)];
        sim.apply_action(SECOND / 100, &ScaleAction::RemoveNodes { victims }, 2);
        sim.run_until(10 * SECOND);
        assert!(sim.active_workers == 0 && sim.held.is_empty(), "idle");
        let ran: usize = sim.workers.iter().map(|&(_, ran)| ran).sum();
        assert_eq!(ran, 48);
        assert_eq!(sim.metrics.migrations.total(), 48);
        let retained: usize = sim.workers.iter().map(|(q, _)| q.capacity()).sum();
        assert_eq!(retained, 0, "a finished worker frees its queue");
    }

    #[test]
    fn simulator_state_does_not_grow_with_the_commits_of_a_run() {
        // All a simulated log can hold is its LSN.
        assert_eq!(size_of::<SimLog>(), size_of::<Lsn>());
        let run = |horizon: Nanos| {
            let params = SimParams {
                cpu_model: CpuModel::PerRequest,
                ..SimParams::default()
            };
            let mut sim = ClusterSim::new(
                params,
                CoordKind::Marlin,
                &Workload::ycsb(64),
                2,
                16,
                horizon,
            );
            sim.run();
            let mut appended = 0;
            let mut booked = 0;
            for node in &sim.nodes {
                appended += node.glog.0 .0;
                let NodeCpu::PerRequest(station) = &node.cpu else {
                    panic!("the run asked for per-request stations");
                };
                // Pruning kept up with the event clock on a node that is
                // charged by every transaction it homes...
                assert!(horizon - station.pruned_at < SECOND / 10);
                // ...and left nothing that ended at or before it.
                assert!(station
                    .workers
                    .iter()
                    .flat_map(|c| &c.slots)
                    .all(|b| b.end > station.pruned_at));
                booked += station.bookings();
            }
            let coord = &sim.metrics.coord;
            assert_eq!(
                appended,
                coord.commit_cas_attempts - coord.commit_cas_retries,
                "one record per commit CAS won"
            );
            (appended, booked)
        };
        let (short_appended, short_booked) = run(SECOND);
        let (long_appended, long_booked) = run(4 * SECOND);
        assert!(
            long_appended > 3 * short_appended,
            "4x the run, ~4x the commits"
        );
        // 16 closed-loop clients with 16 requests each bound what can be
        // in flight, however long the run has been going.
        assert!(short_booked <= 16 * 16 && long_booked <= 16 * 16);
    }
}
