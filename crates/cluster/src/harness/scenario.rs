//! The declarative [`Scenario`]: everything one experiment run needs, in
//! one value.
//!
//! A scenario names a workload, a client-count trace, a coordination
//! backend, an optional scaling policy (closed-loop runs) or a scripted
//! action schedule (the paper's fixed-timestamp reconfigurations), faults
//! to inject, and the control/observation cadence. The same value drives
//! either runner through [`run`](crate::harness::run); every figure of
//! §6 is one preset constructor below instead of a bespoke driver file.

use crate::harness::runner::Fault;
use crate::params::{ClientEngine, CoordKind, CpuModel, SimParams};
use crate::sim::Workload;
use marlin_autoscaler::{
    LinearTrendForecaster, PredictiveConfig, PredictivePolicy, ReactiveConfig, ReactivePolicy,
    RebalanceConfig, RegionalPolicy, ScaleAction, ScalingPolicy,
};
use marlin_common::{NodeId, RegionId};
use marlin_sim::{Nanos, RegionMatrix, SECOND};
use marlin_telemetry::json;
use marlin_workload::LoadTrace;

/// Default node-capacity units one closed-loop client offers (calibrated
/// against the simulator: ~160 clients saturate two 4-vCPU nodes). The
/// synchronous runtime uses it to synthesize load from the client trace.
pub const OFFERED_PER_CLIENT: f64 = 0.012;

/// A declarative experiment: workload, backend, policy/script, faults,
/// and cadence. Built with the fluent methods, executed by
/// [`run`](crate::harness::run).
pub struct Scenario {
    /// Name for reports and JSON artifacts.
    pub name: String,
    /// Coordination backend under test.
    pub backend: CoordKind,
    /// The client workload.
    pub workload: Workload,
    /// Exogenous demand in active clients over time.
    pub trace: LoadTrace,
    /// Per-region demand for geo scenarios: one trace per region (region
    /// `r`'s clients only touch data homed in region `r`, §6.5). Empty =
    /// single demand signal (`trace`) spread over all regions. When
    /// non-empty, its length must equal `params.regions.regions()` and
    /// `trace` is ignored by the runners.
    pub region_traces: Vec<LoadTrace>,
    /// Nodes at t=0.
    pub initial_nodes: u32,
    /// How often the driver observes (and the controller decides).
    pub control_interval: Nanos,
    /// Trailing window each observation summarizes.
    pub observe_window: Nanos,
    /// End of simulated time.
    pub horizon: Nanos,
    /// Migration worker threads per new/drained node.
    pub threads_per_node: u32,
    /// Node-capacity units one client offers (synchronous runtime only).
    pub offered_per_client: f64,
    /// Simulator constants (including the seed; both runners are
    /// deterministic functions of the scenario).
    pub params: SimParams,
    /// The scaling policy, if this is a closed-loop run.
    pub policy: Option<Box<dyn ScalingPolicy>>,
    /// Hot-granule rebalancing on steady-state ticks.
    pub planner: Option<RebalanceConfig>,
    /// Scripted scale actions at fixed times (the paper's §6.2–§6.6
    /// fixed-timestamp reconfigurations).
    pub script: Vec<(Nanos, ScaleAction)>,
    /// Faults to inject at fixed times.
    pub faults: Vec<(Nanos, Fault)>,
    /// Membership stress (Figure 15): `(members, period)` — virtual nodes
    /// each committing one membership update per period.
    pub membership_stress: Option<(u32, Nanos)>,
}

impl Scenario {
    /// A blank scenario: Marlin backend, 1000-granule uniform YCSB, no
    /// clients, two nodes, 1 s control interval over a 30 s horizon.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            backend: CoordKind::Marlin,
            workload: Workload::ycsb(1_000),
            trace: LoadTrace::constant(0),
            region_traces: Vec::new(),
            initial_nodes: 2,
            control_interval: SECOND,
            observe_window: 2 * SECOND,
            horizon: 30 * SECOND,
            threads_per_node: 4,
            offered_per_client: OFFERED_PER_CLIENT,
            params: SimParams::default(),
            policy: None,
            planner: None,
            script: Vec::new(),
            faults: Vec::new(),
            membership_stress: None,
        }
    }

    // -- builder knobs ------------------------------------------------------

    /// Set the coordination backend.
    #[must_use]
    pub fn backend(mut self, kind: CoordKind) -> Self {
        self.backend = kind;
        self
    }

    /// Set the client workload.
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Set the client-count trace.
    #[must_use]
    pub fn trace(mut self, trace: LoadTrace) -> Self {
        self.trace = trace;
        self
    }

    /// Set one client-count trace per region (geo scenarios; the vector
    /// length must match the region count of `params.regions`).
    #[must_use]
    pub fn region_traces(mut self, traces: Vec<LoadTrace>) -> Self {
        self.region_traces = traces;
        self
    }

    /// Set the initial node count.
    #[must_use]
    pub fn initial_nodes(mut self, nodes: u32) -> Self {
        self.initial_nodes = nodes;
        self
    }

    /// Install a scaling policy (turns the run closed-loop).
    #[must_use]
    pub fn policy(mut self, policy: Box<dyn ScalingPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Enable the hot-granule rebalance planner on steady-state ticks.
    #[must_use]
    pub fn planner(mut self, cfg: RebalanceConfig) -> Self {
        self.planner = Some(cfg);
        self
    }

    /// Script one scale action at a fixed time.
    ///
    /// The script is kept sorted by time as it is built (stable: actions
    /// scheduled for the same instant keep their call order), so an
    /// out-of-order `.action()` chain cannot make the driver's timeline
    /// regress — a regressing milestone would silently fire late at
    /// "now" through the driver's saturating clock advance.
    #[must_use]
    pub fn action(mut self, at: Nanos, action: ScaleAction) -> Self {
        let pos = self.script.partition_point(|&(t, _)| t <= at);
        self.script.insert(pos, (at, action));
        self
    }

    /// Set the faults to inject.
    #[must_use]
    pub fn faults(mut self, faults: Vec<(Nanos, Fault)>) -> Self {
        self.faults = faults;
        self
    }

    /// Set the horizon.
    #[must_use]
    pub fn duration(mut self, horizon: Nanos) -> Self {
        self.horizon = horizon;
        self
    }

    /// Set the control interval (must be positive).
    #[must_use]
    pub fn control_interval(mut self, interval: Nanos) -> Self {
        assert!(interval > 0, "control interval must be positive");
        self.control_interval = interval;
        self
    }

    /// Set the observation window.
    #[must_use]
    pub fn observe_window(mut self, window: Nanos) -> Self {
        self.observe_window = window;
        self
    }

    /// Set migration worker threads per new/drained node.
    #[must_use]
    pub fn threads_per_node(mut self, threads: u32) -> Self {
        self.threads_per_node = threads;
        self
    }

    /// Set node-capacity units per client (synchronous runtime).
    #[must_use]
    pub fn offered_per_client(mut self, per: f64) -> Self {
        self.offered_per_client = per;
        self
    }

    /// Replace the simulator constants.
    #[must_use]
    pub fn params(mut self, params: SimParams) -> Self {
        self.params = params;
        self
    }

    /// Select the CPU congestion model ([`CpuModel::Analytic`] EMA vs
    /// [`CpuModel::PerRequest`] exact queueing). Only the simulator
    /// prices CPU — `LocalRunner` synthesizes observations — but the
    /// choice is recorded in the [`RunReport`](crate::harness::RunReport)
    /// either way so artifacts say which model produced their numbers.
    #[must_use]
    pub fn cpu_model(mut self, model: CpuModel) -> Self {
        self.params.cpu_model = model;
        self
    }

    /// Select the client engine (simulator only): [`ClientEngine::Exact`]
    /// simulation, or the [`ClientEngine::Cohort`] scale engine —
    /// cohorts, histogram latency window and sketched heat.
    #[must_use]
    pub fn client_engine(mut self, engine: ClientEngine) -> Self {
        self.params.client_engine = engine;
        self
    }

    /// Set the deterministic seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Set the provisioning lead time: how long an `AddNodes` actuation
    /// takes before the new nodes join and accept load (simulator only —
    /// `LocalRunner` actuates synchronously — but recorded in the params
    /// either way). Default 0 = the historical instant capacity.
    #[must_use]
    pub fn provision_lead_time(mut self, lead: Nanos) -> Self {
        self.params.provision_lead_time = lead;
        self
    }

    /// Enable the Figure 15 membership stress: `members` virtual nodes,
    /// one update per `period` each.
    #[must_use]
    pub fn membership_stress(mut self, members: u32, period: Nanos) -> Self {
        self.membership_stress = Some((members, period));
        self
    }

    /// The default reactive controller policy for these bounds, stepping
    /// by the initial node count with a 3-interval cooldown (the closed
    /// -loop presets' configuration).
    #[must_use]
    pub fn reactive_policy(&self, min_nodes: u32, max_nodes: u32) -> Box<dyn ScalingPolicy> {
        Box::new(ReactivePolicy::new(ReactiveConfig {
            step_nodes: self.initial_nodes,
            cooldown: 3 * self.control_interval,
            ..ReactiveConfig::paper_default(min_nodes, max_nodes)
        }))
    }

    /// The region-aware controller: one independent reactive policy per
    /// region of `params.regions`, each sizing its region between
    /// `min_nodes` and `max_nodes` with a `min_nodes` step and a
    /// 3-interval cooldown. Region 0 — where the external coordination
    /// services are pinned (§6.5) — is floored at `min_nodes` so a drain
    /// can never strand the co-located service quorum.
    #[must_use]
    pub fn regional_reactive_policy(
        &self,
        min_nodes: u32,
        max_nodes: u32,
    ) -> Box<dyn ScalingPolicy> {
        let regions = self.params.regions.regions() as u16;
        let cooldown = 3 * self.control_interval;
        Box::new(
            RegionalPolicy::new(regions, |_| {
                Box::new(ReactivePolicy::new(ReactiveConfig {
                    step_nodes: min_nodes.max(1),
                    cooldown,
                    ..ReactiveConfig::paper_default(min_nodes, max_nodes)
                }))
            })
            .with_coordination_floor(RegionId(0), min_nodes),
        )
    }

    /// The SLO ceiling the predictive presets (and their reactive
    /// baselines) arm the p99 escape hatch with — same value as the
    /// CPU-model comparison preset.
    pub const PRESET_P99_CEILING: Nanos = 150 * marlin_sim::MILLISECOND;

    /// The reactive controller policy with the p99 escape hatch armed —
    /// the fair baseline for latency-SLO comparisons (the plain
    /// [`Scenario::reactive_policy`] cannot see a breach at all when
    /// utilization is gated by saturation). Also the fallback the
    /// predictive constructors wrap, so a predictive run degraded by its
    /// error guard behaves exactly like this baseline.
    #[must_use]
    pub fn slo_reactive_policy(
        &self,
        min_nodes: u32,
        max_nodes: u32,
        p99_ceiling: Nanos,
    ) -> Box<dyn ScalingPolicy> {
        Box::new(ReactivePolicy::new(ReactiveConfig {
            step_nodes: min_nodes.max(1),
            cooldown: 3 * self.control_interval,
            p99_ceiling: Some(p99_ceiling),
            ..ReactiveConfig::paper_default(min_nodes, max_nodes)
        }))
    }

    /// The proactive controller policy for these bounds: a linear-trend
    /// forecaster sizing the cluster for demand one provisioning lead
    /// plus one control interval ahead, guarded by rolling-MAPE and
    /// distress fallbacks onto the SLO-armed reactive configuration
    /// ([`Scenario::slo_reactive_policy`]). The lead is read from
    /// `params.provision_lead_time` — set it (and any CPU model) on the
    /// builder *before* asking for the policy: the forecast horizon is
    /// captured at construction, so overriding the lead on a scenario
    /// that already carries a predictive policy leaves that policy
    /// sized for the stale lead (rebuild the policy after the override,
    /// as the `predictive_vs_reactive` bench's lead sweep does).
    #[must_use]
    pub fn predictive_policy(&self, min_nodes: u32, max_nodes: u32) -> Box<dyn ScalingPolicy> {
        let lead = self.params.provision_lead_time + self.control_interval;
        Box::new(PredictivePolicy::new(
            PredictiveConfig {
                cooldown: 3 * self.control_interval,
                ..PredictiveConfig::paper_default(lead, min_nodes, max_nodes)
            },
            LinearTrendForecaster::new(5),
            self.slo_reactive_policy(min_nodes, max_nodes, Self::PRESET_P99_CEILING),
        ))
    }

    /// The region-aware proactive controller: one independent
    /// [`PredictivePolicy`] per region of `params.regions` (each with its
    /// own forecaster over its region's demand signal and its own
    /// reactive fallback), coordination region floored at `min_nodes`
    /// like [`Scenario::regional_reactive_policy`].
    #[must_use]
    pub fn regional_predictive_policy(
        &self,
        min_nodes: u32,
        max_nodes: u32,
    ) -> Box<dyn ScalingPolicy> {
        let regions = self.params.regions.regions() as u16;
        let cooldown = 3 * self.control_interval;
        let lead = self.params.provision_lead_time + self.control_interval;
        Box::new(
            RegionalPolicy::new(regions, |_| {
                Box::new(PredictivePolicy::new(
                    PredictiveConfig {
                        cooldown,
                        ..PredictiveConfig::paper_default(lead, min_nodes, max_nodes)
                    },
                    LinearTrendForecaster::new(5),
                    self.slo_reactive_policy(min_nodes, max_nodes, Self::PRESET_P99_CEILING),
                ))
            })
            .with_coordination_floor(RegionId(0), min_nodes),
        )
    }

    // -- paper presets ------------------------------------------------------

    /// The Figure 8/9 configuration: YCSB, 800 clients, 8→16 nodes at
    /// t=10 s, ~100K granule migrations. `granule_scale` shrinks the
    /// granule count for quick runs (1 = full).
    #[must_use]
    pub fn ycsb_scale_out(kind: CoordKind, granule_scale: u64) -> Self {
        Scenario::new("ycsb-so8-16")
            .backend(kind)
            .workload(Workload::ycsb(200_000 / granule_scale))
            .trace(LoadTrace::constant(800))
            .initial_nodes(8)
            .threads_per_node(7)
            .duration(50 * SECOND)
            .action(10 * SECOND, ScaleAction::add(8))
    }

    /// The Figure 11 configuration: TPC-C, 1600 warehouses per server, 80
    /// migration threads per new node, warehouse-sized (~1 MB) granules.
    #[must_use]
    pub fn tpcc_scale_out(kind: CoordKind, granule_scale: u64) -> Self {
        // Warehouse granules do substantially more per-migration work
        // (locking a whole warehouse, initiating a 1 MB scan), which is
        // what bounds Marlin's TPC-C migration rate in Figure 11.
        let params = SimParams {
            migration_service: 2_000_000, // 2 ms per side
            ..SimParams::default()
        };
        Scenario::new("tpcc-so8-16")
            .backend(kind)
            .workload(Workload::tpcc(12_800 / granule_scale))
            .trace(LoadTrace::constant(800))
            .initial_nodes(8)
            .threads_per_node(80)
            .params(params)
            .duration(30 * SECOND)
            .action(10 * SECOND, ScaleAction::add(8))
    }

    /// One Figure 12 sweep point (SO1-2 / SO2-4 / SO4-8 / SO8-16):
    /// clients, table size, and migration concurrency scale together
    /// (§6.4).
    #[must_use]
    pub fn sweep_point(kind: CoordKind, initial_nodes: u32, granule_scale: u64) -> Self {
        let granules = u64::from(initial_nodes) * 25_000 / granule_scale;
        Scenario::new(format!("so{}-{}", initial_nodes, 2 * initial_nodes))
            .backend(kind)
            .workload(Workload::ycsb(granules))
            .trace(LoadTrace::constant(100 * initial_nodes))
            .initial_nodes(initial_nodes)
            .threads_per_node(7)
            .duration(120 * SECOND)
            .action(5 * SECOND, ScaleAction::add(initial_nodes))
    }

    /// Geo-distributed variant (§6.5): four regions, the external
    /// coordination service pinned in region 0 (US West). The horizon
    /// stretches so baselines paying cross-region round trips per
    /// metadata commit still finish their storms in-window.
    ///
    /// Only the region matrix is replaced: every other `SimParams` knob —
    /// and the seed — set earlier in the builder chain survives (`.geo()`
    /// used to rebuild `params` from scratch, silently discarding any
    /// customization made before it).
    #[must_use]
    pub fn geo(mut self) -> Self {
        self.params.regions = RegionMatrix::paper_geo();
        self.horizon = 400 * SECOND;
        self.threads_per_node = 16;
        self.name.push_str("-geo");
        self
    }

    /// The Figure 14 dynamic workload: 400→800→400 clients with scripted
    /// 8→16→8 scaling at the burst edges (20 s / 80 s).
    #[must_use]
    pub fn dynamic_burst(kind: CoordKind, granule_scale: u64) -> Self {
        Scenario::new("dynamic-burst")
            .backend(kind)
            .workload(Workload::ycsb(200_000 / granule_scale))
            .trace(LoadTrace::paper_burst())
            .initial_nodes(8)
            .threads_per_node(16)
            .duration(120 * SECOND)
            .action(20 * SECOND, ScaleAction::add(8))
            .action(
                80 * SECOND,
                ScaleAction::RemoveNodes {
                    victims: (8..16).map(NodeId).collect(),
                },
            )
    }

    /// The Figure 15 MTable stress: `members` virtual nodes, one
    /// membership update per `period` each, no user workload.
    #[must_use]
    pub fn membership(kind: CoordKind, members: u32, period: Nanos, horizon: Nanos) -> Self {
        Scenario::new(format!("membership-{members}"))
            .backend(kind)
            .workload(Workload::ycsb(16))
            .initial_nodes(1)
            .duration(horizon)
            .membership_stress(members, period)
    }

    /// The §6.6 burst at paper scale driven closed-loop: 400→800→400
    /// clients, the cluster free to move between 8 and 16 nodes under the
    /// reactive policy.
    #[must_use]
    pub fn autoscale_spike(kind: CoordKind, granule_scale: u64) -> Self {
        let s = Scenario::new("autoscale-spike")
            .backend(kind)
            .workload(Workload::ycsb(200_000 / granule_scale))
            .trace(LoadTrace::paper_burst())
            .initial_nodes(8)
            .threads_per_node(16)
            .control_interval(2 * SECOND)
            .observe_window(4 * SECOND)
            .duration(120 * SECOND);
        let policy = s.reactive_policy(8, 16);
        s.policy(policy)
    }

    /// A two-cycle diurnal curve between 4 and 12 nodes' worth of demand,
    /// driven closed-loop. The curve is [`LoadTrace::paper_diurnal`] —
    /// the same trace the predictive preset rides, so forecaster claims
    /// are measured against the exact demand the reactive baseline saw.
    #[must_use]
    pub fn autoscale_diurnal(kind: CoordKind, granules: u64) -> Self {
        let trace = LoadTrace::paper_diurnal();
        let horizon = 240 * SECOND;
        let s = Scenario::new("autoscale-diurnal")
            .backend(kind)
            .workload(Workload::ycsb(granules))
            .trace(trace)
            .initial_nodes(4)
            .threads_per_node(8)
            .control_interval(2 * SECOND)
            .observe_window(4 * SECOND)
            .duration(horizon);
        let policy = s.reactive_policy(4, 12);
        s.policy(policy)
    }

    /// The CPU-model comparison: the §6.6 autoscale spike (400→800→400
    /// clients, 8–16 nodes) under one of the two [`CpuModel`]s, with the
    /// reactive policy's p99 escape hatch armed (150 ms ceiling).
    ///
    /// Run it once per [`CpuModel::all`] and diff the decision logs and
    /// p99 series: under `Analytic` the EMA clamp caps per-request delay,
    /// so the spike's tail latency flattens and the escape hatch rarely
    /// fires; under `PerRequest` the same seed and trace produce exact
    /// sojourn times, so p99 tracks the real queue build-up immediately
    /// — the latency-accurate station behavior Marlin's §6 tail-latency
    /// results depend on. `MARLIN_SCALE`-style `granule_scale` shrinks
    /// the table for quick runs (1 = paper scale).
    #[must_use]
    pub fn cpu_model_comparison(kind: CoordKind, granule_scale: u64, model: CpuModel) -> Self {
        // Derive from the §6.6 preset so retuning `autoscale_spike` can
        // never silently break comparability; only the CPU model, the
        // name, and the policy (same bounds, p99 hatch armed) differ.
        let mut s = Scenario::autoscale_spike(kind, granule_scale).cpu_model(model);
        s.name = format!("cpu-model-{}", model.name());
        let policy = Box::new(ReactivePolicy::new(ReactiveConfig {
            step_nodes: s.initial_nodes,
            cooldown: 3 * s.control_interval,
            p99_ceiling: Some(150 * marlin_sim::MILLISECOND),
            ..ReactiveConfig::paper_default(s.initial_nodes, 2 * s.initial_nodes)
        }));
        s.policy(policy)
    }

    /// The §6.5 setup as a *live control loop* instead of a static
    /// latency overlay: four regions with two nodes each, per-region
    /// demand, and the region-aware controller free to size every region
    /// between 2 and 4 nodes. Region 1 (East Asia) spikes to 2× its base
    /// demand while the others idle — the controller must answer with
    /// `AddNodes` into region 1 only, then drain region 1 back with
    /// region-local victims once the spike passes. Region 0 hosts the
    /// external coordination service for baseline backends and is floored
    /// at 2 nodes.
    ///
    /// `granules` is the absolute table size (LocalRunner scenarios pass
    /// tens of granules, simulator scenarios thousands). Spike edges sit
    /// 4 s before a control tick so the simulator's EMA utilization fully
    /// converges before the decisive observation (the same discipline as
    /// the runner-parity scenario).
    #[must_use]
    pub fn geo_autoscale(kind: CoordKind, granules: u64) -> Self {
        let idle = LoadTrace::constant(40);
        let hot = LoadTrace::spike(100, 200, 26 * SECOND, 86 * SECOND);
        let mut s = Scenario::new("geo-autoscale")
            .backend(kind)
            .workload(Workload::ycsb(granules))
            .initial_nodes(8)
            .control_interval(5 * SECOND)
            .observe_window(4 * SECOND)
            .geo()
            .region_traces(vec![idle.clone(), hot, idle.clone(), idle])
            .duration(120 * SECOND)
            .threads_per_node(8);
        s.name = "geo-autoscale".into(); // .geo() suffixes; keep the preset name
        let policy = s.regional_reactive_policy(2, 4);
        s.policy(policy)
    }

    /// The Zipfian-heat rebalance scenario: skewed YCSB access (hot
    /// granules concentrated on the first node's contiguous block), a
    /// hold policy, and the rebalance planner migrating heat off the
    /// loaded node without changing the member count.
    #[must_use]
    pub fn zipfian_rebalance(kind: CoordKind, granules: u64, theta: f64) -> Self {
        Scenario::new("zipfian-rebalance")
            .backend(kind)
            .workload(Workload::ycsb_zipfian(granules, theta))
            .trace(LoadTrace::constant(60))
            .initial_nodes(3)
            .threads_per_node(4)
            .control_interval(2 * SECOND)
            .observe_window(2 * SECOND)
            .duration(40 * SECOND)
            .policy(Box::new(marlin_autoscaler::HoldPolicy))
            .planner(RebalanceConfig::default())
    }

    /// The predictive diurnal run: the exact `autoscale_diurnal` curve
    /// ([`LoadTrace::paper_diurnal`]) with capacity no longer free —
    /// `AddNodes` takes a 10 s provisioning lead — under the per-request
    /// CPU model (p99s track real queue build-up, so an SLO comparison
    /// means something) and the trend-forecasting
    /// [`PredictivePolicy`] sizing for demand one lead ahead.
    ///
    /// For the reactive twin of the same run — the A/B every
    /// predictive claim is measured against — swap only the policy:
    /// `scenario.slo_reactive_policy(4, 12, Scenario::PRESET_P99_CEILING)`
    /// on an otherwise identical builder chain
    /// (`examples/predictive_vs_reactive.rs` does exactly this).
    #[must_use]
    pub fn predictive_diurnal(kind: CoordKind, granules: u64) -> Self {
        let mut s = Scenario::autoscale_diurnal(kind, granules)
            .cpu_model(CpuModel::PerRequest)
            .provision_lead_time(10 * SECOND);
        s.name = "predictive-diurnal".into();
        let policy = s.predictive_policy(4, 12);
        s.policy(policy)
    }

    /// The predictive geo run: the §6.5 four-region deployment with a
    /// *forecastable* regional surge — region 1's demand ramps 100→200
    /// clients over 40 s (a staircase with slope, not a step; cloud
    /// demand grows, it rarely teleports) while the other regions idle —
    /// under a 10 s provisioning lead and the per-region
    /// [`PredictivePolicy`] composition
    /// ([`Scenario::regional_predictive_policy`]). The controller must
    /// order region-1 capacity *while the ramp is still climbing*, so
    /// the nodes land before the region's p99 breaches; calm regions
    /// must see zero adds.
    #[must_use]
    pub fn predictive_geo(kind: CoordKind, granules: u64) -> Self {
        let idle = LoadTrace::constant(40);
        let hot = LoadTrace::ramp(100, 200, 26 * SECOND, 66 * SECOND, 8);
        let mut s = Scenario::new("predictive-geo")
            .backend(kind)
            .workload(Workload::ycsb(granules))
            .initial_nodes(8)
            .control_interval(5 * SECOND)
            .observe_window(4 * SECOND)
            .geo()
            .cpu_model(CpuModel::PerRequest)
            .provision_lead_time(10 * SECOND)
            .region_traces(vec![idle.clone(), hot, idle.clone(), idle])
            .duration(120 * SECOND)
            .threads_per_node(8);
        s.name = "predictive-geo".into(); // .geo() suffixes; keep the preset name
        let policy = s.regional_predictive_policy(2, 4);
        s.policy(policy)
    }

    /// The scale-engine showcase: one million closed-loop clients over a
    /// Zipfian-skewed table, run by the cohort client engine with a
    /// hold-policy + rebalance-planner loop, so the full observation
    /// surface — weighted throughput and p99, sketched hot granules —
    /// sits on the hot path. `scale` divides the client and granule
    /// counts for quick runs (1 = the full million); heat is sketched up
    /// to scale 48, where the table still holds
    /// [`SKETCH_MIN_KEYS`](marlin_sim::sketch::SKETCH_MIN_KEYS) granules.
    ///
    /// The same scenario with [`ClientEngine::Exact`] is the oracle the
    /// cohort engine's throughput advantage is measured against
    /// (`benches/million_clients.rs` probes it for a wall-time slice and
    /// reports virtual-seconds-per-wall-second for both engines).
    #[must_use]
    pub fn million_clients(scale: u64) -> Self {
        let scale = scale.max(1);
        Scenario::new("million-clients")
            .workload(Workload::ycsb_zipfian(200_000 / scale, 0.9))
            .trace(LoadTrace::constant((1_000_000 / scale) as u32))
            .initial_nodes(16)
            .threads_per_node(8)
            .control_interval(5 * SECOND)
            .observe_window(4 * SECOND)
            .duration(60 * SECOND)
            .client_engine(ClientEngine::Cohort)
            .policy(Box::new(marlin_autoscaler::HoldPolicy))
            .planner(RebalanceConfig::default())
    }

    // -- serialization ------------------------------------------------------

    /// A one-line JSON description of everything the scenario will do:
    /// workload, backend, sizes, trace steps, scripted actions, and
    /// faults. Policies are trait objects and are described by presence
    /// only — a repro file regenerates them from the recorded generation
    /// choices, not from this manifest. Used by the fuzzer to embed a
    /// human-readable summary in repro artifacts.
    #[must_use]
    pub fn manifest_json(&self) -> String {
        let mut out = String::with_capacity(512);
        json::object(&mut out, |o| {
            o.field("name", &self.name)
                .field(
                    "backend",
                    match self.backend {
                        CoordKind::Marlin => "marlin",
                        CoordKind::ZkSmall => "zk-small",
                        CoordKind::ZkLarge => "zk-large",
                        CoordKind::Fdb => "fdb",
                    },
                )
                .field("granules", self.workload.granule_count())
                .field("initial_nodes", self.initial_nodes)
                .field("regions", self.params.regions.regions())
                .field("horizon_ms", self.horizon / 1_000_000)
                .field("control_interval_ms", self.control_interval / 1_000_000)
                .field(
                    "provision_lead_ms",
                    self.params.provision_lead_time / 1_000_000,
                )
                .field("seed", self.params.seed)
                .field("policy", self.policy.is_some())
                .arr("trace", |a| {
                    for &(t, c) in self.trace.changes() {
                        a.arr(|p| {
                            p.item(t / 1_000_000).item(c);
                        });
                    }
                })
                .arr("script", |a| {
                    for (t, action) in &self.script {
                        let desc = match action {
                            ScaleAction::AddNodes { count, region } => match region {
                                Some(r) => format!("add {count} @r{}", r.0),
                                None => format!("add {count}"),
                            },
                            ScaleAction::RemoveNodes { victims } => {
                                format!("remove {}", victims.len())
                            }
                            ScaleAction::Rebalance { moves } => {
                                format!("rebalance {}", moves.len())
                            }
                        };
                        a.arr(|p| {
                            p.item(t / 1_000_000).item(desc);
                        });
                    }
                })
                .arr("faults", |a| {
                    for (t, f) in &self.faults {
                        let desc = match f {
                            Fault::Crash(n) => format!("crash n{}", n.0),
                            Fault::RegionLatencySpike {
                                region,
                                extra,
                                until,
                            } => format!(
                                "latency_spike r{} +{}ms until {}ms",
                                region.0,
                                extra / 1_000_000,
                                until / 1_000_000
                            ),
                            Fault::RegionPartition { region, until } => {
                                format!("partition r{} until {}ms", region.0, until / 1_000_000)
                            }
                            Fault::ProvisionLeadJitter { extra } => {
                                format!("lead_jitter +{}ms", extra / 1_000_000)
                            }
                        };
                        a.arr(|p| {
                            p.item(t / 1_000_000).item(desc);
                        });
                    }
                });
        });
        out
    }
}

/// Membership updates expected over a stress run (bursts fully inside
/// the horizon).
#[must_use]
pub fn expected_membership_updates(members: u32, period: Nanos, horizon: Nanos) -> u64 {
    u64::from(members) * (horizon / period)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_knob() {
        let s = Scenario::new("t")
            .backend(CoordKind::Fdb)
            .workload(Workload::tpcc(10))
            .trace(LoadTrace::constant(5))
            .initial_nodes(3)
            .control_interval(2 * SECOND)
            .observe_window(3 * SECOND)
            .duration(9 * SECOND)
            .threads_per_node(2)
            .seed(7)
            .provision_lead_time(7 * SECOND)
            .action(SECOND, ScaleAction::add(1))
            .faults(vec![(2 * SECOND, Fault::Crash(NodeId(1)))]);
        assert_eq!(s.backend, CoordKind::Fdb);
        assert_eq!(s.initial_nodes, 3);
        assert_eq!(s.params.seed, 7);
        assert_eq!(s.params.provision_lead_time, 7 * SECOND);
        assert_eq!(s.script.len(), 1);
        assert_eq!(s.faults.len(), 1);
        assert_eq!(s.horizon, 9 * SECOND);
    }

    #[test]
    fn presets_match_the_paper_shapes() {
        let so = Scenario::ycsb_scale_out(CoordKind::ZkSmall, 10);
        assert_eq!(so.workload.granule_count(), 20_000);
        assert_eq!(so.script.len(), 1);
        let dynamic = Scenario::dynamic_burst(CoordKind::Marlin, 10);
        assert_eq!(dynamic.script.len(), 2);
        assert_eq!(dynamic.trace.peak(), 800);
        let auto = Scenario::autoscale_spike(CoordKind::Marlin, 10);
        assert!(auto.policy.is_some() && auto.script.is_empty());
        let geo = Scenario::sweep_point(CoordKind::Fdb, 4, 10).geo();
        assert_eq!(geo.params.regions.regions(), 4);
        assert_eq!(geo.horizon, 400 * SECOND);
    }

    #[test]
    fn expected_updates_counts_full_bursts() {
        assert_eq!(expected_membership_updates(8, 15 * SECOND, 50 * SECOND), 24);
    }

    #[test]
    fn geo_merges_params_instead_of_clobbering() {
        // Regression: `.geo()` used to rebuild `params` from
        // `SimParams::geo()` keeping only the seed, silently discarding
        // any customization made earlier in the builder chain.
        let custom = SimParams {
            migration_service: 123_456,
            cpu_workers: 9,
            ..SimParams::default()
        };
        let s = Scenario::new("t").params(custom).seed(7).geo();
        assert_eq!(s.params.regions.regions(), 4, "geo regions installed");
        assert_eq!(s.params.migration_service, 123_456, "customization kept");
        assert_eq!(s.params.cpu_workers, 9, "customization kept");
        assert_eq!(s.params.seed, 7, "seed kept");
        // Builder order must not matter for the surviving knobs.
        let custom = SimParams {
            migration_service: 123_456,
            ..SimParams::default()
        };
        let before = Scenario::new("t").params(custom.clone()).geo();
        let after = Scenario::new("t").geo().params(SimParams {
            regions: marlin_sim::RegionMatrix::paper_geo(),
            ..custom
        });
        assert_eq!(
            before.params.migration_service,
            after.params.migration_service
        );
    }

    #[test]
    fn out_of_order_actions_are_sorted_at_build() {
        // Regression: an out-of-order scripted action used to reach the
        // driver behind the clock and silently fire late at "now".
        let s = Scenario::new("t")
            .action(10 * SECOND, ScaleAction::add(1))
            .action(5 * SECOND, ScaleAction::add(2))
            .action(10 * SECOND, ScaleAction::add(3));
        let times: Vec<Nanos> = s.script.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![5 * SECOND, 10 * SECOND, 10 * SECOND]);
        // Stable for equal timestamps: call order preserved.
        assert_eq!(s.script[1].1, ScaleAction::add(1));
        assert_eq!(s.script[2].1, ScaleAction::add(3));
    }

    #[test]
    fn cpu_model_comparison_presets_differ_only_in_the_model() {
        let analytic = Scenario::cpu_model_comparison(CoordKind::Marlin, 10, CpuModel::Analytic);
        let per_req = Scenario::cpu_model_comparison(CoordKind::Marlin, 10, CpuModel::PerRequest);
        assert_eq!(analytic.name, "cpu-model-analytic");
        assert_eq!(per_req.name, "cpu-model-per-request");
        assert_eq!(analytic.params.cpu_model, CpuModel::Analytic);
        assert_eq!(per_req.params.cpu_model, CpuModel::PerRequest);
        // Everything else matches, so the logs are comparable.
        assert_eq!(analytic.initial_nodes, per_req.initial_nodes);
        assert_eq!(analytic.horizon, per_req.horizon);
        assert_eq!(analytic.params.seed, per_req.params.seed);
        assert_eq!(analytic.trace.peak(), per_req.trace.peak());
        assert!(analytic.policy.is_some() && per_req.policy.is_some());
        // The builder knob reaches params for hand-rolled scenarios too.
        let s = Scenario::new("t").cpu_model(CpuModel::PerRequest);
        assert_eq!(s.params.cpu_model, CpuModel::PerRequest);
    }

    #[test]
    fn predictive_presets_carry_lead_time_and_share_the_reactive_curves() {
        let d = Scenario::predictive_diurnal(CoordKind::Marlin, 2_000);
        assert_eq!(d.name, "predictive-diurnal");
        assert_eq!(d.params.provision_lead_time, 10 * SECOND);
        assert_eq!(d.params.cpu_model, CpuModel::PerRequest);
        assert!(d.policy.is_some() && d.script.is_empty());
        // One source of truth for the curve: the predictive run rides the
        // exact trace the reactive preset rides.
        let reactive = Scenario::autoscale_diurnal(CoordKind::Marlin, 2_000);
        assert_eq!(d.trace, reactive.trace);
        assert_eq!(d.trace, LoadTrace::paper_diurnal());
        assert_eq!(d.horizon, reactive.horizon);
        assert_eq!(d.params.seed, reactive.params.seed);

        let g = Scenario::predictive_geo(CoordKind::Marlin, 1_600);
        assert_eq!(g.name, "predictive-geo");
        assert_eq!(g.params.regions.regions(), 4);
        assert_eq!(g.region_traces.len(), 4);
        assert_eq!(g.params.provision_lead_time, 10 * SECOND);
        assert_eq!(g.region_traces[1].peak(), 200, "region 1 ramps 2x");
        assert_eq!(g.region_traces[0].peak(), 40, "the others idle");
        // The surge is a ramp (forecastable slope), not a step.
        assert!(g.region_traces[1].changes().len() > 3);
    }

    #[test]
    fn burst_presets_share_one_trace_source() {
        // Regression for the preset duplication: dynamic_burst,
        // autoscale_spike, and the model-comparison preset derived from
        // it must ride literally the same curve.
        let burst = LoadTrace::paper_burst();
        assert_eq!(Scenario::dynamic_burst(CoordKind::Marlin, 10).trace, burst);
        assert_eq!(
            Scenario::autoscale_spike(CoordKind::Marlin, 10).trace,
            burst
        );
        assert_eq!(
            Scenario::cpu_model_comparison(CoordKind::Marlin, 10, CpuModel::PerRequest).trace,
            burst
        );
    }

    #[test]
    fn million_clients_preset_pins_the_scale_engine() {
        let s = Scenario::million_clients(1);
        assert_eq!(s.name, "million-clients");
        assert_eq!(s.trace.peak(), 1_000_000);
        assert_eq!(s.workload.granule_count(), 200_000);
        assert_eq!(s.params.client_engine, ClientEngine::Cohort);
        assert!(s.policy.is_some() && s.planner.is_some());
        // The largest scale whose table is still sketched.
        let scaled = Scenario::million_clients(48);
        assert_eq!(scaled.trace.peak(), 20_833);
        assert!(scaled.workload.granule_count() >= marlin_sim::sketch::SKETCH_MIN_KEYS as u64);
        // The builder knob reaches params for hand-rolled scenarios too.
        let s = Scenario::new("t").client_engine(ClientEngine::Cohort);
        assert_eq!(s.params.client_engine, ClientEngine::Cohort);
    }

    #[test]
    fn manifest_escapes_the_scenario_name() {
        let manifest = Scenario::new("say \"hi\"\nand\tleave\\").manifest_json();
        // The escaped name, then the next field: the name cannot end the
        // string early or break the line.
        assert!(
            manifest.starts_with(r#"{"name":"say \"hi\"\nand\tleave\\","backend":"marlin","#),
            "{manifest}"
        );
        // One line, so it fits a `#` comment of a repro artifact.
        assert!(!manifest.contains('\n'));
        assert_eq!(
            manifest,
            r#"{"name":"say \"hi\"\nand\tleave\\","backend":"marlin","granules":1000,"initial_nodes":2,"regions":1,"horizon_ms":30000,"control_interval_ms":1000,"provision_lead_ms":0,"seed":42,"policy":false,"trace":[[0,0]],"script":[],"faults":[]}"#
        );
        let name = json::parse_json(&manifest).expect("the manifest parses");
        assert_eq!(
            name.get("name").and_then(json::Json::as_str),
            Some("say \"hi\"\nand\tleave\\")
        );
    }

    #[test]
    fn manifest_lists_the_trace_script_and_faults() {
        let manifest = Scenario::new("say \"hi\"\nand\tleave\\")
            .backend(CoordKind::ZkSmall)
            .trace(LoadTrace::spike(10, 20, 5 * SECOND, 15 * SECOND))
            .action(3 * SECOND, ScaleAction::add_in(2, RegionId(1)))
            .action(
                4 * SECOND,
                ScaleAction::RemoveNodes {
                    victims: vec![NodeId(3)],
                },
            )
            .action(5 * SECOND, ScaleAction::add(1))
            .faults(vec![
                (2 * SECOND, Fault::Crash(NodeId(1))),
                (
                    6 * SECOND,
                    Fault::RegionPartition {
                        region: RegionId(1),
                        until: 8 * SECOND,
                    },
                ),
                (
                    7 * SECOND,
                    Fault::RegionLatencySpike {
                        region: RegionId(0),
                        extra: 5_000_000,
                        until: 9 * SECOND,
                    },
                ),
                (8 * SECOND, Fault::ProvisionLeadJitter { extra: 2 * SECOND }),
            ])
            .manifest_json();
        assert_eq!(
            manifest,
            r#"{"name":"say \"hi\"\nand\tleave\\","backend":"zk-small","granules":1000,"initial_nodes":2,"regions":1,"horizon_ms":30000,"control_interval_ms":1000,"provision_lead_ms":0,"seed":42,"policy":false,"trace":[[0,10],[5000,20],[15000,10]],"script":[[3000,"add 2 @r1"],[4000,"remove 1"],[5000,"add 1"]],"faults":[[2000,"crash n1"],[6000,"partition r1 until 8000ms"],[7000,"latency_spike r0 +5ms until 9000ms"],[8000,"lead_jitter +2000ms"]]}"#
        );
        let v = json::parse_json(&manifest).expect("the manifest parses");
        let faults = v
            .get("faults")
            .and_then(json::Json::as_arr)
            .expect("faults");
        assert_eq!(faults.len(), 4);
        assert_eq!(
            faults[3].as_arr().and_then(|f| f[1].as_str()),
            Some("lead_jitter +2000ms")
        );
    }

    #[test]
    fn geo_autoscale_is_region_aware() {
        let s = Scenario::geo_autoscale(CoordKind::Marlin, 1_600);
        assert_eq!(s.name, "geo-autoscale");
        assert_eq!(s.params.regions.regions(), 4);
        assert_eq!(s.region_traces.len(), 4);
        assert_eq!(s.region_traces[1].peak(), 200, "region 1 spikes 2x");
        assert_eq!(s.region_traces[0].peak(), 40, "the others idle");
        assert!(s.policy.is_some() && s.script.is_empty());
    }
}
