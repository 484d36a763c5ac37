//! [`Runner`] over the synchronous `LocalCluster`: the safety runner,
//! where every actuation executes real reconfiguration transactions
//! (`AddNodeTxn`, `MigrationTxn`, `DeleteNodeTxn`, `RecoveryMigrTxn`)
//! through the sans-io drivers and the I0–I4 invariants are asserted
//! after every step.
//!
//! The runtime has no load generator, so observations are synthesized:
//! the scenario's client trace becomes offered load (node-capacity units
//! per client), spread over granules by the workload's access
//! distribution — uniform by default, Zipfian-weighted when the scenario
//! uses skewed YCSB. That makes skew *visible* to policies and the
//! rebalance planner exactly as the simulator's sampled heat counters
//! would report it, while every resulting migration is a real protocol
//! execution.
//!
//! Geo scenarios carry one trace per region: each region's demand lands
//! only on the granules homed there (§6.5 clients touch local data), so
//! a regional spike shows up as utilization on that region's members and
//! region-targeted `AddNodes` place real members into the hot region.

use crate::harness::runner::{Fault, MetricsSnapshot, RegionBreakdown, Runner, TelemetrySection};
use crate::harness::scenario::{Scenario, OFFERED_PER_CLIENT};
use crate::metrics::Blame;
use crate::sim::Workload;
use marlin_autoscaler::{Actuator, InvariantViolation, LocalHarness, Observation, ScaleAction};
use marlin_common::{GranuleId, LogId, RegionId};
use marlin_sim::{Histogram, Nanos, SECOND};
use marlin_telemetry::{CoordOps, MetricsSeries, ProfileSummary, Tracer, DEFAULT_TRACE_CAPACITY};
use marlin_workload::LoadTrace;

/// The synchronous runtime wrapped as a [`Runner`].
pub struct LocalRunner {
    harness: LocalHarness,
    now: Nanos,
    trace: LoadTrace,
    /// One trace per region when the scenario is geo (empty otherwise).
    region_traces: Vec<LoadTrace>,
    /// Placement domains (1 outside geo scenarios).
    regions: u16,
    /// `Some(theta)` when the workload is Zipfian-skewed YCSB.
    zipf_theta: Option<f64>,
    /// Live node count over (logical) time, mirroring the simulator's
    /// exact series.
    node_count: Vec<(Nanos, f64)>,
    /// Node-nanoseconds accrued, for DB Cost accounting.
    node_time: f64,
    /// Node-nanoseconds accrued per region (the per-region cost split).
    region_node_time: Vec<f64>,
    /// Granules moved by `MigrationTxn`s and `RecoveryMigrTxn`s (counted by
    /// ownership diff per reconfiguration step).
    migrations: u64,
    /// Real coordination ops, counted by diffing the storage service's
    /// per-log `Append@LSN` counters around every reconfiguration
    /// transaction (the same registry the simulator fills).
    coord: CoordOps,
    /// Logical-time tracer (enabled by `MARLIN_TRACE`, or explicitly).
    tracer: Tracer,
    /// Every I0–I4 violation found after an actuation or fault, as
    /// values: the run keeps going and harnesses (the scenario fuzzer)
    /// inspect [`violations`](LocalRunner::violations) afterwards
    /// instead of catching a panic mid-run.
    violations: Vec<InvariantViolation>,
}

impl LocalRunner {
    /// Bootstrap the cluster a scenario describes. The scenario's granule
    /// count becomes real granules, so local scenarios should stay at
    /// hundreds-to-thousands of granules (the simulator covers paper
    /// scale).
    #[must_use]
    pub fn new(scenario: &Scenario) -> Self {
        assert!(
            scenario.backend == crate::params::CoordKind::Marlin,
            "LocalCluster runs the Marlin protocol itself; baselines are simulator-only"
        );
        let regions = scenario.params.regions.regions() as u16;
        if !scenario.region_traces.is_empty() {
            assert_eq!(
                scenario.region_traces.len(),
                regions as usize,
                "one region trace per region"
            );
        }
        let granules = scenario.workload.granule_count();
        let harness =
            LocalHarness::bootstrap(scenario.initial_nodes, granules).with_regions(regions);
        let zipf_theta = match &scenario.workload {
            Workload::Ycsb { zipfian, .. } => *zipfian,
            Workload::Tpcc { .. } => None,
        };
        let mut runner = LocalRunner {
            harness,
            now: 0,
            trace: scenario.trace.clone(),
            region_traces: scenario.region_traces.clone(),
            regions,
            zipf_theta,
            node_count: Vec::new(),
            node_time: 0.0,
            region_node_time: vec![0.0; regions as usize],
            migrations: 0,
            coord: CoordOps::default(),
            tracer: Tracer::from_env(),
            violations: Vec::new(),
        };
        runner.record_node_count();
        runner
    }

    /// The wrapped harness (cluster access for assertions and walkthroughs).
    #[must_use]
    pub fn harness(&self) -> &LocalHarness {
        &self.harness
    }

    fn record_node_count(&mut self) {
        self.node_count
            .push((self.now, self.harness.members().len() as f64));
    }

    /// Offered load per region at the current time, in node-capacity
    /// units: the per-region traces when the scenario carries them, else
    /// the global trace split by each region's granule-weight share
    /// (which `LocalHarness::observe_with` performs internally).
    fn offered_by_region(&self) -> Option<Vec<f64>> {
        if self.region_traces.is_empty() {
            return None;
        }
        Some(
            self.region_traces
                .iter()
                .map(|t| f64::from(t.clients_at(self.now)) * OFFERED_PER_CLIENT)
                .collect(),
        )
    }

    fn offered_now(&self) -> f64 {
        f64::from(self.trace.clients_at(self.now)) * OFFERED_PER_CLIENT
    }

    /// Turn on the tracer explicitly (tests prefer this over mutating the
    /// process-wide `MARLIN_TRACE` environment).
    pub fn enable_tracing(&mut self) {
        self.tracer = Tracer::enabled(DEFAULT_TRACE_CAPACITY);
    }

    /// The coordination ops counted so far.
    #[must_use]
    pub fn coordination(&self) -> CoordOps {
        self.coord
    }

    /// Every invariant violation the run surfaced so far (empty on a
    /// healthy run). The runner checks I0–I4 after every actuation and
    /// fault but *collects* violations instead of panicking, so a
    /// fuzzing harness can finish the run, report the violation with its
    /// seed, and shrink the scenario.
    #[must_use]
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Run the invariant checks at the current time and collect any
    /// violations.
    fn check_invariants(&mut self) {
        if let Err(mut found) = self.harness.check_invariants(self.now) {
            self.violations.append(&mut found);
        }
    }

    /// Totals of the storage service's `Append@LSN` counters, split
    /// SysLog vs GLogs: `(sys_attempts, sys_failures, glog_attempts,
    /// glog_failures)`.
    fn cas_totals(&self) -> (u64, u64, u64, u64) {
        let storage = self.harness.cluster.storage();
        let mut totals = (0, 0, 0, 0);
        for id in storage.log_ids() {
            let Ok(stats) = storage.stats(id) else {
                continue;
            };
            match id {
                LogId::SysLog => {
                    totals.0 += stats.cas_attempts;
                    totals.1 += stats.cas_failures;
                }
                LogId::GLog(_) => {
                    totals.2 += stats.cas_attempts;
                    totals.3 += stats.cas_failures;
                }
                // Data WALs carry user-commit appends; the runner has no
                // load generator, so reconfiguration never touches them.
                LogId::DataWal(_) => {}
            }
        }
        totals
    }

    /// Book the `Append@LSN` traffic one reconfiguration step generated:
    /// SysLog CAS → membership counters, GLog CAS → migration counters.
    /// (The synchronous runtime runs the Marlin protocol only, so there
    /// is never service traffic to attribute.)
    fn account_cas(&mut self, before: (u64, u64, u64, u64)) {
        let after = self.cas_totals();
        self.coord.membership_cas_attempts += after.0 - before.0;
        self.coord.membership_cas_retries += after.1 - before.1;
        self.coord.migration_cas_attempts += after.2 - before.2;
        self.coord.migration_cas_retries += after.3 - before.3;
    }

    /// Trace the instant `cat`/`name`, run one reconfiguration `step` on
    /// the harness, and book it: its `Append@LSN` traffic, the I0–I4
    /// checks, the granules whose owner it changed (one `MigrationTxn` or
    /// `RecoveryMigrTxn` each) and the member count.
    fn reconfigure(
        &mut self,
        cat: &'static str,
        name: &'static str,
        args: [(&'static str, i64); 2],
        step: impl FnOnce(&mut LocalHarness, Nanos),
    ) {
        self.tracer.instant_args(cat, name, self.now, args);
        let before = self.harness.owners();
        let cas_before = self.cas_totals();
        step(&mut self.harness, self.now);
        self.account_cas(cas_before);
        // Every step must leave the cluster with exclusive granule
        // ownership — the I0–I4 safety net, checked on every step.
        // Violations are collected, not panicked on (see `violations`).
        self.check_invariants();
        let after = self.harness.owners();
        self.migrations += before
            .iter()
            .filter(|(g, owner)| after.get(g).is_some_and(|now| now != *owner))
            .count() as u64;
        self.record_node_count();
    }
}

impl Runner for LocalRunner {
    fn name(&self) -> &'static str {
        "local-cluster"
    }

    fn now(&self) -> Nanos {
        self.now
    }

    fn advance(&mut self, dt: Nanos) {
        // Integrate node-time piecewise over the trace's step boundaries
        // only as far as membership is concerned — membership changes
        // happen at actuation points, so the current member count holds
        // for the whole step.
        self.node_time += self.harness.members().len() as f64 * dt as f64;
        for &m in self.harness.members() {
            self.region_node_time[self.harness.region_of(m).0 as usize] += dt as f64;
        }
        self.now += dt;
    }

    fn observe(&mut self, _window: Nanos) -> Observation {
        let weight: Box<dyn Fn(GranuleId) -> f64> = match self.zipf_theta {
            Some(theta) => Box::new(move |g: GranuleId| 1.0 / ((g.0 + 1) as f64).powf(theta)),
            None => Box::new(|_| 1.0),
        };
        match self.offered_by_region() {
            Some(per_region) => self.harness.observe_regions(self.now, &per_region, weight),
            None => self
                .harness
                .observe_with(self.now, self.offered_now(), weight),
        }
    }

    fn actuate(&mut self, action: &ScaleAction) {
        let (name, n): (&'static str, i64) = match action {
            ScaleAction::AddNodes { count, .. } => ("add_nodes", i64::from(*count)),
            ScaleAction::RemoveNodes { victims } => ("remove_nodes", victims.len() as i64),
            ScaleAction::Rebalance { moves } => ("rebalance", moves.len() as i64),
        };
        self.reconfigure(
            "policy",
            name,
            [("count", n), ("", 0)],
            |harness, now| match action {
                ScaleAction::AddNodes { count, region } => harness.add_nodes(now, *count, *region),
                ScaleAction::RemoveNodes { victims } => harness.remove_nodes(now, victims),
                ScaleAction::Rebalance { moves } => harness.rebalance(now, moves),
            },
        );
    }

    fn inject(&mut self, fault: &Fault) {
        match fault {
            Fault::Crash(node) => {
                let args = [("node", i64::from(node.0)), ("", 0)];
                self.reconfigure("fault", "crash", args, |harness, _| harness.crash(*node));
            }
            // The synchronous runtime has no network or provisioning
            // model: region degradations and lead jitter are traced
            // no-ops here (the invariants are still checked, so a fuzzed
            // schedule exercises the same control flow on both runners).
            Fault::RegionLatencySpike { region, extra, .. } => {
                if self.tracer.is_enabled() {
                    self.tracer.instant_args(
                        "fault",
                        "latency_spike",
                        self.now,
                        [
                            ("region", i64::from(region.0)),
                            ("extra_ms", (extra / 1_000_000) as i64),
                        ],
                    );
                }
                self.check_invariants();
            }
            Fault::RegionPartition { region, .. } => {
                if self.tracer.is_enabled() {
                    self.tracer.instant_args(
                        "fault",
                        "region_partition",
                        self.now,
                        [("region", i64::from(region.0)), ("", 0)],
                    );
                }
                self.check_invariants();
            }
            Fault::ProvisionLeadJitter { extra } => {
                if self.tracer.is_enabled() {
                    self.tracer.instant_args(
                        "fault",
                        "lead_jitter",
                        self.now,
                        [("extra_ms", (extra / 1_000_000) as i64), ("", 0)],
                    );
                }
            }
        }
    }

    fn finish(&mut self) {
        self.record_node_count();
    }

    fn metrics(&self) -> MetricsSnapshot {
        let node_hours = self.node_time / (3600.0 * SECOND as f64);
        let db_cost = node_hours * self.harness.node_hourly;
        let region_breakdown = (0..self.regions)
            .map(|r| {
                let nodes: Vec<u32> = self
                    .harness
                    .members()
                    .iter()
                    .filter(|&&m| self.harness.region_of(m) == RegionId(r))
                    .map(|m| m.0)
                    .collect();
                RegionBreakdown {
                    region: r,
                    live_nodes: nodes.len() as u32,
                    nodes,
                    commits: 0,
                    db_cost: self.region_node_time[r as usize] / (3600.0 * SECOND as f64)
                        * self.harness.node_hourly,
                }
            })
            .collect();
        // The synchronous runtime runs the Marlin protocol itself, so the
        // coordination registry carries real Append@LSN counts and the
        // attributed Meta Cost is exactly zero by construction — no more
        // hard-coded scalar.
        let coordination = marlin_telemetry::CoordBreakdown::attribute(self.coord, 0.0);
        let meta_cost = coordination.meta_dollars();
        MetricsSnapshot {
            live_nodes: self.harness.members().len() as u32,
            commits: 0,
            abort_ratio: 0.0,
            mean_latency: 0.0,
            p99_latency: 0,
            migrations: self.migrations,
            migration_duration: 0,
            migration_throughput: 0.0,
            migration_latency: Histogram::new().summary(),
            membership_commits: 0,
            membership_retries: self.coord.membership_cas_retries,
            membership_mean_latency: 0.0,
            db_cost,
            meta_cost,
            coordination,
            total_cost: db_cost + meta_cost,
            cost_per_mtxn: 0.0,
            node_count: self.node_count.clone(),
            region_breakdown,
            // No load generator: no commits to attribute.
            blame: Blame::default(),
            tail_exemplars: Vec::new(),
        }
    }

    fn metrics_tick(&mut self, _at: Nanos, series: &mut MetricsSeries) {
        if !series.is_enabled() {
            return;
        }
        series.counter("live_nodes", self.harness.members().len() as u64);
        series.counter("migrations", self.migrations);
        series.counter(
            "membership_cas_attempts",
            self.coord.membership_cas_attempts,
        );
        series.counter("membership_cas_retries", self.coord.membership_cas_retries);
        series.counter("migration_cas_attempts", self.coord.migration_cas_attempts);
        series.counter("invariant_violations", self.violations.len() as u64);
    }

    fn telemetry(&self) -> Option<TelemetrySection> {
        if !self.tracer.is_enabled() {
            return None;
        }
        Some(TelemetrySection {
            trace_events: self.tracer.len(),
            trace_dropped: self.tracer.dropped(),
            // The synchronous runtime has no event loop to self-profile.
            profile: ProfileSummary::default(),
            virtual_nanos: self.now,
        })
    }

    fn trace_json(&self) -> Option<String> {
        if self.tracer.is_enabled() {
            Some(self.tracer.to_chrome_json())
        } else {
            None
        }
    }
}
