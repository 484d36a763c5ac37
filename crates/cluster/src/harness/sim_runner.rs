//! [`Runner`] over the discrete-event [`ClusterSim`]: the performance
//! runner, where decisions play out against queueing, cold caches, and
//! migration contention in virtual time.

use crate::harness::runner::{Fault, MetricsSnapshot, RegionBreakdown, Runner, TelemetrySection};
use crate::harness::scenario::Scenario;
use crate::sim::ClusterSim;
use marlin_autoscaler::{Observation, ScaleAction};
use marlin_sim::Nanos;
use marlin_telemetry::MetricsSeries;
use marlin_workload::LoadTrace;

/// The simulator wrapped as a [`Runner`].
pub struct SimRunner {
    sim: ClusterSim,
    now: Nanos,
    horizon: Nanos,
    threads_per_node: u32,
}

impl SimRunner {
    /// Build the simulated cluster a scenario describes: workload,
    /// backend, initial nodes, client generators provisioned for the
    /// trace's peak, the trace's client-count changes pre-installed, and
    /// the membership stress if the scenario asks for it.
    ///
    /// Geo scenarios with per-region traces provision one client block
    /// per region (clients are interleaved over regions, so every region
    /// can reach the hottest region's peak) and pre-install each region's
    /// client-count changes independently.
    #[must_use]
    pub fn new(scenario: &Scenario) -> Self {
        let regions = scenario.params.regions.regions() as u32;
        let clients = if scenario.region_traces.is_empty() {
            scenario.trace.peak()
        } else {
            assert_eq!(
                scenario.region_traces.len(),
                regions as usize,
                "one region trace per region"
            );
            let max_peak = scenario
                .region_traces
                .iter()
                .map(LoadTrace::peak)
                .max()
                .unwrap_or(0);
            regions * max_peak
        };
        let mut sim = ClusterSim::new(
            scenario.params.clone(),
            scenario.backend,
            &scenario.workload,
            scenario.initial_nodes,
            clients,
            scenario.horizon,
        );
        if scenario.region_traces.is_empty() {
            for &(t, clients) in scenario.trace.changes() {
                sim.schedule_client_count(t, clients);
            }
        } else {
            for (r, trace) in scenario.region_traces.iter().enumerate() {
                sim.set_region_clients_now(r as u16, trace.clients_at(0));
                for &(t, count) in trace.changes() {
                    if t > 0 {
                        sim.schedule_region_client_count(t, r as u16, count);
                    }
                }
            }
        }
        if let Some((members, period)) = scenario.membership_stress {
            sim.schedule_membership_stress(members, period);
        }
        SimRunner {
            sim,
            now: 0,
            horizon: scenario.horizon,
            threads_per_node: scenario.threads_per_node,
        }
    }

    /// The underlying simulator (for the time series a report does not
    /// carry, e.g. Figure 14's scale-out time in the §6 claims table).
    #[must_use]
    pub fn sim(&self) -> &ClusterSim {
        &self.sim
    }

    /// Mutable access to the simulator (tests enable telemetry through
    /// this instead of mutating process-wide environment variables).
    pub fn sim_mut(&mut self) -> &mut ClusterSim {
        &mut self.sim
    }
}

impl Runner for SimRunner {
    fn name(&self) -> &'static str {
        "cluster-sim"
    }

    fn now(&self) -> Nanos {
        self.now
    }

    fn advance(&mut self, dt: Nanos) {
        self.now = (self.now + dt).min(self.horizon);
        self.sim.run_until(self.now);
    }

    fn observe(&mut self, window: Nanos) -> Observation {
        self.sim.observe(self.now, window)
    }

    fn actuate(&mut self, action: &ScaleAction) {
        self.sim
            .apply_action(self.now, action, self.threads_per_node);
    }

    fn inject(&mut self, fault: &Fault) {
        match fault {
            // The recovery storm is modeled as an immediate drain of the
            // victim onto the survivors at migration speed.
            Fault::Crash(node) => {
                self.sim.trace_fault(self.now, node.0);
                let alive = self.sim.live_node_ids();
                if alive.contains(&node.0) && alive.len() > 1 {
                    self.sim
                        .schedule_scale_in(self.now, vec![node.0], self.threads_per_node);
                }
            }
            Fault::RegionLatencySpike {
                region,
                extra,
                until,
            } => {
                self.sim
                    .inject_latency_overlay(self.now, region.0, *extra, false, *until);
            }
            Fault::RegionPartition { region, until } => {
                self.sim.inject_latency_overlay(
                    self.now,
                    region.0,
                    ClusterSim::PARTITION_ONE_WAY,
                    true,
                    *until,
                );
            }
            Fault::ProvisionLeadJitter { extra } => {
                self.sim.jitter_provision_lead(self.now, *extra);
            }
        }
    }

    fn finish(&mut self) {
        self.sim.run_until(self.horizon);
        self.sim.finish();
    }

    fn metrics(&self) -> MetricsSnapshot {
        let m = &self.sim.metrics;
        let region_commits = self.sim.region_commits();
        let region_cost = self.sim.region_db_cost();
        let placements = self.sim.live_nodes_by_region();
        let region_breakdown = (0..region_commits.len())
            .map(|r| {
                let nodes: Vec<u32> = placements
                    .iter()
                    .filter(|&&(_, region)| region.0 as usize == r)
                    .map(|&(n, _)| n)
                    .collect();
                RegionBreakdown {
                    region: r as u16,
                    live_nodes: nodes.len() as u32,
                    nodes,
                    commits: region_commits[r],
                    db_cost: region_cost[r],
                }
            })
            .collect();
        MetricsSnapshot {
            live_nodes: self.sim.live_nodes(),
            commits: m.total_commits(),
            abort_ratio: m.abort_ratio(),
            mean_latency: m.user_latency.mean(),
            p99_latency: m.user_latency.quantile(0.99),
            migrations: m.migrations.total(),
            migration_duration: m.migration_duration(),
            migration_throughput: m.migration_throughput(),
            migration_latency: m.migration_summary(),
            membership_commits: m.membership_commits,
            membership_retries: m.membership_retries,
            membership_mean_latency: self.sim.membership_mean_latency(),
            db_cost: self.sim.cost.db_cost(),
            meta_cost: self.sim.cost.meta_cost(),
            coordination: self.sim.coordination_breakdown(),
            total_cost: self.sim.cost.total_cost(),
            cost_per_mtxn: self.sim.cost.per_million_txns(m.total_commits()),
            node_count: m.node_count.points().to_vec(),
            region_breakdown,
            blame: m.blame,
            tail_exemplars: self.sim.tail_exemplars().to_vec(),
        }
    }

    fn metrics_tick(&mut self, _at: Nanos, series: &mut MetricsSeries) {
        if !series.is_enabled() {
            return;
        }
        let m = &self.sim.metrics;
        series.counter("commits", m.total_commits());
        series.counter("aborts", m.user_aborts.total());
        series.counter("migrations", m.migrations.total());
        series.counter("migration_retries", m.migration_retries);
        series.counter("membership_commits", m.membership_commits);
        series.counter("live_nodes", u64::from(self.sim.live_nodes()));
        // The cumulative blame decomposition: the per-tick delta of each
        // component is where that tick's commit latency went.
        series.counter("blame_queue_wait_ns", m.blame.queue_wait);
        series.counter("blame_service_ns", m.blame.service);
        series.counter("blame_network_ns", m.blame.network);
        series.counter("blame_network_overlay_ns", m.blame.network_overlay);
        series.counter("blame_migration_stall_ns", m.blame.migration_stall);
        series.counter("blame_provision_lead_ns", m.blame.provision_lead);
        series.counter("blame_retry_backoff_ns", m.blame.retry_backoff);
        for (r, &commits) in self.sim.region_commits().iter().enumerate() {
            series.counter_region("commits", r as u16, commits);
        }
    }

    fn telemetry(&self) -> Option<TelemetrySection> {
        if !self.sim.telemetry_active() {
            return None;
        }
        Some(TelemetrySection {
            trace_events: self.sim.tracer().len(),
            trace_dropped: self.sim.tracer().dropped(),
            profile: self.sim.profile_summary(),
            virtual_nanos: self.now,
        })
    }

    fn trace_json(&self) -> Option<String> {
        if self.sim.tracer().is_enabled() {
            Some(self.sim.tracer().to_chrome_json())
        } else {
            None
        }
    }
}
