//! The *observe* leg of the control loop: a point-in-time snapshot of
//! cluster health that policies decide on.
//!
//! Observations are deliberately runner-agnostic: the discrete-event
//! simulator fills them from its CPU queueing models and windowed latency
//! instruments, while the synchronous [`LocalCluster`] harness synthesizes
//! them from granule placement plus an exogenous load signal. Policies
//! never see which runner produced the snapshot — that is what lets the
//! same policy code be unit-tested synchronously and benchmarked in
//! virtual time.
//!
//! Placement is part of the snapshot: every [`NodeLoad`] carries the
//! region the runner placed the node in, and [`Observation::region_loads`]
//! groups the per-node loads into per-region digests so region-aware
//! policies (see [`RegionalPolicy`]) can size each placement domain
//! independently.
//!
//! [`LocalCluster`]: marlin_core::runtime::LocalCluster
//! [`RegionalPolicy`]: crate::regional::RegionalPolicy

use marlin_common::{GranuleId, NodeId, RegionId};
use marlin_sim::Nanos;

/// One node's load at observation time.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeLoad {
    /// The node observed.
    pub node: NodeId,
    /// The region the runner placed the node in (`RegionId(0)` for
    /// single-region deployments).
    pub region: RegionId,
    /// Whether the node is a live member: up, and no removal of it
    /// ordered (a node being drained is no longer counted).
    pub alive: bool,
    /// Whether the node is *ordered but not yet live*: an `AddNodes`
    /// actuation reserved this slot and the provisioning lead time is
    /// still running. Policies must count pending capacity when sizing
    /// (see [`Observation::pending_nodes`]) or they re-order the same
    /// nodes every tick of the lead. Always `false` when provisioning is
    /// instant (the default), so lead-free decision logs are unchanged.
    pub pending: bool,
    /// CPU utilization (offered work over capacity). Unlike the
    /// observation-level mean this is *raw*: values above 1 expose how far
    /// past saturation the node is being driven.
    ///
    /// The number is offered load per worker-capacity in every runner;
    /// what differs is provenance. The simulator's analytic mode reports
    /// an EMA *estimate* of it; its per-request mode *measures* it
    /// exactly over the observation window (service demand arrived ÷
    /// capacity held); the synchronous runtime synthesizes it from the
    /// client trace. In every case >1 means demand outran capacity.
    pub utilization: f64,
    /// Granules the node currently owns.
    pub owned_granules: u64,
}

/// One granule's observed heat (for the rebalance planner).
#[derive(Clone, Debug, PartialEq)]
pub struct GranuleLoad {
    /// The granule observed.
    pub granule: GranuleId,
    /// Its authoritative owner at observation time.
    pub owner: NodeId,
    /// Access heat in arbitrary but mutually comparable units
    /// (e.g. transactions touching the granule in the sampling window).
    ///
    /// When the runner tracks heat with the count-min sketch (the cohort
    /// scale engine's default), this is an *estimate* that never
    /// undercounts the true heat but may overcount within the sketch's
    /// error envelope. Planners must treat loads as ranking signals, not
    /// exact tallies — the rebalance planner's threshold-and-spread
    /// logic already does.
    pub load: f64,
}

/// One region's load digest: the [`Observation`]-level summary fields,
/// restricted to the nodes placed in that region.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionLoad {
    /// The region summarized.
    pub region: RegionId,
    /// Live member nodes placed in the region.
    pub live_nodes: u32,
    /// Mean CPU utilization across the region's live nodes, clamped to
    /// `[0, 1]` (the excess shows up in `queue_depth`).
    pub mean_utilization: f64,
    /// Mean per-node overload across the region's live nodes.
    /// [`Observation::derive_region_loads`] fills it with the modeled
    /// utilization excess above 1; runners that measure real queues
    /// (the simulator in per-request mode) overwrite it with the mean
    /// measured queue length per worker over the region's stations —
    /// see [`Observation::queue_depth`] for the two semantics.
    pub queue_depth: f64,
    /// p99 commit latency of the region's clients over the sampling
    /// window. Runners that attribute commits exactly (the simulator)
    /// fill the true per-region value; [`Observation::derive_region_loads`]
    /// falls back to the global p99.
    pub p99_latency: Nanos,
    /// Committed transactions per second attributed to the region's
    /// clients over the sampling window (0 where the runner cannot
    /// attribute commits).
    pub throughput_tps: f64,
    /// Current spend rate attributed to the region, $/hour.
    pub dollars_per_hour: f64,
}

/// A snapshot of cluster health fed to [`ScalingPolicy::decide`].
///
/// [`ScalingPolicy::decide`]: crate::policy::ScalingPolicy::decide
#[derive(Clone, Debug, Default)]
pub struct Observation {
    /// Virtual (or logical) observation time.
    pub at: Nanos,
    /// Number of live member nodes.
    pub live_nodes: u32,
    /// Committed user transactions per second over the sampling window.
    pub throughput_tps: f64,
    /// p99 latency of committed transactions over the sampling window.
    pub p99_latency: Nanos,
    /// Mean CPU utilization across live nodes, `[0, 1]`.
    pub mean_utilization: f64,
    /// Mean per-node overload across live nodes: the part of each node's
    /// raw utilization above 1, averaged (0 when the cluster is keeping
    /// up; grows as queues build).
    ///
    /// Its meaning sharpens with the runner's CPU model:
    ///
    /// - analytic EMA (`CpuModel::Analytic`, the simulator's default) —
    ///   *modeled* offered work beyond capacity, an estimate smoothed by
    ///   the EMA time constant (the mean of each node's utilization
    ///   excess above 1);
    /// - per-request queueing (`CpuModel::PerRequest`) — the *real*
    ///   queue length per worker, measured from the stations'
    ///   waiting-time integrals and time-averaged over the observation
    ///   window (not derived from a utilization excess).
    pub queue_depth: f64,
    /// Current spend rate (compute + coordination service), $/hour.
    pub dollars_per_hour: f64,
    /// Per-node loads (live and provisioned-but-dead nodes).
    pub node_loads: Vec<NodeLoad>,
    /// Per-region digests grouped from `node_loads` by the placement the
    /// runner reports (empty only when a runner predates regions; use
    /// [`Observation::derive_region_loads`] to fill it from `node_loads`).
    pub region_loads: Vec<RegionLoad>,
    /// Sampled granule heats (typically the hottest K, not the universe).
    pub granule_loads: Vec<GranuleLoad>,
}

impl Default for NodeLoad {
    fn default() -> Self {
        NodeLoad {
            node: NodeId(0),
            region: RegionId(0),
            alive: true,
            pending: false,
            utilization: 0.0,
            owned_granules: 0,
        }
    }
}

impl Observation {
    /// The *forecasting* demand signal, in node-capacity units: the sum
    /// of the raw per-node utilizations of the live members, with no
    /// backlog correction.
    ///
    /// Backlog is left out on purpose: it is demand that *already
    /// arrived* and is waiting; adding it back (times the node count)
    /// makes the series spike 5–10× the moment a queue forms, which
    /// poisons the trend fit and trips the predictive policy's error
    /// guard exactly when prediction matters most. The utilization sum
    /// tracks the exogenous demand curve smoothly in both CPU-model
    /// dialects (the analytic EMA reports overload as utilization above
    /// 1; the per-request station measures offered work directly), which
    /// is what makes it forecastable.
    #[must_use]
    pub fn demand_signal(&self) -> f64 {
        self.node_loads
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.utilization.max(0.0))
            .sum()
    }

    /// Nodes ordered but not yet live — `AddNodes` actuations whose
    /// provisioning lead time is still running. Sizing policies count
    /// these as capacity already bought: the effective provisioned size
    /// is `live_nodes + pending_nodes()`. Always 0 when provisioning is
    /// instant.
    #[must_use]
    pub fn pending_nodes(&self) -> u32 {
        self.node_loads.iter().filter(|n| n.pending).count() as u32
    }

    /// Live nodes ordered coolest-first — the preferred scale-in victims.
    #[must_use]
    pub fn coolest_live_nodes(&self) -> Vec<NodeId> {
        let mut live: Vec<&NodeLoad> = self.node_loads.iter().filter(|n| n.alive).collect();
        live.sort_by(|a, b| {
            a.utilization
                .total_cmp(&b.utilization)
                .then_with(|| a.owned_granules.cmp(&b.owned_granules))
                .then_with(|| b.node.cmp(&a.node))
        });
        live.iter().map(|n| n.node).collect()
    }

    /// The distinct regions present in `node_loads`, ascending.
    #[must_use]
    pub fn regions(&self) -> Vec<RegionId> {
        let mut regions: Vec<RegionId> = self.node_loads.iter().map(|n| n.region).collect();
        regions.sort_unstable_by_key(|r| r.0);
        regions.dedup();
        regions
    }

    /// Fill `region_loads` by grouping `node_loads` on the placement the
    /// runner reported. Throughput and spend are split proportionally to
    /// each region's live-node share; runners that can attribute them
    /// exactly (the simulator tags commits with the client's region)
    /// overwrite those two fields afterwards.
    pub fn derive_region_loads(&mut self) {
        let regions = self.regions();
        let total_live = self.node_loads.iter().filter(|n| n.alive).count() as f64;
        self.region_loads = regions
            .into_iter()
            .map(|region| {
                let nodes: Vec<&NodeLoad> = self
                    .node_loads
                    .iter()
                    .filter(|n| n.alive && n.region == region)
                    .collect();
                let n = nodes.len() as f64;
                let (mean, queue) = if nodes.is_empty() {
                    (0.0, 0.0)
                } else {
                    (
                        nodes.iter().map(|l| l.utilization.min(1.0)).sum::<f64>() / n,
                        nodes
                            .iter()
                            .map(|l| (l.utilization - 1.0).max(0.0))
                            .sum::<f64>()
                            / n,
                    )
                };
                let share = if total_live > 0.0 {
                    n / total_live
                } else {
                    0.0
                };
                RegionLoad {
                    region,
                    live_nodes: nodes.len() as u32,
                    mean_utilization: mean,
                    queue_depth: queue,
                    p99_latency: self.p99_latency,
                    throughput_tps: self.throughput_tps * share,
                    dollars_per_hour: self.dollars_per_hour * share,
                }
            })
            .collect();
    }

    /// The region digest for `region`, if the observation carries one.
    #[must_use]
    pub fn region_load(&self, region: RegionId) -> Option<&RegionLoad> {
        self.region_loads.iter().find(|r| r.region == region)
    }

    /// An [`Observation`] restricted to one region: the summary fields a
    /// region-blind sizing policy reads (`live_nodes`, utilization, queue
    /// depth, p99, throughput, spend) describe only that region, and
    /// `node_loads`/`granule_loads` are filtered to nodes placed there —
    /// so victim selection through [`Observation::coolest_live_nodes`]
    /// is automatically region-local.
    ///
    /// The summary fields come from the region's [`RegionLoad`] digest
    /// when the observation carries one (the runner's exact attribution,
    /// including the per-region p99 a latency-triggered policy reads);
    /// they are recomputed from `node_loads` only as a fallback. A global
    /// p99 deliberately never leaks into a view that has a digest — it
    /// would make one region's latency breach scale out every region.
    #[must_use]
    pub fn region_view(&self, region: RegionId) -> Observation {
        let node_loads: Vec<NodeLoad> = self
            .node_loads
            .iter()
            .filter(|n| n.region == region)
            .cloned()
            .collect();
        // Set lookup: the scale engine's observations carry hottest-K
        // granule samples across hundreds of nodes, and a linear
        // `contains` per granule makes the filter O(G×N).
        let region_nodes: std::collections::BTreeSet<NodeId> =
            node_loads.iter().map(|n| n.node).collect();
        let live: Vec<&NodeLoad> = node_loads.iter().filter(|n| n.alive).collect();
        let digest = self.region_load(region);
        let (mean_utilization, queue_depth) = match digest {
            Some(d) => (d.mean_utilization, d.queue_depth),
            None => {
                let n = live.len() as f64;
                if live.is_empty() {
                    (0.0, 0.0)
                } else {
                    (
                        live.iter().map(|l| l.utilization.min(1.0)).sum::<f64>() / n,
                        live.iter()
                            .map(|l| (l.utilization - 1.0).max(0.0))
                            .sum::<f64>()
                            / n,
                    )
                }
            }
        };
        let granule_loads: Vec<GranuleLoad> = self
            .granule_loads
            .iter()
            .filter(|g| region_nodes.contains(&g.owner))
            .cloned()
            .collect();
        Observation {
            at: self.at,
            live_nodes: live.len() as u32,
            throughput_tps: digest.map_or(0.0, |d| d.throughput_tps),
            p99_latency: digest.map_or(self.p99_latency, |d| d.p99_latency),
            mean_utilization,
            queue_depth,
            dollars_per_hour: digest.map_or(0.0, |d| d.dollars_per_hour),
            node_loads,
            region_loads: digest.map(|d| vec![d.clone()]).unwrap_or_default(),
            granule_loads,
        }
    }

    /// Convenience constructor for policy unit tests: `live` nodes at a
    /// uniform utilization.
    #[must_use]
    pub fn uniform(at: Nanos, live: u32, utilization: f64) -> Self {
        let mut obs = Observation {
            at,
            live_nodes: live,
            mean_utilization: utilization,
            node_loads: (0..live)
                .map(|i| NodeLoad {
                    node: NodeId(i),
                    region: RegionId(0),
                    alive: true,
                    pending: false,
                    utilization,
                    owned_granules: 1,
                })
                .collect(),
            ..Observation::default()
        };
        obs.derive_region_loads();
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coolest_live_nodes_sorts_by_utilization_then_granules() {
        let mut obs = Observation::uniform(0, 3, 0.5);
        obs.node_loads[0].utilization = 0.9;
        obs.node_loads[2].utilization = 0.1;
        obs.node_loads.push(NodeLoad {
            node: NodeId(9),
            alive: false,
            ..NodeLoad::default()
        });
        let order = obs.coolest_live_nodes();
        assert_eq!(order, vec![NodeId(2), NodeId(1), NodeId(0)]);
    }

    #[test]
    fn ties_prefer_higher_node_ids_as_victims() {
        // Later-added nodes (higher ids) are released first on a tie, which
        // keeps scale-in symmetric with scale-out.
        let obs = Observation::uniform(0, 3, 0.5);
        assert_eq!(obs.coolest_live_nodes()[0], NodeId(2));
    }

    fn two_region_obs() -> Observation {
        let mut obs = Observation::uniform(0, 4, 0.5);
        for (i, n) in obs.node_loads.iter_mut().enumerate() {
            n.region = RegionId((i % 2) as u16);
        }
        // Region 0 is hot (nodes 0, 2), region 1 cool (nodes 1, 3).
        obs.node_loads[0].utilization = 1.2;
        obs.node_loads[2].utilization = 0.8;
        obs.node_loads[1].utilization = 0.2;
        obs.node_loads[3].utilization = 0.1;
        obs.throughput_tps = 100.0;
        obs.dollars_per_hour = 4.0;
        // One sampled hot granule per node, so views can prove their
        // granule filter follows the owner's placement.
        obs.granule_loads = (0..4)
            .map(|i| GranuleLoad {
                granule: GranuleId(i),
                owner: NodeId(i as u32),
                load: 10.0 + i as f64,
            })
            .collect();
        obs.derive_region_loads();
        obs
    }

    #[test]
    fn region_loads_group_nodes_by_placement() {
        let obs = two_region_obs();
        assert_eq!(obs.regions(), vec![RegionId(0), RegionId(1)]);
        let r0 = obs.region_load(RegionId(0)).expect("region 0 digest");
        let r1 = obs.region_load(RegionId(1)).expect("region 1 digest");
        assert_eq!(r0.live_nodes, 2);
        assert_eq!(r1.live_nodes, 2);
        // Region 0: min(1.2,1)=1.0 and 0.8 → mean 0.9, excess 0.2/2=0.1.
        assert!((r0.mean_utilization - 0.9).abs() < 1e-12);
        assert!((r0.queue_depth - 0.1).abs() < 1e-12);
        assert!((r1.mean_utilization - 0.15).abs() < 1e-12);
        assert_eq!(r1.queue_depth, 0.0);
        // Proportional split of throughput and spend (2 of 4 live nodes).
        assert!((r0.throughput_tps - 50.0).abs() < 1e-12);
        assert!((r1.dollars_per_hour - 2.0).abs() < 1e-12);
    }

    #[test]
    fn region_view_restricts_nodes_and_victims() {
        let obs = two_region_obs();
        let v = obs.region_view(RegionId(1));
        assert_eq!(v.live_nodes, 2);
        assert!(v.node_loads.iter().all(|n| n.region == RegionId(1)));
        assert!((v.mean_utilization - 0.15).abs() < 1e-12);
        // Victim ordering inside the view is region-local.
        assert_eq!(v.coolest_live_nodes(), vec![NodeId(3), NodeId(1)]);
        // Granule samples follow their owner's placement: only the
        // granules owned by region-1 nodes (odd ids) survive the view.
        assert_eq!(
            v.granule_loads
                .iter()
                .map(|g| g.granule)
                .collect::<Vec<_>>(),
            vec![GranuleId(1), GranuleId(3)]
        );
    }
}
