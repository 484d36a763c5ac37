//! Synchronous-runtime integration: drive a [`LocalCluster`] with
//! scale actions.
//!
//! [`LocalHarness`] actuates on the functional reference runtime through
//! its [`Actuator`] methods. Every action executes *real*
//! reconfiguration transactions through the sans-io drivers in
//! `marlin_core::drivers::reconfig`: `AddNodeTxn` for scale-out,
//! per-granule `MigrationTxn`s for draining and rebalancing,
//! `RecoveryMigrTxn`s for a crashed node's granules, and
//! `DeleteNodeTxn` once a victim is empty. Which granules move where
//! on scale-out, drain and crash is decided by [`scale_out_moves`] and
//! [`drain_moves`], the rule the simulator prices, so both runners end a
//! scripted scaling run with the same granule→node map. Because
//! the runtime is synchronous, actions complete before the call returns
//! and invariants can be asserted after every control step — this is the
//! harness the policy end-to-end tests run against.
//!
//! The runtime has no clock or load generator of its own, so observations
//! take the offered load as an input: [`LocalHarness::observe`] combines
//! the caller's exogenous demand signal with the *real* granule placement
//! (from each node's materialized GTable partition) to produce the same
//! [`Observation`] shape the simulator emits.

use crate::invariant::InvariantViolation;
use crate::observe::{GranuleLoad, NodeLoad, Observation};
use crate::rebalance::{drain_moves, scale_out_moves, victims, GranuleMove};
use marlin_common::{ClusterConfig, GranuleId, GranuleLayout, KeyRange, NodeId, RegionId, TableId};
use marlin_core::runtime::LocalCluster;
use marlin_sim::Nanos;
use std::collections::BTreeMap;

/// `LocalHarness`'s actuation surface.
pub trait Actuator {
    /// Provision and join `count` fresh nodes, then rebalance onto them.
    /// `region` is the requested placement (`None` = runner's choice).
    fn add_nodes(&mut self, at: Nanos, count: u32, region: Option<RegionId>);

    /// Drain the victims onto the survivors and remove them from the
    /// membership once empty.
    fn remove_nodes(&mut self, at: Nanos, victims: &[NodeId]);

    /// Issue one `MigrationTxn` per move.
    fn rebalance(&mut self, at: Nanos, moves: &[GranuleMove]);
}

/// A [`LocalCluster`] plus the bookkeeping actuation needs.
pub struct LocalHarness {
    /// The cluster under control.
    pub cluster: LocalCluster,
    table: TableId,
    members: Vec<NodeId>,
    next_node: u32,
    /// Placement domains (1 = the single-region default).
    num_regions: u16,
    /// Region each member (live or past) was placed in.
    regions: BTreeMap<NodeId, RegionId>,
    /// Region each granule is *homed* in: the region of its bootstrap
    /// owner. Geo deployments keep clients local (§6.5), so a granule's
    /// load always comes from its home region's demand no matter which
    /// node currently serves it.
    granule_home: Vec<RegionId>,
    /// $/hour per node, priced into each observation's burn rate.
    pub node_hourly: f64,
}

impl LocalHarness {
    /// Bootstrap a cluster of `initial_nodes` nodes owning `granules`
    /// granules of one uniform table.
    #[must_use]
    pub fn bootstrap(initial_nodes: u32, granules: u64) -> Self {
        let table = TableId(0);
        let cluster = LocalCluster::bootstrap(&ClusterConfig {
            initial_nodes: (0..initial_nodes).map(NodeId).collect(),
            tables: vec![GranuleLayout::uniform(
                table,
                KeyRange::new(0, granules * 64),
                granules,
                64 * 1024,
                1024,
            )],
            ..ClusterConfig::default()
        });
        LocalHarness {
            cluster,
            table,
            members: (0..initial_nodes).map(NodeId).collect(),
            next_node: initial_nodes,
            num_regions: 1,
            regions: (0..initial_nodes)
                .map(|i| (NodeId(i), RegionId(0)))
                .collect(),
            granule_home: vec![RegionId(0); granules as usize],
            node_hourly: 0.192,
        }
    }

    /// Spread the bootstrap members across `regions` placement domains
    /// round-robin (node `i` → region `i % regions`, the simulator's
    /// rule) and home every granule in its initial owner's region. Call
    /// right after [`LocalHarness::bootstrap`], before any scaling.
    #[must_use]
    pub fn with_regions(mut self, regions: u16) -> Self {
        assert!(regions > 0, "at least one region");
        self.num_regions = regions;
        self.regions = self
            .members
            .iter()
            .map(|&m| (m, RegionId(m.0 as u16 % regions)))
            .collect();
        for &m in &self.members {
            let region = self.regions[&m];
            for g in self.cluster.node(m).marlin.owned_granules() {
                if let Some(home) = self.granule_home.get_mut(g.0 as usize) {
                    *home = region;
                }
            }
        }
        self
    }

    /// Current live members.
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// The region a member was placed in (`RegionId(0)` when unknown).
    #[must_use]
    pub fn region_of(&self, node: NodeId) -> RegionId {
        self.regions.get(&node).copied().unwrap_or(RegionId(0))
    }

    /// The region each granule is homed in.
    #[must_use]
    pub fn granule_home(&self, granule: GranuleId) -> RegionId {
        self.granule_home
            .get(granule.0 as usize)
            .copied()
            .unwrap_or(RegionId(0))
    }

    /// Every granule's owner, in granule order, from the live members'
    /// GTable partitions.
    #[must_use]
    pub fn owners(&self) -> BTreeMap<GranuleId, NodeId> {
        self.members
            .iter()
            .flat_map(|&m| {
                self.cluster
                    .node(m)
                    .marlin
                    .owned_granules()
                    .into_iter()
                    .map(move |g| (g, m))
            })
            .collect()
    }

    /// `nodes` with the region each was placed in, as the placement
    /// rules take them.
    fn placed(&self, nodes: impl IntoIterator<Item = NodeId>) -> Vec<(NodeId, RegionId)> {
        nodes.into_iter().map(|m| (m, self.region_of(m))).collect()
    }

    /// Granule counts per live member, from the real GTable partitions.
    #[must_use]
    pub fn owned_counts(&self) -> BTreeMap<NodeId, u64> {
        self.members
            .iter()
            .map(|&m| (m, self.cluster.node(m).marlin.owned_granules().len() as u64))
            .collect()
    }

    /// Synthesize an observation at logical time `at` under an exogenous
    /// demand of `offered_load` node-capacity units, spread over members
    /// proportionally to how many granules each owns (uniform access).
    #[must_use]
    pub fn observe(&self, at: Nanos, offered_load: f64) -> Observation {
        self.observe_with(at, offered_load, |_| 1.0)
    }

    /// Synthesize an observation with a custom per-granule access weight.
    ///
    /// `weight(granule)` gives each granule's relative share of the
    /// offered load (weights are normalized over all granules), so skewed
    /// workloads — e.g. a Zipfian heat profile — show up as per-node
    /// utilization imbalance and per-granule heat, exactly as the
    /// simulator's sampled counters would report them.
    ///
    /// `offered_load` is the *cluster-wide* demand; multi-region
    /// harnesses split it over regions by each region's weight share
    /// (use [`LocalHarness::observe_regions`] for an explicit per-region
    /// demand signal).
    #[must_use]
    pub fn observe_with(
        &self,
        at: Nanos,
        offered_load: f64,
        weight: impl Fn(GranuleId) -> f64,
    ) -> Observation {
        // Split the global demand by region weight share: region r's
        // offered load is `offered × w(r)/w(total)`, which makes the
        // per-node math in `observe_regions` identical to spreading the
        // global demand over all granules directly.
        let owned: Vec<GranuleId> = self
            .members
            .iter()
            .flat_map(|&m| self.cluster.node(m).marlin.owned_granules())
            .collect();
        let mut per_region = vec![0.0f64; self.num_regions as usize];
        let total: f64 = owned.iter().map(|&g| weight(g)).sum();
        if total > 0.0 {
            for &g in &owned {
                per_region[self.granule_home(g).0 as usize] += weight(g);
            }
            for w in &mut per_region {
                *w = offered_load * *w / total;
            }
        }
        self.observe_regions(at, &per_region, weight)
    }

    /// Synthesize an observation under an explicit per-region demand:
    /// `offered_by_region[r]` node-capacity units hit the granules homed
    /// in region `r` (weighted by `weight` within the region), landing on
    /// whichever nodes currently own them. This is the geo analogue of
    /// [`LocalHarness::observe_with`]: region-local spikes show up as
    /// utilization on that region's members only, exactly as the
    /// simulator's region-pinned clients would drive it.
    #[must_use]
    pub fn observe_regions(
        &self,
        at: Nanos,
        offered_by_region: &[f64],
        weight: impl Fn(GranuleId) -> f64,
    ) -> Observation {
        assert_eq!(
            offered_by_region.len(),
            self.num_regions as usize,
            "one offered-load entry per region"
        );
        let owned_by: BTreeMap<NodeId, Vec<GranuleId>> = self
            .members
            .iter()
            .map(|&m| (m, self.cluster.node(m).marlin.owned_granules()))
            .collect();
        // Per-region total weights over *owned* granules, so each
        // region's demand is normalized within the granules it can hit.
        let mut region_weight = vec![f64::MIN_POSITIVE; self.num_regions as usize];
        for gs in owned_by.values() {
            for &g in gs {
                region_weight[self.granule_home(g).0 as usize] += weight(g);
            }
        }
        let granule_share = |g: GranuleId| {
            let r = self.granule_home(g).0 as usize;
            offered_by_region[r] * weight(g) / region_weight[r]
        };
        let node_loads: Vec<NodeLoad> = owned_by
            .iter()
            .map(|(&node, granules)| NodeLoad {
                node,
                region: self.region_of(node),
                alive: true,
                pending: false,
                utilization: granules.iter().map(|&g| granule_share(g)).sum(),
                owned_granules: granules.len() as u64,
            })
            .collect();
        // Same observation semantics as `ClusterSim::observe`: per-node
        // utilization in `node_loads` is raw (may exceed 1 under
        // overload), the mean is clamped to the `[0, 1]` contract, and
        // the excess shows up only in `queue_depth` — never in both.
        let (mean_utilization, queue_depth) = if node_loads.is_empty() {
            (0.0, 0.0)
        } else {
            let n = node_loads.len() as f64;
            let mean = node_loads
                .iter()
                .map(|l| l.utilization.min(1.0))
                .sum::<f64>()
                / n;
            let excess = node_loads
                .iter()
                .map(|l| (l.utilization - 1.0).max(0.0))
                .sum::<f64>()
                / n;
            (mean, excess)
        };
        // Granule heat mirrors the access-weight assumption: every owned
        // granule carries its weighted share of its home region's demand.
        let granule_loads: Vec<GranuleLoad> = owned_by
            .iter()
            .flat_map(|(&m, granules)| granules.iter().map(move |&granule| (m, granule)))
            .map(|(owner, granule)| GranuleLoad {
                granule,
                owner,
                load: granule_share(granule),
            })
            .collect();
        let mut obs = Observation {
            at,
            live_nodes: self.members.len() as u32,
            throughput_tps: 0.0,
            p99_latency: 0,
            mean_utilization,
            queue_depth,
            dollars_per_hour: self.members.len() as f64 * self.node_hourly,
            node_loads,
            region_loads: Vec::new(),
            granule_loads,
        };
        obs.derive_region_loads();
        obs
    }

    /// Crash `victim` and run the paper's §4.4.2 recovery end to end: the
    /// node is killed, each destination commits one `RecoveryMigrTxn`
    /// onto the dead node's GLog to take over its share of the granules,
    /// and a `DeleteNodeTxn` coordinated by the first survivor removes it
    /// from the membership.
    ///
    /// §4.4.2 recovery differs from a drain only in how each move
    /// commits (the source cannot vote), so the orphans go where
    /// [`drain_moves`] would send them: same-region survivors first, one
    /// cursor, and no single survivor takes the whole victim's load.
    ///
    /// The victim passes through [`victims`], the rule the simulator
    /// applies: crashing a non-member or the last member is a no-op
    /// (there would be no survivor to recover onto), so the two runners
    /// stay fault-for-fault comparable.
    pub fn crash(&mut self, victim: NodeId) {
        if victims(&[victim], &self.members).is_empty() {
            return;
        }
        let survivors = self.placed(self.members.iter().copied().filter(|&m| m != victim));
        self.cluster.kill(victim);
        let mut orphans: BTreeMap<NodeId, Vec<GranuleId>> = BTreeMap::new();
        drain_moves(self.owners(), &self.placed([victim]), &survivors, |m| {
            orphans.entry(m.dst).or_default().push(m.granule);
        });
        for (dst, granules) in orphans {
            self.cluster
                .recovery_migrate(dst, victim, granules)
                .expect("RecoveryMigrTxn commits on the dead node's GLog");
        }
        self.cluster
            .delete_node(survivors[0].0, victim)
            .expect("DeleteNodeTxn removes the dead member");
        self.members.retain(|&m| m != victim);
    }

    /// Run the I0–I4 invariant checks and surface violations as values,
    /// stamped with the control-step time `at`.
    ///
    /// This is the non-panicking face of
    /// `LocalCluster::assert_invariants`, built for harnesses (the
    /// scenario fuzzer in particular) that want to *collect* violations
    /// into a report or repro artifact instead of unwinding mid-run.
    ///
    /// # Errors
    ///
    /// Returns every [`InvariantViolation`] found in the current GTable
    /// views, in deterministic (granule-ordered) order.
    pub fn check_invariants(&self, at: Nanos) -> Result<(), Vec<InvariantViolation>> {
        match self.cluster.check_invariants() {
            Ok(()) => Ok(()),
            Err(raw) => Err(InvariantViolation::from_core_all(&raw, at)),
        }
    }
}

impl Actuator for LocalHarness {
    fn add_nodes(&mut self, _at: Nanos, count: u32, region: Option<RegionId>) {
        // AddNodeTxn for each new member, then one MigrationTxn per move
        // of `scale_out_moves`, the function the simulator's scale-out
        // prices. A region-targeted add sheds only that region's members,
        // so the new capacity absorbs the hot region's granules instead
        // of pulling load across regions.
        let pool = self.placed(
            self.members
                .iter()
                .copied()
                .filter(|&m| region.is_none_or(|r| self.region_of(m) == r)),
        );
        let mut joining = Vec::new();
        for _ in 0..count {
            let id = NodeId(self.next_node);
            self.next_node += 1;
            self.cluster
                .add_node(id, format!("10.0.0.{}", id.0))
                .expect("AddNodeTxn succeeds on a live SysLog");
            self.members.push(id);
            let placed = region.unwrap_or(RegionId(id.0 as u16 % self.num_regions));
            self.regions.insert(id, placed);
            joining.push((id, placed));
        }
        let owners = self.owners();
        let owners = owners.iter().map(|(&granule, &node)| (granule, node));
        scale_out_moves(owners, &pool, &joining, |m| {
            self.cluster
                .migrate(m.src, m.dst, self.table, vec![m.granule])
                .expect("scale-out migration succeeds between live nodes");
        });
    }

    /// Drain the nodes [`victims`] keeps of `requested` by `drain_moves`,
    /// then remove each, in request order, with a `DeleteNodeTxn`
    /// coordinated by the first survivor. The simulator takes its
    /// victims from the same rule.
    fn remove_nodes(&mut self, _at: Nanos, requested: &[NodeId]) {
        let victims = victims(requested, &self.members);
        let survivors = self.placed(
            self.members
                .iter()
                .copied()
                .filter(|m| !victims.contains(m)),
        );
        let Some(&(coordinator, _)) = survivors.first() else {
            return;
        };
        let leaving = self.placed(victims);
        drain_moves(self.owners(), &leaving, &survivors, |m| {
            self.cluster
                .migrate(m.src, m.dst, self.table, vec![m.granule])
                .expect("drain migration succeeds between live nodes");
        });
        for (victim, _) in leaving {
            self.cluster
                .delete_node(coordinator, victim)
                .expect("DeleteNodeTxn succeeds for a drained member");
            self.members.retain(|&m| m != victim);
        }
    }

    fn rebalance(&mut self, _at: Nanos, moves: &[GranuleMove]) {
        for m in moves {
            // A stale plan (ownership moved since the observation) aborts
            // on the data-effectiveness check; that is the protocol doing
            // its job, not a harness error.
            let _ = self
                .cluster
                .migrate(m.src, m.dst, self.table, vec![m.granule]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{tick_decision, ReactiveConfig, ReactivePolicy, ScaleAction};
    use crate::rebalance::{RebalanceConfig, RebalancePlanner};

    #[test]
    fn spike_scales_out_and_back_preserving_invariants() {
        let mut harness = LocalHarness::bootstrap(4, 32);
        let mut policy = ReactivePolicy::new(ReactiveConfig {
            cooldown: 0,
            ..ReactiveConfig::paper_default(4, 8)
        });
        // Load trace in offered node-capacity units: calm, spike, calm.
        let trace = [2.0, 2.0, 7.5, 7.5, 7.5, 2.0, 2.0, 2.0];
        let mut sizes = Vec::new();
        for (tick, &load) in trace.iter().enumerate() {
            let at = tick as Nanos * marlin_sim::SECOND;
            let obs = harness.observe(at, load);
            if let Some(action) = tick_decision(&mut policy, None, &obs) {
                match action {
                    ScaleAction::AddNodes { count, region } => harness.add_nodes(at, count, region),
                    ScaleAction::RemoveNodes { victims } => harness.remove_nodes(at, &victims),
                    ScaleAction::Rebalance { moves } => harness.rebalance(at, &moves),
                }
            }
            harness.cluster.assert_invariants();
            sizes.push(harness.members().len());
        }
        assert!(
            sizes.contains(&8),
            "the spike must double the cluster: {sizes:?}"
        );
        assert_eq!(*sizes.last().unwrap(), 4, "calm must drain back: {sizes:?}");
        // Drained members really left the membership (MTable agrees).
        let survivors = harness.members().to_vec();
        assert_eq!(survivors.len(), 4);
    }

    #[test]
    fn scale_out_spreads_granules_onto_new_members() {
        let mut harness = LocalHarness::bootstrap(2, 16);
        harness.add_nodes(0, 2, None);
        harness.cluster.assert_invariants();
        let counts = harness.owned_counts();
        assert_eq!(counts.len(), 4);
        for (&node, &count) in &counts {
            assert!(count >= 2, "node {node:?} ended with {count} granules");
        }
    }

    #[test]
    fn rebalance_moves_apply_through_migration_txns() {
        let mut harness = LocalHarness::bootstrap(3, 9);
        let obs = harness.observe(0, 1.0);
        let planner = RebalancePlanner::new(RebalanceConfig {
            imbalance_threshold: 0.0,
            max_moves: 4,
        });
        // Skew the heat artificially so the planner has something to do.
        let mut skewed = obs.clone();
        for g in &mut skewed.granule_loads {
            if g.owner == NodeId(0) {
                g.load *= 10.0;
            }
        }
        let moves = planner.plan(&skewed);
        harness.rebalance(0, &moves);
        harness.cluster.assert_invariants();
    }
}
