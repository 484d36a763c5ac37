//! Region-aware scaling: run an inner sizing policy per placement domain.
//!
//! [`RegionalPolicy`] is a decorator: it owns one
//! independent instance of an inner [`ScalingPolicy`] per region and, on
//! every tick, shows each instance a [region view] of the observation —
//! the same summary fields a region-blind policy reads, restricted to the
//! nodes placed in that region. Decisions come back region-targeted:
//!
//! - scale-outs are rewritten to `AddNodes { count, region: Some(r) }`,
//!   so the runner provisions capacity *where the load is* (the
//!   *Diagonal Scaling* stance: elasticity decisions are per placement
//!   domain, not per cluster);
//! - scale-ins inherit region-local victim selection for free, because
//!   the region view's `coolest_live_nodes` only ever ranks that
//!   region's members — a drain triggered by one region's idleness can
//!   never evict another region's capacity;
//! - the coordination-service region (the region baselines pin their
//!   external service in, §6.5) can be given a floor: forced drains are
//!   clipped so it never drops below the floor, keeping the service's
//!   co-located quorum reachable.
//!
//! At most one action is emitted per tick — the policy contract —
//! so regions are visited hottest-first: a saturated region's scale-out
//! wins the tick and a cool region's drain waits for the next one.
//!
//! [region view]: crate::observe::Observation::region_view

use crate::observe::Observation;
use crate::policy::{ScaleAction, ScalingPolicy};
use marlin_common::RegionId;

/// Per-region decoration of an inner sizing policy.
pub struct RegionalPolicy {
    /// One independent inner policy per region, in region order.
    inner: Vec<(RegionId, Box<dyn ScalingPolicy>)>,
    /// `(region, floor)`: never drain this region below `floor` members.
    coordination_floor: Option<(RegionId, u32)>,
}

impl RegionalPolicy {
    /// A regional policy over `regions` placement domains, with one inner
    /// policy per region built by `make` (instances must be independent —
    /// each carries its own cooldown/integral state).
    #[must_use]
    pub fn new(regions: u16, mut make: impl FnMut(RegionId) -> Box<dyn ScalingPolicy>) -> Self {
        assert!(regions > 0, "at least one region");
        RegionalPolicy {
            inner: (0..regions)
                .map(|r| (RegionId(r), make(RegionId(r))))
                .collect(),
            coordination_floor: None,
        }
    }

    /// Protect the coordination-service region: clip any drain of
    /// `region` so it keeps at least `floor` live members.
    #[must_use]
    pub fn with_coordination_floor(mut self, region: RegionId, floor: u32) -> Self {
        self.coordination_floor = Some((region, floor));
        self
    }
}

impl ScalingPolicy for RegionalPolicy {
    fn name(&self) -> &'static str {
        "regional"
    }

    fn decide(&mut self, obs: &Observation) -> Option<ScaleAction> {
        // Build every region's view up front, then visit regions
        // hottest-first (ties by region id) so the most urgent scale-out
        // claims the tick's one action. Once a region has claimed it the
        // remaining regions still *see* their views through
        // `observe_only`, so stateful inner policies (forecasters) never
        // miss a sample of their region's demand series.
        let views: Vec<Observation> = self
            .inner
            .iter()
            .map(|(r, _)| obs.region_view(*r))
            .collect();
        let mut order: Vec<usize> = (0..self.inner.len()).collect();
        order.sort_by(|&a, &b| {
            views[b]
                .mean_utilization
                .total_cmp(&views[a].mean_utilization)
                .then_with(|| self.inner[a].0 .0.cmp(&self.inner[b].0 .0))
        });
        let mut chosen: Option<ScaleAction> = None;
        for idx in order {
            let view = &views[idx];
            let (region, policy) = &mut self.inner[idx];
            if chosen.is_some() || view.live_nodes == 0 {
                // A region with no capacity yet has nothing to size (the
                // scenario — or a predictive policy — seeds it), and a
                // region visited after the tick's action only observes.
                policy.observe_only(view);
                continue;
            }
            match policy.decide(view) {
                Some(ScaleAction::AddNodes { count, .. }) => {
                    chosen = Some(ScaleAction::add_in(count, *region));
                }
                Some(ScaleAction::RemoveNodes { mut victims }) => {
                    if let Some((coord, floor)) = self.coordination_floor {
                        if *region == coord {
                            let max_shed = view.live_nodes.saturating_sub(floor) as usize;
                            victims.truncate(max_shed);
                        }
                    }
                    if victims.is_empty() {
                        continue;
                    }
                    chosen = Some(ScaleAction::RemoveNodes { victims });
                }
                Some(other @ ScaleAction::Rebalance { .. }) => chosen = Some(other),
                None => {}
            }
        }
        chosen
    }

    fn observe_only(&mut self, obs: &Observation) {
        for (region, policy) in &mut self.inner {
            policy.observe_only(&obs.region_view(*region));
        }
    }

    fn forecasts(&self) -> Vec<crate::forecast::ForecastSample> {
        self.inner
            .iter()
            .flat_map(|(region, policy)| {
                policy.forecasts().into_iter().map(|mut s| {
                    s.region.get_or_insert(*region);
                    s
                })
            })
            .collect()
    }

    fn p99_ceiling(&self) -> Option<marlin_sim::Nanos> {
        // The per-region instances are built identically, so the first
        // armed ceiling is *the* SLO.
        self.inner.iter().find_map(|(_, p)| p.p99_ceiling())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NodeLoad;
    use crate::policy::{ReactiveConfig, ReactivePolicy};
    use marlin_common::NodeId;

    fn regional(regions: u16, min: u32, max: u32) -> RegionalPolicy {
        RegionalPolicy::new(regions, |_| {
            Box::new(ReactivePolicy::new(ReactiveConfig {
                cooldown: 0,
                ..ReactiveConfig::paper_default(min, max)
            }))
        })
    }

    /// `nodes[i]` nodes in region `i`, at `utils[i]` utilization each.
    fn obs(nodes: &[u32], utils: &[f64]) -> Observation {
        let mut node_loads = Vec::new();
        let mut id = 0;
        for (r, (&n, &u)) in nodes.iter().zip(utils).enumerate() {
            for _ in 0..n {
                node_loads.push(NodeLoad {
                    node: NodeId(id),
                    region: RegionId(r as u16),
                    utilization: u,
                    owned_granules: 1,
                    ..NodeLoad::default()
                });
                id += 1;
            }
        }
        let live = node_loads.len() as u32;
        let mut o = Observation {
            live_nodes: live,
            node_loads,
            ..Observation::default()
        };
        o.derive_region_loads();
        o
    }

    #[test]
    fn scale_out_targets_the_hot_region_only() {
        let mut p = regional(3, 2, 4);
        // Region 1 saturated, the others idle but at their floor.
        let action = p.decide(&obs(&[2, 2, 2], &[0.5, 0.95, 0.5]));
        assert_eq!(action, Some(ScaleAction::add_in(2, RegionId(1))));
    }

    #[test]
    fn drains_pick_the_cool_regions_coolest_node() {
        let mut p = regional(2, 1, 4);
        // Region 0 (nodes 0-2) busy; region 1 (nodes 3-5) idle.
        let mut o = obs(&[3, 3], &[0.6, 0.1]);
        o.node_loads[4].utilization = 0.02; // node 4 is region 1's coolest
        match p.decide(&o) {
            Some(ScaleAction::RemoveNodes { victims }) => {
                assert_eq!(victims[0], NodeId(4), "region-local coolest drains first");
                assert!(
                    victims.iter().all(|v| v.0 >= 3),
                    "victims must come from the idle region: {victims:?}"
                );
            }
            other => panic!("expected a region-local drain, got {other:?}"),
        }
    }

    #[test]
    fn hot_region_wins_the_tick_over_a_cool_regions_drain() {
        let mut p = regional(2, 1, 8);
        // Region 0 idle (would drain), region 1 saturated (must grow).
        let action = p.decide(&obs(&[3, 2], &[0.1, 0.95]));
        assert!(
            matches!(
                action,
                Some(ScaleAction::AddNodes {
                    region: Some(RegionId(1)),
                    ..
                })
            ),
            "the scale-out takes priority: {action:?}"
        );
    }

    #[test]
    fn coordination_region_never_drains_below_its_floor() {
        let mut p = regional(2, 1, 8).with_coordination_floor(RegionId(0), 3);
        // Region 0 idle at 3 nodes — its inner policy wants a drain, but
        // the floor clips it to nothing; region 1 is quiet mid-band.
        let action = p.decide(&obs(&[3, 2], &[0.1, 0.5]));
        assert_eq!(action, None, "the floor must veto the drain");
        // Above the floor the drain goes through, clipped to the floor.
        let mut p = regional(2, 1, 8).with_coordination_floor(RegionId(0), 3);
        match p.decide(&obs(&[4, 2], &[0.1, 0.5])) {
            Some(ScaleAction::RemoveNodes { victims }) => {
                assert_eq!(victims.len(), 1, "only the excess over the floor sheds");
                assert!(victims[0].0 < 4, "victim comes from region 0");
            }
            other => panic!("expected a clipped drain, got {other:?}"),
        }
    }

    #[test]
    fn one_regions_p99_breach_does_not_scale_idle_regions() {
        use crate::policy::ScaleAction;
        // Regression: region_view used to inherit the *global* p99 into
        // every region's view, so a latency-triggered policy would buy
        // capacity in idle regions whenever the hot region was slow.
        let mut p = RegionalPolicy::new(2, |_| {
            let mut cfg = ReactiveConfig::paper_default(2, 8);
            cfg.p99_ceiling = Some(50 * marlin_sim::MILLISECOND);
            cfg.cooldown = 10 * marlin_sim::SECOND;
            Box::new(ReactivePolicy::new(cfg))
        });
        // Region 0 mid-band but latency-breached; region 1 idle and fast.
        // The observation carries per-region digests (as runners fill
        // them), with the global p99 dominated by region 0.
        let mut o = obs(&[2, 2], &[0.6, 0.4]);
        o.p99_latency = 80 * marlin_sim::MILLISECOND;
        o.derive_region_loads();
        for r in &mut o.region_loads {
            r.p99_latency = if r.region == RegionId(0) {
                80 * marlin_sim::MILLISECOND
            } else {
                5 * marlin_sim::MILLISECOND
            };
        }
        let action = p.decide(&o);
        assert_eq!(
            action,
            Some(ScaleAction::add_in(2, RegionId(0))),
            "only the latency-breached region scales"
        );
        // And the idle region stays quiet on the next tick too.
        let action = p.decide(&o);
        assert_eq!(action, None, "region 1's own p99 is fine: {action:?}");
    }

    #[test]
    fn per_region_cooldowns_are_independent() {
        let mut p = RegionalPolicy::new(2, |_| {
            Box::new(ReactivePolicy::new(ReactiveConfig {
                cooldown: 100 * marlin_sim::SECOND,
                ..ReactiveConfig::paper_default(1, 8)
            }))
        });
        // Region 0 scales out at t=0 and enters its cooldown.
        let mut o = obs(&[2, 2], &[0.95, 0.5]);
        assert_eq!(p.decide(&o), Some(ScaleAction::add_in(1, RegionId(0))));
        // One tick later region 1 saturates: its own policy is fresh and
        // must act even though region 0's is cooling down.
        o.at = marlin_sim::SECOND;
        for n in &mut o.node_loads {
            n.utilization = if n.region == RegionId(1) { 0.95 } else { 0.9 };
        }
        o.derive_region_loads();
        assert_eq!(
            p.decide(&o),
            Some(ScaleAction::add_in(1, RegionId(1))),
            "region 1's cooldown is its own"
        );
    }
}
